"""The import graph: lazy package namespaces, no cycles, start-up budget.

``repro``, ``repro.core``, ``repro.instrument`` and ``repro.serve``
load their submodules on first attribute access (PEP 562), so a
command imports only what it runs.  These tests pin what that promises:

* every exported name still resolves, and a function named like its
  own submodule is not shadowed by the module once that is imported;
* every subpackage and top-level module imports first in a fresh
  interpreter, so the graph has no cycles;
* ``repro --help`` and the service client load no numpy; the daemon
  is ready before it loads numpy or its report stack, and its stack
  loader loads that whole stack but none of the simulator, calibration
  or baseline packages — nothing moves into its first request.
"""

import importlib
import os
import pkgutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

LAZY_PACKAGES = ("repro", "repro.core", "repro.instrument", "repro.serve")

#: Exported functions whose name equals their own submodule's name.
SHADOWABLE = (
    ("repro.core", "standardize"),
    ("repro.core", "efficiency"),
    ("repro.instrument", "profile"),
    ("repro.calibrate", "reconstruct"),
    ("repro.simmpi", "replay"),
    ("repro.baselines", "percent_imbalance"),
)

#: Packages no daemon loads, before its stack loads or after.
NOT_SERVED = ("scipy", "repro.apps", "repro.simmpi", "repro.calibrate",
              "repro.faults", "repro.baselines")


def _env() -> dict:
    """The environment of a fresh interpreter with this checkout first
    on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with this checkout first on its path."""
    return subprocess.run([sys.executable, *args], env=_env(),
                          capture_output=True, text=True, timeout=120)


def _loaded_after(statement: str) -> set:
    """Names of the modules a fresh interpreter holds after
    ``statement``."""
    result = _python("-c", statement + "\nimport sys\n"
                     "print('\\n'.join(sys.modules))")
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def _within(modules: set, package: str) -> set:
    return {name for name in modules
            if name == package or name.startswith(package + ".")}


class TestLazyNamespaces:
    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_every_exported_name_resolves(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert getattr(module, name) is not None, name
            assert name in dir(module)

    def test_star_import_and_version(self):
        namespace = {}
        exec("from repro import *", namespace)
        assert namespace["__version__"] == repro.__version__ == "1.0.0"
        assert callable(namespace["analyze"])
        assert namespace["serve"].__name__ == "repro.serve"

    def test_unknown_names_raise_attribute_error(self):
        for package in LAZY_PACKAGES:
            module = importlib.import_module(package)
            with pytest.raises(AttributeError):
                getattr(module, "no_such_name")
            assert not hasattr(module, "__no_such_dunder__")

    def test_submodules_resolve_as_attributes(self):
        core = importlib.import_module("repro.core")
        assert core.temporal.__name__ == "repro.core.temporal"
        assert repro.cache.__name__ == "repro.cache"

    @pytest.mark.parametrize("package,name", SHADOWABLE)
    def test_importing_a_submodule_keeps_the_function(self, package,
                                                      name):
        """``import pkg.name`` binds the module as ``pkg.name``; a
        package must have bound the function first, or every caller of
        ``pkg.name(...)`` gets "'module' object is not callable"."""
        result = _python("-c", f"""
import importlib
import types
package = importlib.import_module({package!r})
module = importlib.import_module({package!r} + "." + {name!r})
value = getattr(package, {name!r})
assert not isinstance(value, types.ModuleType), value
assert value is getattr(module, {name!r}), value
""")
        assert result.returncode == 0, result.stderr


def _import_first_targets():
    names = [info.name for info in pkgutil.iter_modules(repro.__path__)
             if info.name != "__main__"]
    return ["repro"] + [f"repro.{name}" for name in sorted(names)]


@pytest.mark.parametrize("module", _import_first_targets())
def test_module_imports_first_in_a_fresh_interpreter(module):
    """Importing any subpackage or top-level module before anything
    else succeeds: the import graph has no cycle that an import order
    could trip over."""
    result = _python("-c", f"import {module}")
    assert result.returncode == 0, result.stderr


class TestStartupBudget:
    def test_help_loads_no_numpy_scipy_or_core(self):
        result = _python("-X", "importtime", "-m", "repro", "--help")
        assert result.returncode == 0, result.stderr
        modules = {line.rsplit("|", 1)[-1].strip()
                   for line in result.stderr.splitlines()
                   if line.startswith("import time:")}
        assert "repro.cli" in modules
        for package in ("numpy", "scipy", "repro.core"):
            assert not _within(modules, package), package

    @pytest.mark.parametrize("statement", [
        "from repro.serve.client import ServeClient",
        "from repro.serve import ServeClient, trace_sha256",
    ])
    def test_client_loads_no_numpy(self, statement):
        """``repro submit`` and ``repro fetch`` run the client alone:
        neither numpy nor the report stack the daemon preloads."""
        modules = _loaded_after(statement)
        assert "repro.serve.client" in modules
        for package in ("numpy", "scipy", "repro.core",
                        "repro.serve.store", "repro.serve.jobs"):
            assert not _within(modules, package), package

    def test_daemon_loads_no_report_stack_before_ready(self):
        """``repro serve`` reports ready once its socket listens and
        loads the job stack after that (:mod:`repro.serve.stack`)."""
        modules = _loaded_after("import repro.serve.server")
        assert "repro.serve.jobs" in modules
        for package in ("numpy", "repro.core", "repro.instrument",
                        *NOT_SERVED):
            assert not _within(modules, package), package

    def test_daemon_loads_its_report_stack_and_nothing_else(self):
        modules = _loaded_after("import repro.serve.server\n"
                                "from repro.serve import load_stack\n"
                                "load_stack()")
        for needed in ("repro.reports", "repro.instrument.stream",
                       "repro.core.batch"):
            assert needed in modules, needed
        for package in NOT_SERVED:
            assert not _within(modules, package), package

    def test_concurrent_loaders_import_the_stack_once(self):
        """Threads that call ``load_stack`` at once return only when the
        stack is whole, and only one of them runs its imports."""
        result = _python("-c", """
import builtins, sys, threading
from repro.serve import load_stack, stack_state
sys.setswitchinterval(1e-6)
importers, real_import = set(), builtins.__import__

def spy(name, globals=None, *args, **kwargs):
    if (globals or {}).get("__name__") == "repro.serve.stack":
        importers.add(threading.get_ident())
    return real_import(name, globals, *args, **kwargs)

builtins.__import__ = spy
start, whole = threading.Barrier(8), []

def load():
    start.wait()
    load_stack()
    whole.append(hasattr(sys.modules["repro.core.batch"], "BatchAnalysis")
                 and hasattr(sys.modules["repro.instrument.stream"],
                             "accumulate_trace"))

threads = [threading.Thread(target=load) for _ in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(60)
assert not any(thread.is_alive() for thread in threads)
print(len(importers), whole.count(True), stack_state())
""")
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["1", "8", "loaded"]

    def test_daemon_says_serving_before_it_imports_numpy(self, tmp_path):
        """``repro serve -X importtime``, stderr into stdout: the
        ``serving on`` line comes before any numpy import.  SIGTERM at
        ready lands during the stack load, which still completes."""
        ready = tmp_path / "ready.txt"
        process = subprocess.Popen(
            [sys.executable, "-X", "importtime", "-m", "repro", "serve",
             "--port", "0", "--store", str(tmp_path / "store"),
             "--ready-file", str(ready)],
            env=_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        try:
            deadline = time.monotonic() + 60
            while not (ready.exists() and ready.read_text().strip()):
                assert time.monotonic() < deadline, "daemon never ready"
                assert process.poll() is None, "daemon died on startup"
                time.sleep(0.01)
            process.send_signal(signal.SIGTERM)
            output, _ = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, output
        lines = output.splitlines()
        serving = [number for number, line in enumerate(lines)
                   if line.startswith("serving on ")]
        numpy = [number for number, line in enumerate(lines)
                 if _within(_imported(line), "numpy")]
        assert serving and numpy, output
        assert serving[0] < numpy[0]

    def test_no_import_moves_into_the_first_request(self, tmp_path):
        """Every job kind, run after the daemon's stack loader, loads
        no further repro, numpy or scipy module."""
        from repro.calibrate import synthesize_paper_trace
        trace = tmp_path / "paper.jsonl"
        synthesize_paper_trace(trace)
        result = _python("-c", """
import sys
import repro.serve.server
from repro.serve import load_stack
from repro.serve.jobs import JOB_KINDS, build_report, normalize_params
load_stack()
loaded = set(sys.modules)
for kind in JOB_KINDS:
    build_report(sys.argv[1], "0" * 64, kind, normalize_params(kind, {}))
print("\\n".join(sorted(set(sys.modules) - loaded)))
""", str(trace))
        assert result.returncode == 0, result.stderr
        late = set(result.stdout.split())
        for package in ("repro", "numpy", "scipy"):
            assert not _within(late, package), sorted(late)


def _imported(stderr: str) -> set:
    """Module names in a ``-X importtime`` report."""
    return {line.rsplit("|", 1)[-1].strip()
            for line in stderr.splitlines()
            if line.startswith("import time:")}


class TestAnalysisLoadsNoNumpyRandom:
    """k-means seeds from the standard library, so the analysis stage
    needs no ``numpy.random`` (its eight extension modules cost several
    MB of RSS in every ``analyze`` and daemon process).  NumPy 1.x
    imports ``numpy.random`` with ``numpy`` itself (2.x loads it on
    first attribute access), so there no process can avoid it."""

    @pytest.fixture(scope="class", autouse=True)
    def lazy_numpy_random(self):
        bare = _python("-c", "import sys, numpy; "
                             "print('numpy.random' in sys.modules)")
        assert bare.returncode == 0, bare.stderr
        if bare.stdout.strip() == "True":
            pytest.skip("this NumPy imports numpy.random with numpy")

    @pytest.fixture(scope="class")
    def paper_trace(self, tmp_path_factory):
        from repro.calibrate import synthesize_paper_trace
        trace = tmp_path_factory.mktemp("imports") / "paper.jsonl"
        synthesize_paper_trace(trace)
        return str(trace)

    @pytest.mark.parametrize("extra", [[], ["--jobs", "2"]])
    def test_cli_analyze(self, paper_trace, extra):
        result = _python("-X", "importtime", "-m", "repro", "analyze",
                         paper_trace, *extra)
        assert result.returncode == 0, result.stderr
        modules = _imported(result.stderr)
        assert "repro.core.clustering" in modules
        assert not _within(modules, "numpy.random"), \
            sorted(_within(modules, "numpy.random"))

    def test_daemon_and_every_job_kind(self, paper_trace):
        result = _python("-c", """
import sys
import repro.serve.server
from repro.serve.jobs import JOB_KINDS, build_report, normalize_params
for kind in JOB_KINDS:
    build_report(sys.argv[1], "0" * 64, kind, normalize_params(kind, {}))
print("\\n".join(sorted(sys.modules)))
""", paper_trace)
        assert result.returncode == 0, result.stderr
        modules = set(result.stdout.split())
        assert "repro.core.clustering" in modules
        assert not _within(modules, "numpy.random"), \
            sorted(_within(modules, "numpy.random"))
