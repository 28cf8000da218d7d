"""One declaration of the report parameters, one outcome everywhere.

Parameter sets are drawn from :data:`repro.reports.PARAMS`: every report
kind, every registered index of dispersion and names that are not one,
and window counts on both sides of the declared bounds.  For each set,
``repro analyze``/``temporal`` and the daemon's job agree: in range, the
command prints the job's ``text``; out of range, the command exits 2
and ``normalize_params`` raises, with the same message but for how each
spells the parameter (``--windows`` against ``windows``).

The service settings are drawn from :data:`repro.reports.SETTINGS` the
same way: every value the declaration refuses makes each constructor
taking that setting raise one message, and ``repro serve``/``submit``/
``fetch`` exit 2 with that message under the flag's spelling.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.dispersion import available_indices
from repro.errors import ReproError
from repro.reports import PARAMS, REPORT_KINDS, SETTINGS
from repro.serve import jobs

WINDOWS = PARAMS["windows"]

indices = st.sampled_from(available_indices()) | st.text(max_size=6).filter(
    lambda name: name not in available_indices())


@pytest.fixture(scope="module")
def paper_trace(tmp_path_factory):
    from repro.calibrate import synthesize_paper_trace
    path = tmp_path_factory.mktemp("parity") / "paper.jsonl"
    synthesize_paper_trace(path)
    return str(path)


def run_cli(argv):
    """``(exit code, stdout, stderr)`` of one ``main()`` call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(REPORT_KINDS), index=indices,
       windows=st.integers(WINDOWS.low - 3, 48))
@example(kind="temporal", index="euclidean", windows=WINDOWS.served_high)
@example(kind="temporal", index="euclidean",
         windows=WINDOWS.served_high + 1)
@example(kind="temporal", index="nope", windows=WINDOWS.served_high + 1)
def test_cli_and_daemon_take_and_refuse_alike(paper_trace, kind, index,
                                              windows):
    params = {"index": index}
    argv = ["temporal" if kind == "temporal" else "analyze", paper_trace,
            f"--index={index}"]
    if kind == "temporal":
        params["windows"] = windows
        argv.append(f"--windows={windows}")
    elif kind != "analyze":
        argv.append(f"--{kind}")
    code, out, err = run_cli(argv)
    try:
        normalized = jobs.normalize_params(kind, params)
    except ReproError as refusal:
        message = str(refusal)
        if kind == "temporal" and windows > WINDOWS.served_high:
            # The one served-only bound: a local run may ask for more.
            assert message == f"windows must be at most {WINDOWS.served_high}"
            assert code == (0 if index in available_indices() else 2)
            return
        assert (code, out) == (2, "")
        assert err in (f"error: {message}\n", f"error: --{message}\n")
        return
    payload = jobs.build_report(paper_trace, "0" * 64, kind, normalized)
    assert (code, err) == (0, "")
    assert out == payload["text"]


# ----------------------------------------------------------------------
# Service settings: one declaration, one refusal from CLI and library
# ----------------------------------------------------------------------
def refused_values(setting):
    """Values the declaration of ``setting`` refuses: a wrong type, a
    non-finite float, each side of every bound, and ``None`` where it
    neither is the default nor lifts a limit."""
    values = [True, "x"] if setting.type is not str else [5]
    if setting.type is float:
        values += [float("nan"), float("inf")]
    if setting.low is not None:
        values.append(setting.low if setting.open else setting.low - 1)
        values.append(setting.low - 4)
    if setting.high is not None:
        values.append(setting.high + 1)
    if setting.default is not None and setting.role != "limit":
        values.append(None)
    return values


def constructors(tmp_path):
    """Each constructor taking service settings, by the setting name of
    each keyword it takes: ``(build(value), spelling)``."""
    from repro.cache import ReportCache
    from repro.serve import AnalysisServer, JobRunner, ServeClient, TraceStore

    def keyword(factory, name):
        return lambda value: factory(**{name: value})

    def server(**kwargs):
        return AnalysisServer(tmp_path / "server", **kwargs)

    def runner(**kwargs):
        return JobRunner(TraceStore(tmp_path / "runner"),
                         ReportCache(tmp_path / "runner-cache"), **kwargs)

    built = {name: [(keyword(server, name), name)] for name in (
        "host", "port", "workers", "max_body_bytes", "max_queue",
        "max_cache_bytes", "max_store_bytes", "max_wait_seconds",
        "request_timeout")}
    for name in ("workers", "max_queue"):
        built[name].append((keyword(runner, name), name))
    built["max_store_bytes"].append(
        (lambda value: TraceStore(tmp_path / "store", max_bytes=value),
         "max_bytes"))
    built["max_cache_bytes"].append(
        (lambda value: ReportCache(tmp_path / "cache", max_bytes=value),
         "max_bytes"))
    for name in ("url", "retries", "retry_max_wait", "retry_base_wait",
                 "timeout"):
        built[name] = [(keyword(ServeClient, name), name)]
    return built


SETTING_CASES = [(name, value) for name, setting in SETTINGS.items()
                 for value in refused_values(setting)]


def test_the_known_drifts_are_covered():
    """Each value the constructors once clamped, crashed on or took."""
    for case in [("workers", 0), ("workers", -3), ("max_cache_bytes", 0),
                 ("max_store_bytes", 0), ("port", 65536),
                 ("max_queue", 0), ("max_body_bytes", 0)]:
        assert case in SETTING_CASES, case
    for name in ("request_timeout", "max_wait_seconds", "retry_max_wait",
                 "timeout"):
        assert any(case == name and value != value
                   for case, value in SETTING_CASES), name


@pytest.mark.parametrize("name, value", SETTING_CASES,
                         ids=[f"{name}={value!r}"
                              for name, value in SETTING_CASES])
def test_constructors_and_cli_refuse_alike(tmp_path, paper_trace, name,
                                           value):
    messages = set()
    for build, spelling in constructors(tmp_path)[name]:
        with pytest.raises(ReproError) as refusal:
            build(value)
        message = str(refusal.value)
        assert message.startswith(f"{spelling} must ")
        messages.add(message[len(spelling):])
    assert len(messages) == 1, messages
    setting = SETTINGS[name]
    typed = (int, float) if setting.type is float else setting.type
    if not setting.verbs or isinstance(value, bool) \
            or not isinstance(value, typed):
        return                 # no command line parses to this value
    flag = "--" + name.replace("_", "-")
    argv = ["serve", f"{flag}={value}", "--store", str(tmp_path / "cli")]
    if setting.verbs != ("serve",):
        argv = [setting.verbs[0], paper_trace, f"{flag}={value}"]
    code, out, err = run_cli(argv)
    assert (code, out, err) == (2, "", f"error: {flag}{messages.pop()}\n")


@pytest.mark.parametrize("name, value, message", [
    ("workers", 0, "workers must be at least 1"),
    ("port", 70000, "port must be at most 65535"),
    ("request_timeout", float("nan"), "request_timeout must be a finite "
                                      "number"),
    ("request_timeout", 0, "request_timeout must be greater than 0"),
    ("max_cache_bytes", 0, "max_cache_bytes must be at least 1"),
    ("retries", -1, "retries must be at least 0"),
    ("timeout", float("nan"), "timeout must be a finite number"),
    ("timeout", -1, "timeout must be greater than 0"),
])
def test_refusals_read_as_declared(tmp_path, name, value, message):
    build, _ = constructors(tmp_path)[name][0]
    with pytest.raises(ReproError, match=f"^{message}$"):
        build(value)


def test_limits_lift_with_none_in_the_library(tmp_path):
    from repro.serve import AnalysisServer
    with AnalysisServer(tmp_path / "store", port=0, max_queue=None,
                        request_timeout=None) as daemon:
        assert daemon.runner.max_queue is None
        assert daemon.request_timeout is None


def test_service_defaults_are_the_declared_ones():
    """The library's defaults, the CLI's and the exported constants
    are the declaration's."""
    import inspect

    from repro.cli import _build_parser
    from repro.serve import (DEFAULT_MAX_BODY_BYTES, DEFAULT_MAX_QUEUE,
                             DEFAULT_REQUEST_TIMEOUT, DEFAULT_RETRIES,
                             DEFAULT_RETRY_MAX_WAIT, DEFAULT_URL,
                             MAX_WAIT_SECONDS, AnalysisServer, ServeClient)
    assert (DEFAULT_MAX_BODY_BYTES, DEFAULT_MAX_QUEUE,
            DEFAULT_REQUEST_TIMEOUT, MAX_WAIT_SECONDS, DEFAULT_URL,
            DEFAULT_RETRIES, DEFAULT_RETRY_MAX_WAIT) == tuple(
        SETTINGS[name].default for name in (
            "max_body_bytes", "max_queue", "request_timeout",
            "max_wait_seconds", "url", "retries", "retry_max_wait"))
    for factory in (AnalysisServer, ServeClient):
        for name, parameter in inspect.signature(factory).parameters.items():
            if name in SETTINGS and name != "port":   # the library binds 0
                assert parameter.default == SETTINGS[name].default, name
    parser = _build_parser()
    for verb in ("serve", "submit", "fetch"):
        arguments = parser.parse_args(
            [verb] + (["trace"] if verb != "serve" else []))
        for name, setting in SETTINGS.items():
            if verb in setting.verbs:
                assert getattr(arguments, name) == setting.default, name
