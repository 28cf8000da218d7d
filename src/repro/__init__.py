"""repro — reproduction of "Load Imbalance in Parallel Programs"
(Calzarossa, Massari, Tessera; PACT 2003).

The package implements the paper's dissimilarity-analysis methodology
(:mod:`repro.core`) together with every substrate its evaluation needs:
a discrete-event MPI simulator (:mod:`repro.simmpi`), tracing and
profiling (:mod:`repro.instrument`), the CFD and synthetic workloads
(:mod:`repro.apps`), the calibrated reconstruction of the paper's
dataset (:mod:`repro.calibrate`), classic baselines
(:mod:`repro.baselines`), text rendering (:mod:`repro.viz`), the
fault-injection validation subsystem (:mod:`repro.faults`), the
analysis daemon (:mod:`repro.serve`) and self-observability
(:mod:`repro.obs`).

Subpackages and the names below load on first access (PEP 562), so a
command pays only for the modules it runs.

Quickstart::

    from repro import analyze, run_cfd, render_full_report

    result, tracer, measurements = run_cfd()
    print(render_full_report(analyze(measurements)))
"""

__version__ = "1.0.0"

from ._lazy import exported_names, lazy_namespace

_SUBPACKAGES = ("apps", "baselines", "calibrate", "core", "faults",
                "instrument", "obs", "serve", "simmpi", "viz")

_EXPORTS = {
    "apps": ("CFDConfig", "SyntheticWorkload", "run_cfd"),
    "calibrate": ("reconstruct",),
    "core": ("AnalysisResult", "MeasurementSet", "Methodology", "analyze",
             "render_full_report"),
    "errors": ("ReproError",),
    "testbed": ("Testbed", "TestbedEntry"),
    "instrument": ("Tracer", "profile", "read_trace", "write_trace"),
    "simmpi": ("NetworkModel", "Simulator"),
}

__getattr__, __dir__ = lazy_namespace(__name__, _EXPORTS)

__all__ = [*_SUBPACKAGES, *exported_names(_EXPORTS), "__version__"]
