"""Benchmark suite for the ``repro`` CLI and the ``repro serve`` daemon.

One command runs the workloads against the checked-out ``src/``,
prints every metric by name with its unit and sample count, and checks
every output::

    python benchmarks/suite/run.py [--workload NAME ...] [--seed N]
                                   [--seconds S] [--trace 0|1]
                                   [--record SET.jsonl]

Each workload (see ``workloads.py`` and the README) generates its
seeded traces, checks them and renders the local reference reports
(``inprocess.py``), and then measures rounds for ``--seconds``.  One
round runs the six CLI commands in turn, each after a bare daemon
start-up, and one daemon cycle (``daemon.py``), so machine drift hits
every command alike.

``--trace 0`` reports the end-to-end metrics declared in
``BENCHMARK.json``; ``--trace 1`` also makes the in-process traced
pass and reports the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record of a workload goes to ``BENCH_suite_<workload>.json`` in the
working directory (and its spans to ``BENCH_suite_trace_<workload>
.jsonl``).  Any wrong output, failed command or failed request makes
the run exit 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

from common import (ROOT, SRC, WINDOWS, Tally, declared, percentile,
                    repro_argv, run_command)

#: The CLI commands of every workload, with the per-layer metric each
#: one's wall clock feeds and the reference its stdout must equal.
COMMANDS: Tuple[Tuple[str, Tuple[str, ...], str], ...] = (
    ("cli.help_s", ("--help",), "help"),
    ("cli.analyze_s", ("analyze", "{trace}"), "analyze"),
    ("cli.analyze_stream_s", ("analyze", "{trace}", "--stream"), "analyze"),
    ("cli.analyze_jobs2_s", ("analyze", "{trace}", "--jobs", "2"),
     "analyze"),
    ("cli.temporal_s", ("temporal", "{trace}", "--windows", str(WINDOWS)),
     "temporal"),
    ("cli.temporal_stream_s",
     ("temporal", "{trace}", "--windows", str(WINDOWS), "--stream"),
     "temporal"),
)
#: Start-up probes timed in traced runs: a bare interpreter, and one
#: that only imports the package.
PROBES = (("interpreter", ("-c", "pass")), ("import", ("-c", "import repro")))
EAGER = ("cli.analyze_s", "cli.temporal_s")
STREAMED = ("cli.analyze_stream_s", "cli.analyze_jobs2_s",
            "cli.temporal_stream_s")

#: Share of ``--seconds`` a traced run gives the traced pass; the
#: rounds get the rest.
TRACED_PASS_SHARE = 1 / 3

#: The drift canary: fixed pure-Python and numpy work in a fresh
#: interpreter.  It normalizes nothing; a change in it between two
#: result files says the machine, not the code, changed.
REFERENCE_LOOP = (
    "import numpy as np\n"
    "total = 0\n"
    "for i in range(400000):\n"
    "    total += i * i % 7\n"
    "values = np.arange(2000000, dtype=float)\n"
    "for _ in range(20):\n"
    "    values = np.sqrt(values + 1.0)\n")


def git_head() -> Optional[str]:
    """The checkout's commit, when it is a git work tree."""
    try:
        answer = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return None
    return answer.stdout.strip() if answer.returncode == 0 else None


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Inputs and references
# ----------------------------------------------------------------------
def generate(name: str, seed: int, scratch: Path) -> List[dict]:
    """Write the workload's traces with ``workloads.py`` in its own
    process, so the traces it builds never raise this process's peak
    RSS, which every child inherits as a floor on its own."""
    finished = run_command(
        [sys.executable, str(Path(__file__).with_name("workloads.py")),
         "--workload", name, "--seed", str(seed),
         "--out", str(scratch / "inputs")], scratch)
    if finished.exit_code != 0:
        raise RuntimeError("input generation failed: "
                           + finished.stderr.decode(errors="replace"))
    return [json.loads(line) for line in finished.stdout.decode().split("\n")
            if line]


def in_process(name: str, inputs: List[dict], scratch: Path,
               trace_seconds: float, tally: Tally) -> dict:
    """Run ``inprocess.py``: check the inputs, render the references
    and, with ``trace_seconds``, make the traced pass."""
    from workloads import WORKLOADS

    spec = WORKLOADS[name]
    out = scratch / "inprocess.json"
    argv = [sys.executable, str(Path(__file__).with_name("inprocess.py")),
            "--inputs", str(scratch / "inputs"),
            "--names", *(record["path"] for record in inputs),
            "--cold", str(spec.cold_traces), "--events", str(spec.events),
            "--out", str(out)]
    if trace_seconds > 0:
        argv += ["--trace-seconds", str(trace_seconds),
                 "--spans", str(Path.cwd() / f"BENCH_suite_trace_{name}"
                                ".jsonl")]
    finished = run_command(argv, scratch, timeout=150.0)
    if finished.exit_code != 0:
        raise RuntimeError("in-process pass failed: "
                           + finished.stderr.decode(errors="replace"))
    result = json.loads(out.read_text())
    for record, entry in zip(inputs, result["inputs"]):
        tally.check(entry["events_ok"],
                    f"{record['path']}: read_any returned "
                    f"{entry['events_read']} events, {record['events']} "
                    "promised")
        record["analyze_sha256"] = sha256(entry["analyze_text"])
        if entry["temporal_text"] is not None:
            record["temporal_sha256"] = sha256(entry["temporal_text"])
    return result


def reference_loop_seconds(scratch: Path) -> float:
    return run_command([sys.executable, "-c", REFERENCE_LOOP],
                       scratch).wall_s


# ----------------------------------------------------------------------
# Measuring
# ----------------------------------------------------------------------
def time_start(scratch: Path, tally: Tally, starts: List[float]) -> None:
    """One bare daemon start-up on an empty store, into ``starts``."""
    import daemon

    start_dir = scratch / f"start-{len(starts)}"
    start_dir.mkdir()
    try:
        starts.append(daemon.time_start(start_dir))
        tally.check(True, "")
    except RuntimeError as error:
        tally.check(False, f"daemon start: {error}")
    shutil.rmtree(start_dir, ignore_errors=True)


def cli_pass(trace: Path, expected: Dict[str, str], scratch: Path,
             tally: Tally, samples: Dict[str, list], starts: List[float],
             traced: bool) -> None:
    """Run every CLI command once, checking exit code and stdout, and
    record (wall, peak RSS) per command.

    An untraced run starts the daemon bare before each command, which
    spreads the ``setup_s`` samples over the whole round, so their
    median follows the round's load, not one moment's.  A traced run
    reports no ``setup_s``; it times the start-up probes instead.
    """
    for metric, arguments, reference in COMMANDS:
        if not traced:
            time_start(scratch, tally, starts)
        argv = repro_argv(*(argument.format(trace=trace)
                            for argument in arguments))
        finished = run_command(argv, scratch)
        stdout = finished.stdout.decode("utf-8", errors="replace")
        if tally.check(
                finished.exit_code == 0 and stdout == expected[reference],
                f"{' '.join(arguments[:1] + arguments[2:])}: exit "
                f"{finished.exit_code}, stdout "
                f"{'matches' if stdout == expected[reference] else 'differs'}"
                f"; {finished.stderr.decode(errors='replace')[-300:]}"):
            samples.setdefault(metric, []).append(
                (finished.wall_s, finished.rss_mb))
    if traced:
        for name, arguments in PROBES:
            finished = run_command([sys.executable, *arguments], scratch)
            if tally.check(finished.exit_code == 0,
                           f"startup probe {name}: exit "
                           f"{finished.exit_code}"):
                samples.setdefault(name, []).append(
                    (finished.wall_s, finished.rss_mb))


def measure(name: str, traces: List, expected: Dict[str, str],
            scratch: Path, seconds: float, tally: Tally, traced: bool):
    """The timed part of a run: round-robin rounds (CLI commands, then
    one daemon cycle) while the next round would still end within
    ``seconds``.  At least one round runs."""
    import daemon
    from workloads import WORKLOADS

    spec = WORKLOADS[name]
    cold = traces[:spec.cold_traces]
    writes = traces[spec.cold_traces:]
    begun = time.perf_counter()
    starts: List[float] = []
    samples: Dict[str, list] = {}
    cycles: List = []
    rounds = 0
    last = 0.0
    while rounds == 0 or time.perf_counter() + last <= begun + seconds:
        started = time.perf_counter()
        cli_pass(traces[0].path, expected, scratch, tally, samples, starts,
                 traced)
        cycle_dir = scratch / f"cycle-{rounds}"
        cycle_dir.mkdir()
        try:
            cycle = daemon.run_cycle(cold, writes, spec.hits, cycle_dir,
                                     tally)
            cycles.append(cycle)
            starts.append(cycle.setup_s)
        except RuntimeError as error:
            tally.check(False, f"daemon cycle {rounds}: {error}")
        shutil.rmtree(cycle_dir, ignore_errors=True)
        rounds += 1
        last = time.perf_counter() - started
    return starts, samples, cycles, rounds


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _median(values: List[float]) -> float:
    return median(values) if values else float("nan")


def _walls(samples: Dict[str, list], metric: str) -> List[float]:
    return [wall for wall, _ in samples.get(metric, [])]


def end_to_end(starts: List[float], samples: Dict[str, list],
               cycles) -> Dict[str, tuple]:
    """Every end-to-end metric as (value, observations, samples).

    ``setup_s`` is the median daemon spawn-to-ready of the run.  A peak
    RSS is the larger of its commands' median peaks, or the daemon's
    median peak over the run's cycles.
    """
    metrics: Dict[str, tuple] = {"setup_s": (_median(starts), len(starts),
                                             starts)}
    for metric, commands in (("eager_rss_mb", EAGER),
                             ("stream_rss_mb", STREAMED)):
        peaks = [median([rss for _, rss in samples[command]])
                 for command in commands if samples.get(command)]
        metrics[metric] = (max(peaks) if peaks else float("nan"),
                           sum(len(samples.get(command, []))
                               for command in commands), peaks)
    daemon_peaks = [cycle.daemon_rss_mb for cycle in cycles]
    metrics["daemon_rss_mb"] = (_median(daemon_peaks), len(daemon_peaks),
                                daemon_peaks)
    return metrics


def _counter(cycles, name: str) -> Tuple[float, int]:
    values = [cycle.metrics["counters"].get(name, 0) for cycle in cycles
              if cycle.metrics]
    return _median(values), len(values)


def round_metrics(samples: Dict[str, list], cycles) -> Dict[str, tuple]:
    """The per-layer metrics the rounds give, as (value, sample count):
    the commands' walls, the daemon's request timings and its counters."""
    metrics: Dict[str, tuple] = {}
    for metric, _, _ in COMMANDS:
        walls = _walls(samples, metric)
        metrics[metric] = (_median(walls), len(walls))
    for attribute in ("ingest_s", "cold_analyze_s", "cold_temporal_s",
                      "mixed_write_s"):
        values = [v for cycle in cycles for v in getattr(cycle, attribute)]
        metrics[f"serve.{attribute}"] = (_median(values), len(values))
    hits = [1e3 * latency for cycle in cycles for latency in cycle.hit_s]
    for q in (50, 90, 99):
        metrics[f"serve.hit_p{q}_ms"] = (
            percentile(hits, q) if hits else float("nan"), len(hits))
    mixed_hits = sum(cycle.mixed_hits for cycle in cycles)
    mixed_wall = sum(cycle.mixed_wall_s for cycle in cycles)
    metrics["serve.mixed_hit_rps"] = (
        mixed_hits / mixed_wall if mixed_wall else float("nan"), mixed_hits)
    requested = [cycle.metrics["counters"].get("reports_requested", 0)
                 for cycle in cycles if cycle.metrics]
    hit_counts = [cycle.metrics["counters"].get("report_cache_hits", 0)
                  for cycle in cycles if cycle.metrics]
    metrics["cache.hit_ratio"] = (
        sum(hit_counts) / sum(requested) if sum(requested) else float("nan"),
        sum(requested))
    metrics["serve.requests"] = _counter(cycles, "requests_total")
    metrics["serve.jobs_computed"] = _counter(cycles, "jobs_computed")
    metrics["serve.cache_hits"] = _counter(cycles, "report_cache_hits")
    metrics["serve.cache_misses"] = _counter(cycles, "report_cache_misses")
    return metrics


def per_layer(samples: Dict[str, list], cycles,
              traced_pass: dict) -> Dict[str, tuple]:
    """Every per-layer metric as (value, sample count)."""
    metrics = round_metrics(samples, cycles)
    interpreter = _walls(samples, "interpreter")
    imported = _walls(samples, "import")
    helped = _walls(samples, "cli.help_s")
    metrics["startup.interpreter_s"] = (_median(interpreter),
                                        len(interpreter))
    metrics["startup.import_s"] = (_median(imported) - _median(interpreter),
                                   len(imported))
    metrics["startup.parser_s"] = (_median(helped) - _median(imported),
                                   len(helped))

    selfs = traced_pass["self_times"]
    reps = traced_pass["reps"]

    def per_op(span_name: str, reduce) -> List[float]:
        values = selfs[span_name]
        size = len(values) // reps
        return [reduce(values[i * size:(i + 1) * size]) for i in range(reps)]

    for name in ("decode.eager", "decode.stream", "accumulate.profile",
                 "accumulate.online", "shards.plan", "shards.merge",
                 "window.eager", "window.stream", "analysis.analyze",
                 "analysis.temporal", "render.analyze", "store.ingest",
                 "jobs.build_analyze", "jobs.build_temporal",
                 "jobs.fetch_hit", "cache.get", "cache.put"):
        metrics[f"{name}_s"] = (median(selfs[name]), len(selfs[name]))
    map_max = per_op("shards.map", max)
    metrics["shards.map_s"] = (median(map_max), reps)
    pool = [total - plan - mapped - merge for total, plan, mapped, merge
            in zip(selfs["shards.pool"], selfs["shards.plan"], map_max,
                   selfs["shards.merge"])]
    metrics["shards.pool_s"] = (median(pool), reps)
    render_temporal = [total - analysis for total, analysis
                       in zip(selfs["render.temporal"],
                              selfs["analysis.temporal"])]
    metrics["render.temporal_s"] = (median(render_temporal), reps)

    counts = traced_pass["counts"]
    for name in ("decode.events", "decode.bytes", "decode.chunks",
                 "accumulate.cells", "window.cells", "render.bytes",
                 "store.bytes"):
        metrics[name] = (counts[name], reps)
    metrics["decode.events_per_s"] = (
        counts["decode.events"] / metrics["decode.eager_s"][0], reps)
    metrics["accumulate.events_per_s"] = (
        counts["decode.events"] / metrics["accumulate.profile_s"][0], reps)
    metrics["window.bytes_computed"] = (8 * counts["window.cells"], reps)
    hit_p50, hits = metrics["serve.hit_p50_ms"]
    metrics["http.hit_overhead_ms"] = (
        hit_p50 - metrics["jobs.fetch_hit_s"][0] * 1e3, hits)

    startup = metrics["cli.help_s"][0]
    for command, layers in (
            ("analyze", ("decode.eager_s", "accumulate.profile_s",
                         "analysis.analyze_s", "render.analyze_s")),
            ("temporal", ("decode.eager_s", "window.eager_s",
                          "analysis.temporal_s", "render.temporal_s"))):
        wall, count = metrics[f"cli.{command}_s"]
        metrics[f"reconcile.{command}_unaccounted_s"] = (
            wall - startup - sum(metrics[layer][0] for layer in layers),
            count)
    metrics["trace.overhead_s"] = (traced_pass["overhead_s"], reps)
    return metrics


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, traced_run: bool,
                 declaration: dict) -> dict:
    import daemon

    scratch = ROOT / ".bench_suite" / f"{name}-{seed}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    tally = Tally()
    share = TRACED_PASS_SHARE if traced_run else 0.0
    phases: Dict[str, float] = {}
    clock = time.perf_counter()

    def phase(label: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        phases[label] = now - clock
        clock = now

    try:
        inputs = generate(name, seed, scratch)
        phase("inputs")
        helper = in_process(name, inputs, scratch, share * seconds, tally)
        phase("in_process")
        traces = [daemon.Trace(scratch / "inputs" / entry["path"],
                               entry["analyze_text"], entry["temporal_text"])
                  for entry in helper["inputs"]]
        reference_s = reference_loop_seconds(scratch)
        # Untimed warm-up of the page cache and __pycache__; it also
        # fixes the --help text every later --help must reproduce.
        warm_up = run_command(repro_argv("--help"), scratch)
        tally.check(warm_up.exit_code == 0,
                    f"--help warm-up: exit {warm_up.exit_code}")
        expected = {"help": warm_up.stdout.decode("utf-8", errors="replace"),
                    "analyze": traces[0].analyze_text,
                    "temporal": traces[0].temporal_text}
        phase("warm_up")
        starts, samples, cycles, rounds = measure(
            name, traces, expected, scratch, (1.0 - share) * seconds, tally,
            traced=traced_run)
        phase("measure")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass        # another run's scratch is still there

    e2e = end_to_end(starts, samples, cycles)
    layers = None
    if traced_run:
        texts = helper["traced"]["counts"]["texts"]
        for kind, text in (("analyze", expected["analyze"]),
                           ("fetch_hit", expected["analyze"]),
                           ("temporal", expected["temporal"])):
            tally.check(texts[kind] == text,
                        f"traced pass: {kind} text differs from the "
                        "local report")
        layers = per_layer(samples, cycles, helper["traced"])
    units = {section: {metric["name"]: metric["unit"]
                       for metric in declaration[section]}
             for section in ("end_to_end", "per_layer")}
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "traced": traced_run, "rounds": rounds, "phases_s": phases,
        "repro_file": helper["repro_file"], "git_head": git_head(),
        "python": platform.python_version(),
        "machine": {"ref_s": reference_s, "platform": platform.platform(),
                    "generator_rss_mb": resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss / 1024.0},
        "inputs": inputs,
        "end_to_end": {key: {"value": e2e[key][0], "unit": unit,
                             "n": e2e[key][1], "samples": e2e[key][2]}
                       for key, unit in units["end_to_end"].items()},
        "per_layer": None if layers is None else {
            key: {"value": layers[key][0], "unit": unit,
                  "n": layers[key][1]}
            for key, unit in units["per_layer"].items()},
        "command_walls_s": {metric: _walls(samples, metric)
                            for metric, _, _ in COMMANDS},
        "span_file": f"BENCH_suite_trace_{name}.jsonl" if traced_run
        else None,
        "attempted": tally.attempted, "failed": tally.failed,
        "error_rate": tally.failed / max(tally.attempted, 1),
        "errors": tally.errors,
    }


def print_result(result: dict) -> None:
    name = result["workload"]
    print(f"[{name}] seed {result['seed']}, {result['rounds']} rounds in "
          f"{result['phases_s']['measure']:.1f} s, machine.ref_s "
          f"{result['machine']['ref_s']:.4f} s, error_rate "
          f"{result['error_rate']:.4g} ({result['failed']}/"
          f"{result['attempted']})")
    for section in ("end_to_end", "per_layer"):
        for metric, entry in (result[section] or {}).items():
            print(f"[{name}] {metric:34s} {entry['value']:14.6g} "
                  f"{entry['unit']:8s} n={entry['n']}")
    for error in result["errors"]:
        print(f"[{name}] FAILED: {error}")


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(
        description="benchmark the repro CLI and daemon")
    parser.add_argument("--workload", nargs="+",
                        choices=sorted(workloads.WORKLOADS),
                        help="workloads to run (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: make the traced pass and report the "
                             "per-layer metrics instead of the end-to-end "
                             "ones")
    parser.add_argument("--record", type=Path, metavar="SET",
                        help="also append each workload's record as one "
                             "JSON line to SET (the input of compare.py)")
    arguments = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    declaration = declared()
    seconds = arguments.seconds or float(declaration["run_seconds"])
    traced_run = bool(arguments.trace)
    names = arguments.workload or list(workloads.WORKLOADS)

    results = []
    for name in names:
        result = run_workload(name, arguments.seed, seconds, traced_run,
                              declaration)
        Path(f"BENCH_suite_{name}.json").write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n")
        if arguments.record:
            with open(arguments.record, "a", encoding="utf-8") as stream:
                stream.write(json.dumps(result, sort_keys=True) + "\n")
        print_result(result)
        results.append(result)

    section = "per_layer" if traced_run else "end_to_end"
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        for metric, entry in result[section].items():
            value = entry["value"]
            metrics[prefix + metric] = {
                "value": value if math.isfinite(value) else None,
                "unit": entry["unit"]}
    failed = sum(result["failed"] for result in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
