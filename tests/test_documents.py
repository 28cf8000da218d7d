"""The document is the report.

Every report kind builds one strict-JSON document per parameter set
(``repro.reports.build_report``), and its text is ``render(document)``,
a function of the document alone:

* the three golden files are rendered from the document after a strict
  JSON round trip, so the text can depend on nothing else;
* the CLI prints ``render(document)`` for every kind over parameter
  sets drawn from ``reports.PARAMS``, whatever the document's key order;
* the ``diagnose`` and ``whatif`` documents hold the findings and
  predictions their text prints;
* nan, +inf, -inf and -0.0 survive the round trip as distinct values,
  and every payload the daemon sends parses under a parser that
  refuses ``NaN`` and ``Infinity``.
"""

import http.client
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core import analyze, report_to_dict
from repro.core.temporal import RegionTrend, TemporalAnalysis
from repro.instrument import Tracer, read_trace, write_trace, write_tracer
from repro.reports import (PARAMS, REPORT_KINDS, build_report, param_names,
                           render, temporal_document)
from repro.sweep import render_sweep_table, sweep_traces
from tests.test_golden_sweep import write_fleet

DOCS = Path(__file__).resolve().parent.parent / "docs"


def refuse_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


def strict_round_trip(document, **options):
    """``document`` as a strict JSON client reads it back."""
    return json.loads(json.dumps(document, allow_nan=False, **options),
                      parse_constant=refuse_constant)


@pytest.fixture(scope="module")
def paper_trace(tmp_path_factory):
    from repro.calibrate import synthesize_paper_trace
    path = tmp_path_factory.mktemp("paper") / "paper.jsonl"
    synthesize_paper_trace(path)
    return str(path)


@pytest.fixture(scope="module")
def sparse_trace(paper_trace, tmp_path_factory):
    """The paper trace without rank 5: ``drop_missing_ranks`` drops it."""
    path = tmp_path_factory.mktemp("sparse") / "sparse.jsonl"
    write_trace(path, [event for event in read_trace(paper_trace)
                       if event.rank != 5])
    return str(path)


@pytest.fixture()
def gaps_trace(tmp_path):
    """Two regions, each idle in some of 4 windows: nan series cells."""
    tracer = Tracer()
    tracer.record(0, "early", "computation", 0.0, 1.0)
    tracer.record(1, "early", "computation", 0.0, 2.0)
    tracer.record(0, "late", "computation", 3.0, 4.0)
    tracer.record(1, "late", "computation", 3.0, 4.5)
    path = tmp_path / "gaps.jsonl"
    write_tracer(path, tracer)
    return path


class TestGoldensFromTheDocument:
    def test_paper_report(self, paper_measurements, paper_trace):
        golden = (DOCS / "paper_report.txt").read_text()
        for document in (report_to_dict(analyze(paper_measurements)),
                         build_report("analyze", paper_trace, {})):
            assert render(strict_round_trip(document)) + "\n" == golden

    def test_temporal_report(self, tmp_path, capsys):
        trace = str(tmp_path / "cfd.jsonl")
        assert main(["cfd", "--trace", trace]) == 0
        capsys.readouterr()
        document = build_report("temporal", trace, {
            "windows": 8, "phases": True, "forecast": 0.5, "heatmap": True})
        assert render(strict_round_trip(document)) + "\n" \
            == (DOCS / "temporal_report.txt").read_text()

    def test_sweep_table(self, tmp_path, capsys):
        fleet = write_fleet(tmp_path, capsys)
        tables = []
        for index in ("euclidean", "cv"):
            results = sweep_traces(fleet, {"windows": 8, "index": index},
                                   use_cache=False)
            tables.append(render_sweep_table([result._replace(
                document=strict_round_trip(result.document)
                if result.document is not None else None)
                for result in results]) + "\n")
        assert "\n".join(tables) == (DOCS / "sweep_report.txt").read_text()


def sample(name: str, regions):
    """A value other than the default for parameter ``name``, drawn
    from its declaration."""
    param = PARAMS[name]
    if param.type is bool:
        return True
    if param.type is int:
        return int(param.low or 0) + 3
    if param.type is float:
        return 0.5
    return regions[0] if name == "lorenz" else "cv"


def parameter_sets(kind: str, regions):
    """Each declared parameter alone at a non-default value, none, and
    all together; the CLI-only trace sections are left out."""
    names = [name for name in param_names(kind, "result", "section")
             if name not in ("timeline", "export_chrome")]
    singles = [{name: sample(name, regions)} for name in names]
    return [{}] + singles + [{key: value for single in singles
                              for key, value in single.items()}]


def argv_of(kind: str, trace: str, params) -> list:
    verb = "temporal" if kind == "temporal" else "analyze"
    argv = [verb, trace] + ([f"--{kind}"] if kind not in (
        "analyze", "temporal") else [])
    for name, value in params.items():
        argv.append("--" + name.replace("_", "-"))
        if value is not True:
            argv.append(str(value))
    return argv


class TestCliPrintsTheDocument:
    @pytest.mark.parametrize("kind", REPORT_KINDS)
    def test_stdout_is_render_of_the_document(self, kind, sparse_trace,
                                              capsys):
        regions = build_report("analyze", sparse_trace, {})["program"][
            "regions"]
        for params in parameter_sets(kind, regions):
            assert main(argv_of(kind, sparse_trace, params)) == 0, params
            stdout = capsys.readouterr().out
            document = build_report(kind, sparse_trace, params)
            assert stdout == render(document) + "\n", params
            # The text reads the document's order lists, not its key
            # order: a client that sorts the keys renders the same.
            assert render(strict_round_trip(document, sort_keys=True)) \
                + "\n" == stdout, params

    def test_every_section_is_in_the_document(self, sparse_trace):
        document = build_report("analyze", sparse_trace, {
            "patterns": True, "lorenz": "loop 1", "diagnose": True,
            "heatmap": True, "whatif": True, "significance": 0.05,
            "drop_missing_ranks": True})
        assert {"dropped_ranks", "patterns", "lorenz", "diagnosis",
                "heatmap", "whatif", "significance"} <= set(document)
        assert document["dropped_ranks"] == [5]
        text = render(document)
        test = document["significance"]
        assert f"{test['threshold']:.5f}; {test['count']} (region" in text


class TestKindsHoldTheirSections:
    def test_diagnose_and_whatif_documents(self, paper_trace):
        plain = build_report("analyze", paper_trace, {})
        diagnosed = build_report("diagnose", paper_trace, {})
        balanced = build_report("whatif", paper_trace, {})
        assert diagnosed != plain and balanced != plain
        assert not {"diagnosis", "whatif"} & set(plain)
        text = render(diagnosed)
        assert diagnosed["diagnosis"]
        for finding in diagnosed["diagnosis"]:
            assert (f"[{finding['severity']:6s}] {finding['kind']} "
                    f"@ {finding['where']}") in text
            assert finding["explanation"] in text
        text = render(balanced)
        assert [entry["region"] for entry in balanced["whatif"]] \
            and len(balanced["whatif"]) == len(plain["program"]["regions"])
        for entry in balanced["whatif"]:
            assert (f"{entry['region']}  " in text
                    and f"{entry['saving']:.4g}" in text
                    and f"{entry['speedup']:.3f}x" in text)


class TestNonFiniteNumbers:
    VALUES = (float("nan"), float("inf"), float("-inf"), -0.0, 2.5)

    def check(self, cells):
        nan, inf, minus_inf, minus_zero, finite = map(float, cells)
        assert math.isnan(nan)
        assert inf == float("inf") and minus_inf == float("-inf")
        assert minus_zero == 0.0 and math.copysign(1.0, minus_zero) == -1.0
        assert finite == 2.5

    def test_trend_series_and_amplification(self):
        analysis = TemporalAnalysis(trends=(
            RegionTrend(region="mixed", series=self.VALUES, slope=0.5,
                        mean=1.0),
            RegionTrend(region="rising", series=(0.0, 0.0, 0.0, 0.0, 5.0),
                        slope=1.5, mean=3.0)),
            n_windows=5, begin=0.0, end=5.0)
        document = strict_round_trip(
            temporal_document(analysis, 10, 5.0))
        self.check(document["trends"]["mixed"]["series"])
        assert document["trends"]["rising"]["amplification"] == "Infinity"
        assert float(document["trends"]["rising"]["amplification"]) \
            == float("inf")

    def test_dispersion_cell(self, paper_measurements):
        result = analyze(paper_measurements)
        dispersion = np.array(result.activity_view.dispersion)
        dispersion[0, :] = self.VALUES[:4]
        dispersion[1, 0] = self.VALUES[4]
        document = strict_round_trip(report_to_dict(replace(
            result, activity_view=replace(result.activity_view,
                                          dispersion=dispersion))))
        first, second = paper_measurements.regions[:2]
        activities = paper_measurements.activities
        self.check([document["dispersion"][first][activity]
                    for activity in activities[:4]]
                   + [document["dispersion"][second][activities[0]]])


class TestStrictJsonOnTheWire:
    def test_every_payload_parses_strictly(self, gaps_trace, tmp_path):
        from repro.serve import AnalysisServer, ServeClient
        with AnalysisServer(tmp_path / "store", port=0) as daemon:
            sha = ServeClient(daemon.url).submit(gaps_trace)["sha256"]
            host, port = daemon.url.split("//")[1].split(":")
            for kind in REPORT_KINDS:
                connection = http.client.HTTPConnection(host, int(port))
                connection.request("POST", "/reports", json.dumps({
                    "trace": sha, "kind": kind,
                    "params": {"windows": 4} if kind == "temporal"
                    else {}}), {"Content-Type": "application/json"})
                response = connection.getresponse()
                body = response.read().decode("utf-8")
                connection.close()
                assert response.status == 200, body
                payload = json.loads(body, parse_constant=refuse_constant)
                assert payload["text"] == render(payload["report"]) + "\n"
        series = payload["report"]["trends"]["late"]["series"]
        assert series[0] == "NaN" and math.isnan(float(series[0]))

    def test_non_finite_escape_is_an_uncached_error(self, tmp_path,
                                                    gaps_trace,
                                                    monkeypatch):
        from repro.cache import ReportCache
        from repro.serve import JobRunner, TraceStore, jobs
        store = TraceStore(tmp_path / "store")
        meta, _ = store.add_file(gaps_trace)
        runner = JobRunner(store, ReportCache(tmp_path / "cache"),
                           workers=1)
        calls = []

        def leaky(trace_path, sha, kind, params):
            calls.append(kind)
            return {"status": "ok", "report": {"value": float("nan")}}

        monkeypatch.setattr(jobs, "build_report", leaky)
        try:
            for _ in range(2):
                payload = runner.fetch(meta.sha256, "analyze", {})
                assert payload["status"] == "error"
                assert "not strict JSON" in payload["error"]
        finally:
            runner.shutdown()
        assert calls == ["analyze", "analyze"]
