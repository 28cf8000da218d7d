"""Tests for the Chrome-trace export, activity what-if and the
processor-view renderer."""

import json

import pytest

from repro.core import (analyze, balance_activity_predictions,
                        render_processor_view_table, report_to_dict)
from repro.errors import MeasurementError, TraceError
from repro.instrument import Tracer, export_chrome_trace


class TestChromeExport:
    def make_tracer(self):
        tracer = Tracer()
        tracer.record(0, "r", "computation", 0.0, 1.0)
        tracer.record(1, "r", "point-to-point", 0.5, 1.5, kind="send",
                      nbytes=64, partner=0)
        return tracer

    def test_structure(self, tmp_path):
        path = tmp_path / "trace.json"
        count = export_chrome_trace(path, self.make_tracer())
        assert count == 2
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(metadata) == 2            # one per rank
        assert len(complete) == 2
        first = complete[0]
        assert first["name"] == "r: computation"
        assert first["ts"] == 0.0
        assert first["dur"] == pytest.approx(1e6)

    def test_gzip_variant(self, tmp_path):
        import gzip
        path = tmp_path / "trace.json.gz"
        export_chrome_trace(path, self.make_tracer())
        with gzip.open(path, "rt") as stream:
            payload = json.load(stream)
        assert payload["traceEvents"]

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(TraceError):
            export_chrome_trace(tmp_path / "t.json", Tracer())

    def test_cfd_trace_exports(self, tmp_path, cfd_run):
        _, tracer, _ = cfd_run
        path = tmp_path / "cfd.json"
        assert export_chrome_trace(path, tracer) == len(tracer)
        payload = json.loads(path.read_text())
        assert len(payload["traceEvents"]) == len(tracer) + 16


class TestActivityWhatIf:
    def test_paper_activity_payoffs(self, paper_measurements):
        predictions = balance_activity_predictions(paper_measurements)
        names = [prediction.region for prediction in predictions]
        assert set(names) == set(paper_measurements.activities)
        # Computation carries the most absolute imbalance time.
        assert predictions[0].region == "computation"
        assert all(prediction.saving >= 0.0
                   for prediction in predictions)

    def test_consistency_with_region_axis(self, paper_measurements):
        from repro.core import balance_everything
        activity_total = sum(
            prediction.saving for prediction in
            balance_activity_predictions(paper_measurements))
        assert activity_total == pytest.approx(
            balance_everything(paper_measurements).saving)


class TestProcessorViewTable:
    def test_paper_table(self, paper_measurements):
        text = render_processor_view_table(
            report_to_dict(analyze(paper_measurements)))
        assert "Processor view" in text
        loop1 = [line for line in text.splitlines()
                 if line.startswith("loop 1")][0]
        assert "processor 2" in loop1
        assert "0.25754" in loop1
        assert "15.93" in loop1
