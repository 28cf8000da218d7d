"""Prometheus text exposition of the service metrics snapshot.

:func:`render_prometheus` turns the JSON document served by the
daemon's ``/metrics`` endpoint (a
:meth:`~repro.serve.metrics.ServiceMetrics.snapshot` plus the server's
cache/store/limits extras) into the Prometheus text exposition format
(version 0.0.4), so a stock Prometheus scrapes the daemon with::

    scrape_configs:
      - job_name: repro
        metrics_path: /metrics
        # the daemon content-negotiates: text/plain -> this format
        static_configs:
          - targets: ["HOST:PORT"]   # as `repro serve` binds them

Mapping rules (stdlib only, no client library):

* counters become ``repro_<name>_total`` (``# TYPE`` counter) — their
  values are cumulative since process start, so they are monotonic
  across scrapes as Prometheus requires;
* gauges (including flattened ``cache``/``store``/``limits`` extras
  and booleans as 0/1) become ``repro_<name>`` gauges; ``None`` values
  (e.g. an unset size cap) are omitted rather than faked as 0;
* each latency family becomes one ``repro_latency_seconds`` summary
  with a ``family`` label: ``quantile="0.5"`` / ``quantile="0.99"``
  samples over the recent reservoir, plus cumulative ``_sum`` and
  ``_count`` children;
* metric names are sanitized to ``[a-zA-Z_:][a-zA-Z0-9_:]*`` and label
  values escaped per the exposition grammar (backslash, quote,
  newline).
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Tuple

#: Prefix of every exported metric name.
NAMESPACE = "repro"

#: The content type a scrape in text format is answered with.
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_NAME_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def metric_name(*parts: str) -> str:
    """A valid Prometheus metric name from free-form name parts."""
    joined = "_".join(part for part in parts if part)
    cleaned = _NAME_BAD_CHARS.sub("_", joined)
    if not cleaned or not _NAME_OK.match(cleaned):
        cleaned = "_" + cleaned
    return cleaned


def escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition grammar."""
    return (str(value).replace("\\", "\\\\").replace("\"", "\\\"")
            .replace("\n", "\\n"))


def format_value(value) -> str:
    """A sample value in Prometheus number syntax."""
    if isinstance(value, bool):
        return "1" if value else "0"
    number = float(value)
    if math.isnan(number):
        return "NaN"
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


class _Writer:
    """Accumulates families in order, one ``# TYPE`` line per family."""

    def __init__(self) -> None:
        self._lines: List[str] = []
        self._typed: Dict[str, str] = {}

    def sample(self, family: str, kind: str, value,
               labels: Optional[Dict[str, str]] = None,
               suffix: str = "") -> None:
        if value is None:
            return
        if family not in self._typed:
            self._typed[family] = kind
            self._lines.append(f"# TYPE {family} {kind}")
        rendered = ""
        if labels:
            inner = ",".join(
                f'{metric_name(key)}="{escape_label_value(item)}"'
                for key, item in sorted(labels.items()))
            rendered = "{" + inner + "}"
        self._lines.append(
            f"{family}{suffix}{rendered} {format_value(value)}")

    def render(self) -> str:
        return "\n".join(self._lines) + "\n" if self._lines else ""


def _numeric_items(mapping: dict) -> List[Tuple[str, float]]:
    items = []
    for key, value in sorted(mapping.items()):
        if isinstance(value, bool):
            items.append((str(key), 1.0 if value else 0.0))
        elif isinstance(value, (int, float)):
            items.append((str(key), value))
    return items


def render_prometheus(snapshot: dict, namespace: str = NAMESPACE) -> str:
    """The text exposition of one ``/metrics`` JSON snapshot.

    Unknown keys are flattened as gauges when numeric and skipped
    otherwise, so the exposition keeps working as the JSON document
    grows new sections.
    """
    writer = _Writer()
    handled = {"counters", "gauges", "latency", "uptime_seconds"}

    uptime = snapshot.get("uptime_seconds")
    if uptime is not None:
        writer.sample(metric_name(namespace, "uptime_seconds"),
                      "gauge", uptime)

    for name, value in _numeric_items(snapshot.get("counters") or {}):
        suffix = "" if name.endswith("_total") else "total"
        writer.sample(metric_name(namespace, name, suffix),
                      "counter", value)

    for name, value in _numeric_items(snapshot.get("gauges") or {}):
        writer.sample(metric_name(namespace, name), "gauge", value)

    latency = snapshot.get("latency") or {}
    family = metric_name(namespace, "latency_seconds")
    for name in sorted(latency):
        window = latency[name] or {}
        labels = {"family": name}
        for quantile, key in (("0.5", "p50_seconds"),
                              ("0.99", "p99_seconds")):
            value = window.get(key)
            if value is not None:
                writer.sample(family, "summary", value,
                              labels={**labels, "quantile": quantile})
        writer.sample(family, "summary",
                      window.get("total_seconds", 0.0),
                      labels=labels, suffix="_sum")
        writer.sample(family, "summary", window.get("count", 0),
                      labels=labels, suffix="_count")

    for section, payload in sorted(snapshot.items()):
        if section in handled:
            continue
        if isinstance(payload, dict):
            for name, value in _numeric_items(payload):
                writer.sample(metric_name(namespace, section, name),
                              "gauge", value)
        elif isinstance(payload, (bool, int, float)):
            writer.sample(metric_name(namespace, section),
                          "gauge", payload)
    return writer.render()


__all__ = ["NAMESPACE", "PROM_CONTENT_TYPE", "escape_label_value",
           "format_value", "metric_name", "render_prometheus"]
