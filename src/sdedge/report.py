"""Run metrics: time series, protocol counters, and stable serialization.

Reports are pure data derived from a finished run; emitting the same
report twice (or a report from a repeated run with the same seed) must be
byte-identical, so serialization sorts keys and uses repr-exact floats.

The JSON document is exactly what `json.dumps(document, sort_keys=True,
indent=1)` prints. That call cannot use the C encoder, because it indents,
so it renders only the small part of the document. Row writers own the
three big lists (throughput, handovers, auth_events): they read the
report's own tuples and dicts, encode each scalar by its type, and join
rows in bounded batches, so no more than one batch of row strings is alive
at a time and the peak is the report plus the text, in chunks and then
joined. tests/test_report_render.py pins the equivalence against that
`json.dumps` call on generated reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import islice
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path
from typing import Callable, Iterator

from .errors import EmitError

SCHEMA_VERSION = "sdedge.metrics/1"
FORMATS = ("csv", "json")


@dataclass
class MetricsReport:
    scenario: str
    seed: int
    mode: str
    duration: float
    personal_ap: bool = False
    # time, stream id, Mbps
    throughput: list[tuple[float, str, float]] = field(default_factory=list)
    # per association change / controller handover
    handovers: list[dict] = field(default_factory=list)
    packet_in: dict[str, int] = field(default_factory=dict)
    lookup_hops: dict[int, int] = field(default_factory=dict)
    auth_events: list[dict] = field(default_factory=list)
    record_losses: list[str] = field(default_factory=list)

    # -- derived ------------------------------------------------------------

    def stream_ids(self) -> list[str]:
        return sorted({sid for _, sid, _ in self.throughput})

    def series(self, stream_id: str) -> list[tuple[float, float]]:
        return [(t, mbps) for t, sid, mbps in self.throughput if sid == stream_id]

    def delivered_mbit(self, stream_id: str | None = None) -> float:
        """Trapezoid-free accounting: each sample covers one sample interval."""
        total = 0.0
        rows = self.throughput
        last_t: dict[str, float] = {}
        for t, sid, mbps in rows:
            if stream_id is not None and sid != stream_id:
                continue
            prev = last_t.get(sid)
            dt = t - prev if prev is not None else 0.0
            total += mbps * dt
            last_t[sid] = t
        return total

    def mean_handover_latency(self) -> float | None:
        lats = [h["latency"] for h in self.handovers]
        if not lats:
            return None
        return sum(lats) / len(lats)

    def summary(self) -> dict:
        grants = sum(1 for e in self.auth_events if e["granted"])
        return {
            "streams": len(self.stream_ids()),
            "delivered_mbit_total": round(self.delivered_mbit(), 9),
            "handover_count": len(self.handovers),
            "mean_handover_latency": self.mean_handover_latency(),
            "packet_in_total": sum(self.packet_in.values()),
            "lookup_count": sum(self.lookup_hops.values()),
            "mean_lookup_hops": (
                sum(h * c for h, c in self.lookup_hops.items()) / sum(self.lookup_hops.values())
                if self.lookup_hops
                else None
            ),
            "auth_grants": grants,
            "auth_denies": len(self.auth_events) - grants,
            "records_lost": len(self.record_losses),
        }

    # -- serialization ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        """The JSON document without its big row lists (see `_ROW_LISTS`)."""
        return {
            "schema": SCHEMA_VERSION,
            "scenario": self.scenario,
            "seed": self.seed,
            "mode": self.mode,
            "personal_ap": self.personal_ap,
            "duration": self.duration,
            "summary": self.summary(),
            "packet_in": self.packet_in,
            "lookup_hops": {str(h): c for h, c in self.lookup_hops.items()},
            "record_losses": sorted(self.record_losses),
        }


_BATCH = 4096  # rows per joined chunk: bounds the short-lived row strings
_ROW_INDENT = "\n   "  # a row's values sit three levels deep: document, list, row


def _value(v) -> str:
    """One scalar as json.dumps(v, sort_keys=True, indent=1) prints it inside a row."""
    kind = type(v)
    if kind is str:
        return _encode_str(v)
    if kind is float:
        if v - v == 0.0:  # finite: inf and nan take json's spellings below
            return float.__repr__(v)
    elif kind is bool:  # before int: json prints true/false, not 1/0
        return "true" if v else "false"
    elif v is None:
        return "null"
    elif kind is int:
        return int.__repr__(v)
    return json.dumps(v, sort_keys=True, indent=1).replace("\n", _ROW_INDENT)


def _tuple_rows(rows: list[tuple]) -> Iterator[str]:
    """Rows shaped (t, stream id, Mbps), each an array of three scalars."""
    for a, b, c in rows:
        yield f"  [\n   {_value(a)},\n   {_value(b)},\n   {_value(c)}\n  ]"


def _dict_rows(rows: list[dict]) -> Iterator[str]:
    """Flat dict rows; the sorted key layout is worked out once per key set."""
    layout = keys = template = None
    for row in rows:
        if row.keys() != layout:
            layout, keys = row.keys(), sorted(row)
            fields = ",\n".join("   " + _encode_str(k).replace("%", "%%") + ": %s" for k in keys)
            template = "  {\n" + fields + "\n  }"
        yield template % tuple([_value(row[k]) for k in keys])


# the document's big lists, each with the writer for its row shape
_ROW_LISTS: dict[str, Callable[[list], Iterator[str]]] = {
    "auth_events": _dict_rows,
    "handovers": _dict_rows,
    "throughput": _tuple_rows,
}


def _array(rows: list, writer: Callable[[list], Iterator[str]]) -> Iterator[str]:
    """A big list at depth one, in chunks of at most _BATCH rows."""
    if not rows:
        yield "[]"
        return
    yield "[\n"
    lines = writer(rows)
    for start in range(0, len(rows), _BATCH):
        if start:
            yield ",\n"
        yield ",\n".join(islice(lines, _BATCH))
    yield "\n ]"


def render_json(report: MetricsReport) -> str:
    """The full document, as json.dumps(document, sort_keys=True, indent=1) + "\\n" prints it."""
    small = report.to_json_dict()
    parts = ["{"]
    for i, key in enumerate(sorted([*small, *_ROW_LISTS])):
        parts.append(f"{',' if i else ''}\n {_encode_str(key)}: ")
        if key in _ROW_LISTS:
            parts.extend(_array(getattr(report, key), _ROW_LISTS[key]))
        else:
            parts.append(json.dumps(small[key], sort_keys=True, indent=1).replace("\n", "\n "))
    parts.append("\n}\n")
    return "".join(parts)


def render_csv(report: MetricsReport) -> str:
    """Throughput series only; the keyed document lives in the JSON format."""
    rows = report.throughput
    parts = [f"# schema={SCHEMA_VERSION} scenario={report.scenario} seed={report.seed} mode={report.mode}\n"
             "t,stream_id,mbps\n"]
    for start in range(0, len(rows), _BATCH):
        parts.append("".join([f"{t!r},{sid},{mbps!r}\n" for t, sid, mbps in rows[start:start + _BATCH]]))
    return "".join(parts)


def emit(report: MetricsReport, fmt: str, path: str | Path) -> Path:
    """Write the report; CSV carries the series rows, JSON the full document."""
    if fmt not in FORMATS:
        raise EmitError(f"unknown format {fmt!r} (csv|json)")
    text = render_csv(report) if fmt == "csv" else render_json(report)
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise EmitError(f"cannot write {path}: {exc}") from exc
    return path
