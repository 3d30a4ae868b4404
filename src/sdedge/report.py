"""Run metrics: time series, protocol counters, and stable serialization.

Reports are pure data derived from a finished run; emitting the same
report twice (or a report from a repeated run with the same seed) must be
byte-identical, so serialization sorts keys and uses repr-exact floats.

The throughput series a run reports is a `Throughput`: per stream, its
start, stop and runs (first instant, Mbps), which the dense rows
(t, stream, Mbps) are expanded from only when something reads them, one
instant at a time, so a reader never holds every row's run index at once.

The JSON document is exactly what `json.dumps(document, sort_keys=True,
indent=1)` prints. That call cannot use the C encoder, because it indents,
so it renders only the small part of the document. Row writers own the
three big lists (throughput, handovers, auth_events). The throughput
writers, JSON and CSV, make one pass over the runs: each row is the
string of its instant joined to the string of its run, so a scalar is
encoded once per instant or run, not once per row, and one instant's rows
are joined at a time. The handover writer encodes each scalar by its
type and joins rows in bounded batches. The auth rows are rendered from
the run's `DecisionLog`, its distinct rows plus one row index per decision:
each row's head (granted, group, md, reason) is encoded once, each
instant's `t` once, and one instant's rows, at most a batch, are joined at
a time. `emit` writes the chunks straight to the file as they are made,
so its peak is the report plus one chunk, not the report plus its text.
tests/test_report_render.py pins the equivalence against that
`json.dumps` call on generated reports.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heapify, heappop, heappush, merge
from itertools import chain, groupby, islice, repeat
from json.encoder import encode_basestring_ascii as _encode_str
from operator import itemgetter
from pathlib import Path
from typing import TextIO

from .authn import AuthDecision, DecisionLog
from .engine import later
from .errors import EmitError

SCHEMA_VERSION = "sdedge.metrics/1"
FORMATS = ("csv", "json")


class Throughput:
    """Rows (t, stream id, Mbps) in (t, stream) order, kept as per-stream runs.

    A stream has a row at each of its instants up to its stop: its start
    and then each `later(t, period)`, the instants `World` samples it at,
    made once per start, up to the latest stop of the streams that start
    then. Each row reads the value of the stream's latest run (first
    instant, Mbps) at or before it. `len()` expands nothing; each reader
    expands the runs once.
    """

    def __init__(self, period: float, streams: Iterable[tuple[str, float, float, list[tuple[float, float]]]]):
        given = sorted(streams, key=itemgetter(0))
        self.instants: dict[float, list[float]] = {}  # start -> its instants, to its streams' latest stop
        for _, start, stop, _ in given:
            ts = self.instants.setdefault(start, [start])
            while (t := later(ts[-1], period)) <= stop:
                ts.append(t)
        # (stream id, start, row count, runs), from (stream id, start, stop, runs)
        self.streams = [(sid, start, bisect_right(self.instants[start], stop), runs)
                        for sid, start, stop, runs in given]
        self._len = sum(n for _, _, n, _ in self.streams)

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[tuple[float, str, float]]:
        runs, instants = self.expand()
        sids, values = [sid for sid, _ in runs], [mbps for _, mbps in runs]
        for t, ids in instants:
            yield from zip(repeat(t), map(sids.__getitem__, ids), map(values.__getitem__, ids))

    def __eq__(self, other) -> bool:
        return isinstance(other, (list, Throughput)) and list(self) == list(other)

    def expand(self) -> tuple[list[tuple[str, float]], Iterator[tuple[float, list[int]]]]:
        """Every run as (stream id, Mbps), numbered in stream order, and an
        iterator that yields, per instant in time order, the indices of the
        runs its rows read, in stream order. Each start's instants are walked
        one at a time (see `_start_rows`), and starts are merged only at the
        instants they share, so no reader holds more than one instant's rows."""
        runs: list[tuple[str, float]] = []
        groups: dict[float, list[tuple[int, int, list[tuple[float, float]]]]] = {}
        for sid, start, n, stream_runs in self.streams:
            groups.setdefault(start, []).append((len(runs), n, stream_runs))
            runs += [(sid, mbps) for _, mbps in stream_runs]
        passes = [_start_rows(self.instants[start], group) for start, group in groups.items()]
        return runs, _merged(passes)

    @cached_property
    def totals(self) -> tuple[float, int]:
        """The delivered Mbit and the stream count, summed on the first read
        only: the sum reads every row, and the runs do not change."""
        return _delivered(self, None)


def _start_rows(ts: list[float], group: list[tuple[int, int, list[tuple[float, float]]]]
                ) -> Iterator[tuple[float, list[int]]]:
    """Per instant of one start, the run ids its streams read, in stream order.

    `group` holds each stream's (first run id, row count, runs). The list of
    current run ids, one entry per stream, changes only at an instant where
    a stream's next run begins or its rows stop; between such instants every
    instant yields the same list. A heap holds each stream's next change as
    (instant index, position, index of its next run, which is len(runs) for its stop)."""
    cur = [rid if runs else None for rid, _, runs in group]
    changes = [(_next_change(ts, runs, 1, n), j, 1) for j, (_, n, runs) in enumerate(group) if runs]
    heapify(changes)
    ids = None
    for i, t in enumerate(ts):
        if ids is None or (changes and changes[0][0] <= i):
            while changes and changes[0][0] <= i:
                _, j, k = heappop(changes)
                rid, n, runs = group[j]
                if k < len(runs):
                    cur[j] = rid + k
                    heappush(changes, (_next_change(ts, runs, k + 1, n), j, k + 1))
                else:
                    cur[j] = None
            ids = [rid for rid in cur if rid is not None]
        yield t, ids


def _next_change(ts: list[float], runs: list[tuple[float, float]], k: int, n: int) -> int:
    """The index of the instant where run k begins, or the row count once no run is left."""
    return bisect_left(ts, runs[k][0]) if k < len(runs) else n


def _merged(passes: list[Iterator[tuple[float, list[int]]]]) -> Iterator[tuple[float, list[int]]]:
    """The starts' instants in time order; at an instant several starts
    share, their run ids are merged, and run ids follow stream order."""
    for t, same in groupby(merge(*passes, key=itemgetter(0)), key=itemgetter(0)):
        lists = [ids for _, ids in same]
        yield t, lists[0] if len(lists) == 1 else sorted(chain.from_iterable(lists))


def _expanded(rows: list[tuple] | Throughput) -> tuple[list[tuple[str, float]], Iterable[tuple[float, list[int]]]]:
    """`Throughput.expand` of the rows; a plain list of rows is one run and
    one instant per row, in list order."""
    if isinstance(rows, Throughput):
        return rows.expand()
    return [(sid, mbps) for _, sid, mbps in rows], ((row[0], [i]) for i, row in enumerate(rows))


def _delivered(rows: list[tuple] | Throughput, stream_id: str | None) -> tuple[float, int]:
    """The delivered Mbit, and the number of streams, in one pass over the
    rows in (t, stream) order: each sample covers one sample interval."""
    runs, instants = _expanded(rows)
    total = 0.0
    last_t: dict[str, float] = {}
    for t, ids in instants:
        for sid, mbps in map(runs.__getitem__, ids):
            if stream_id is not None and sid != stream_id:
                continue
            prev = last_t.get(sid)
            dt = t - prev if prev is not None else 0.0
            total += mbps * dt
            last_t[sid] = t
    return total, len(last_t)


@dataclass
class MetricsReport:
    scenario: str
    seed: int
    mode: str
    duration: float
    personal_ap: bool = False
    # time, stream id, Mbps: a list, or a Throughput from a run
    throughput: list[tuple[float, str, float]] | Throughput = field(default_factory=list)
    # per association change / controller handover
    handovers: list[dict] = field(default_factory=list)
    packet_in: dict[str, int] = field(default_factory=dict)
    lookup_hops: dict[int, int] = field(default_factory=dict)
    # every access decision of the run, in the order it was made: a list,
    # or the run's own DecisionLog
    auth_events: list[AuthDecision] | DecisionLog = field(default_factory=list)
    record_losses: list[str] = field(default_factory=list)

    # -- derived ------------------------------------------------------------

    def series(self, stream_id: str) -> list[tuple[float, float]]:
        return [(t, mbps) for t, sid, mbps in self.throughput if sid == stream_id]

    def delivered_mbit(self, stream_id: str | None = None) -> float:
        """Trapezoid-free accounting: each sample covers one sample interval."""
        return _delivered(self.throughput, stream_id)[0]

    def mean_handover_latency(self) -> float | None:
        """The mean, summed left to right: the built-in `sum()` compensates
        float rounding from Python 3.12 on, which would change the report
        with the interpreter."""
        if not self.handovers:
            return None
        total = 0
        for h in self.handovers:
            total += h["latency"]
        return total / len(self.handovers)

    def summary(self) -> dict:
        rows = self.throughput
        log = self.auth_events
        grants = log.grants if isinstance(log, DecisionLog) else sum(1 for d in log if d.granted)
        delivered, streams = rows.totals if isinstance(rows, Throughput) else _delivered(rows, None)
        return {
            "streams": streams,
            "delivered_mbit_total": round(delivered, 9),
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
            "auth_denies": len(log) - grants,
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


def _run_rows(rows: list[tuple] | Throughput, head: Callable[[object], str],
              tail: Callable[[object, object], str], sep: str) -> Iterator[str]:
    """Throughput rows as text, one instant's rows to a chunk: `head(t)`
    joined to `tail(stream id, Mbps)`, each string made once per instant or
    run. A plain list of rows is one run per row, in list order."""
    runs, instants = _expanded(rows)
    tails = [tail(sid, mbps) for sid, mbps in runs]
    for t, ids in instants:
        h = head(t)
        yield h + (sep + h).join(map(tails.__getitem__, ids))


def _throughput_chunks(rows: list[tuple] | Throughput) -> Iterator[str]:
    """Rows shaped (t, stream id, Mbps), each an array of three scalars."""
    return _run_rows(rows, lambda t: f"  [\n   {_value(t)},\n   ",
                     lambda sid, mbps: f"{_value(sid)},\n   {_value(mbps)}\n  ]", ",\n")


def _dict_rows(rows: list[dict]) -> Iterator[str]:
    """Flat dict rows; the sorted key layout is worked out once per key set."""
    layout = keys = template = None
    for row in rows:
        if row.keys() != layout:
            layout, keys = row.keys(), sorted(row)
            fields = ",\n".join("   " + _encode_str(k).replace("%", "%%") + ": %s" for k in keys)
            template = "  {\n" + fields + "\n  }"
        yield template % tuple([_value(row[k]) for k in keys])


# an auth decision's row in the document, keys sorted: its head, then its `t`
_DECISION_HEAD = '  {\n   "granted": %s,\n   "group": %s,\n   "md": %s,\n   "reason": %s,\n   "t": '


def _decisions(log: list[AuthDecision] | DecisionLog) -> tuple[list[tuple], Iterable[tuple[object, Sequence[int]]]]:
    """The log's distinct rows (md, group, granted, reason, epoch) and, per
    instant, its `at` and its decisions' row indices; a plain list of
    decisions is one row and one instant per decision, in list order."""
    if isinstance(log, DecisionLog):
        return log.rows, log.instants()
    return ([(d.md_id, d.group_id, d.granted, d.reason, d.epoch) for d in log],
            ((d.at, (i,)) for i, d in enumerate(log)))


def _decision_rows(log: list[AuthDecision] | DecisionLog) -> Iterator[str]:
    """Auth decisions as the rows {t, md, group, granted, reason}: one
    instant's rows, at most _BATCH of them, to a chunk."""
    rows, instants = _decisions(log)
    heads = [_DECISION_HEAD % (_value(granted), _value(group), _value(md), _value(reason))
             for md, group, granted, reason, _ in rows]
    for at, ids in instants:
        tail = _value(at) + "\n  }"
        sep = tail + ",\n"
        for i in range(0, len(ids), _BATCH):
            yield sep.join(map(heads.__getitem__, ids[i:i + _BATCH])) + tail


def _batched(rows: Iterator[str]) -> Iterator[str]:
    """Rows, _BATCH to a chunk; a row is never empty."""
    while chunk := ",\n".join(islice(rows, _BATCH)):
        yield chunk


# the document's big lists, each with the writer of its chunks for its row shape
_ROW_LISTS: dict[str, Callable[[list | Throughput | DecisionLog], Iterator[str]]] = {
    "auth_events": _decision_rows,
    "handovers": lambda rows: _batched(_dict_rows(rows)),
    "throughput": _throughput_chunks,
}


def _array(chunks: Iterator[str]) -> Iterator[str]:
    """A big list at depth one, from its chunks of rows."""
    first = next(chunks, None)
    if first is None:
        yield "[]"
        return
    yield "[\n"
    yield first
    for chunk in chunks:
        yield ",\n"
        yield chunk
    yield "\n ]"


def _json_chunks(report: MetricsReport) -> Iterator[str]:
    small = report.to_json_dict()
    yield "{"
    for i, key in enumerate(sorted([*small, *_ROW_LISTS])):
        yield f"{',' if i else ''}\n {_encode_str(key)}: "
        if key in _ROW_LISTS:
            yield from _array(_ROW_LISTS[key](getattr(report, key)))
        else:
            yield json.dumps(small[key], sort_keys=True, indent=1).replace("\n", "\n ")
    yield "\n}\n"


def _csv_chunks(report: MetricsReport) -> Iterator[str]:
    yield (f"# schema={SCHEMA_VERSION} scenario={report.scenario} seed={report.seed} mode={report.mode}\n"
           "t,stream_id,mbps\n")
    yield from _run_rows(report.throughput, lambda t: f"{t!r},", lambda sid, mbps: f"{sid},{mbps!r}\n", "")


def _render(chunks: Iterator[str], out: TextIO | None) -> str | None:
    if out is None:
        return "".join(chunks)
    out.writelines(chunks)
    return None


def render_json(report: MetricsReport, out: TextIO | None = None) -> str | None:
    """The full document, as json.dumps(document, sort_keys=True, indent=1) + "\\n" prints it:
    returned, or written into `out` chunk by chunk."""
    return _render(_json_chunks(report), out)


def render_csv(report: MetricsReport, out: TextIO | None = None) -> str | None:
    """Throughput series only, returned or written into `out`; the keyed
    document lives in the JSON format."""
    return _render(_csv_chunks(report), out)


def emit(report: MetricsReport, fmt: str, path: str | Path) -> Path:
    """Write the report; CSV carries the series rows, JSON the full document.

    The text goes to a temporary file beside `path`, which then replaces
    `path` (a symlink there is replaced, not written through). A failure
    removes the temporary file and leaves `path` as it was, so no truncated
    report is left behind.
    """
    if fmt not in FORMATS:
        raise EmitError(f"unknown format {fmt!r} (csv|json)")
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.urandom(4).hex()}.tmp"
    created = False
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "x", encoding="utf-8", newline="\n") as out:
            created = True
            # by name, so a wrapper bound to the name times emit's rendering
            (render_csv if fmt == "csv" else render_json)(report, out)
        os.replace(tmp, path)
    except BaseException as exc:
        if created:
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise EmitError(f"cannot write {path}: {exc}") from exc
        raise
    return path
