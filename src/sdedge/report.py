"""Run metrics: time series, protocol counters, and stable serialization.

Reports are pure data derived from a finished run; emitting the same
report twice (or a report from a repeated run with the same seed) must be
byte-identical, so serialization sorts keys and uses repr-exact floats.
Throughput instants and both logs' times are kept in ns and print as seconds.

A report holds each of its three big lists in one form. Its throughput is
a `Throughput`: per stream, its start, stop and runs (first instant, Mbps),
which the dense rows (t, stream, Mbps) are expanded from only when
something reads them, one instant at a time, so a reader never holds every
row's run index at once. Its handovers (a `HandoverLog`) and its auth
decisions (a `DecisionLog`) are each a `RowLog`: its distinct rows once,
one row index per entry and one time per instant.

The JSON document is exactly what `json.dumps(document, sort_keys=True,
indent=1)` prints. That call cannot use the C encoder, because it indents,
so it renders only the small part of the document. Row writers own the
three big lists (throughput, handovers, auth_events). Each makes the text
of each distinct row (a run, a decision's granted, group, md and reason,
or a handover's fields but its md and t) once and the text of each
instant once, and joins one instant's rows, at most a batch, at a time.
Throughput, as JSON or CSV, and the auth rows share `_instant_rows`; a
handover's md and t sit between its row's fields, so `_handover_chunks`
writes the handovers beside it and makes each md's text once too. `emit`
writes the chunks straight to the file as they are made, so its peak is
the report plus one chunk, not the report plus its text.
tests/test_report_render.py pins the equivalence against that
`json.dumps` call on generated reports.
"""

from __future__ import annotations

import json
import os
from array import array
from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heapify, heappop, heappush, merge
from itertools import chain, groupby, repeat
from json.encoder import encode_basestring_ascii as _encode_str
from operator import itemgetter
from pathlib import Path
from typing import TextIO

from .errors import EmitError

SCHEMA_VERSION = "sdedge.metrics/1"
FORMATS = ("csv", "json")


class Throughput:
    """Rows (t, stream id, Mbps) in (t, stream) order, kept as per-stream runs.

    A stream has a row at each of its instants up to its stop: its start
    and then every `period` after it, all in ns, the instants `World`
    samples it at. Each row reads the value of the stream's latest run
    (first instant, Mbps) at or before it, and prints its instant in
    seconds. `len()` expands nothing; each reader expands the runs once.
    """

    def __init__(self, period: int, streams: Iterable[tuple[str, int, int, list[tuple[int, float]]]]):
        self.period = period
        # (stream id, start, row count, runs), from (stream id, start, stop, runs)
        self.streams = [(sid, start, len(range(start, stop + 1, period)), runs)
                        for sid, start, stop, runs in sorted(streams, key=itemgetter(0))]
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
        iterator that yields, per instant in time order (in s), the indices of
        the runs its rows read, in stream order. Each start's instants are walked
        one at a time (see `_start_rows`), and starts are merged only at the
        instants they share, so no reader holds more than one instant's rows."""
        runs: list[tuple[str, float]] = []
        groups: dict[int, list[tuple[int, int, list[tuple[int, float]]]]] = {}
        for sid, start, n, stream_runs in self.streams:
            groups.setdefault(start, []).append((len(runs), n, stream_runs))
            runs += [(sid, mbps) for _, mbps in stream_runs]
        period = self.period  # each start's instants, to the last row of its streams
        passes = [_start_rows(range(start, start + period * max(n for _, n, _ in group), period), group)
                  for start, group in groups.items()]
        return runs, _merged(passes)

    @cached_property
    def totals(self) -> tuple[float, int]:
        """The delivered Mbit and the stream count, summed on the first read
        only: the sum reads every row, and the runs do not change."""
        return _delivered(self, None)


def _start_rows(ts: range, group: list[tuple[int, int, list[tuple[int, float]]]]
                ) -> Iterator[tuple[int, list[int]]]:
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


def _next_change(ts: range, runs: list[tuple[int, float]], k: int, n: int) -> int:
    """The index of the instant where run k begins, or the row count once no run is left."""
    return bisect_left(ts, runs[k][0]) if k < len(runs) else n


def _merged(passes: list[Iterator[tuple[int, list[int]]]]) -> Iterator[tuple[float, list[int]]]:
    """The starts' instants in time order, in s; at an instant several starts
    share, their run ids are merged, and run ids follow stream order."""
    for t, same in groupby(merge(*passes, key=itemgetter(0)), key=itemgetter(0)):
        lists = [ids for _, ids in same]
        yield t / 10**9, lists[0] if len(lists) == 1 else sorted(chain.from_iterable(lists))


def _delivered(rows: Throughput, stream_id: str | None) -> tuple[float, int]:
    """The delivered Mbit, and the number of streams, in one pass over the
    rows in (t, stream) order: each sample covers one sample interval."""
    runs, instants = rows.expand()
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


class RowLog:
    """Entries in the order made, each distinct row kept once.

    `rows` holds the distinct rows in order of first use, and `index` the
    row of each entry. An entry's time, in ns, is kept once per instant:
    `times` holds each instant's time and `starts` its first entry, and a
    new instant starts wherever an entry's time differs from the previous
    entry's. A subclass keeps the rest of an entry and makes its entries on
    demand.
    """

    def __init__(self):
        self.rows: list[tuple] = []
        self._row_of: dict[tuple, int] = {}
        self.index = array("I")
        self.starts = array("I")  # the first entry of each instant
        self.times: list[int] = []  # each instant's time
        self._t: int | None = None  # the latest entry's time

    def _append(self, row: tuple, t: int) -> int:
        """Log one entry of `row` at `t`; returns its row, one per distinct `row`."""
        i = self._row_of.get(row)
        if i is None:
            i = self._row_of[row] = len(self.rows)
            self.rows.append(row)
        if t != self._t:
            self._instant(t)
        self.index.append(i)
        return i

    def extend_rows(self, rows: list[int], t: int) -> None:
        """Log entries at `t` that repeat rows already in the log, in order:
        for a log whose entry is only its row and time, as a `DecisionLog`'s."""
        if rows:
            if t != self._t:
                self._instant(t)
            self.index.extend(rows)

    def _instant(self, t: int) -> None:
        """The next entry starts a new instant, at `t`."""
        self.starts.append(len(self.index))
        self.times.append(t)
        self._t = t

    def __len__(self) -> int:
        return len(self.index)

    def spans(self) -> Iterator[tuple[float, int, int]]:
        """Per instant, in entry order, its time in seconds and the bounds
        [lo, hi) of its entries."""
        starts = self.starts
        return zip([t / 10**9 for t in self.times], starts, [*starts[1:], len(self.index)])

    def __eq__(self, other) -> bool:
        return isinstance(other, (list, type(self))) and list(self) == list(other)


@dataclass(slots=True)
class AuthDecision:
    md_id: str
    group_id: str
    granted: bool
    reason: str | None
    epoch: int
    at: float


class DecisionLog(RowLog):
    """Access decisions, each distinct (md, group, granted, reason, epoch)
    kept once as a row. A gated run's 200k checks fall on a few hundred
    instants and about a thousand rows, so the log holds about five bytes
    per decision. `grants` counts the granted decisions as they are
    appended; `extend_rows` repeats denied rows only. Iterating yields the
    `AuthDecision`s in decision order, each `at` in seconds.
    """

    def __init__(self):
        super().__init__()
        self.grants = 0

    def append(self, md_id: str, group_id: str, granted: bool, reason: str | None, epoch: int, at: int) -> int:
        """Log one decision at `at` ns; returns its row."""
        if granted:
            self.grants += 1
        return self._append((md_id, group_id, granted, reason, epoch), at)

    def latest(self) -> AuthDecision:
        """The latest decision, its `at` in seconds."""
        return AuthDecision(*self.rows[self.index[-1]], self._t / 10**9)

    def __iter__(self) -> Iterator[AuthDecision]:
        rows, index = self.rows, self.index
        for at, lo, hi in self.spans():
            for row in index[lo:hi]:
                yield AuthDecision(*rows[row], at)


class HandoverLog(RowLog):
    """Handovers, each distinct (kind, from_ap, to_ap, from_controller,
    to_controller, latency, messages) kept once as a row, and each
    handover's md in `mds`. Equal rows are one row, as in a `DecisionLog`: a
    run's latency is a whole ns count >= 0 over 10**9 and its messages an
    int, so equal rows print the same. Iterating yields one nine-key dict
    per handover, in handover order, its `t` from ns to s.
    """

    def __init__(self):
        super().__init__()
        self.mds: list[str] = []

    def append(self, t: int, md: str, kind: str, from_ap: str | None, to_ap: str,
               from_controller: str | None, to_controller: str, latency: float, messages: int) -> None:
        self._append((kind, from_ap, to_ap, from_controller, to_controller, latency, messages), t)
        self.mds.append(md)

    def __iter__(self) -> Iterator[dict]:
        rows, index, mds = self.rows, self.index, self.mds
        for t, lo, hi in self.spans():
            for row, md in zip(index[lo:hi], mds[lo:hi]):
                kind, from_ap, to_ap, from_controller, to_controller, latency, messages = rows[row]
                yield {"t": t, "md": md, "kind": kind, "from_ap": from_ap, "to_ap": to_ap,
                       "from_controller": from_controller, "to_controller": to_controller,
                       "latency": latency, "messages": messages}


@dataclass
class MetricsReport:
    scenario: str
    seed: int
    mode: str
    duration: float
    personal_ap: bool = False
    throughput: Throughput = field(default_factory=lambda: Throughput(10**9, ()))
    # every association change / controller handover, in the order made
    handovers: HandoverLog = field(default_factory=HandoverLog)
    packet_in: dict[str, int] = field(default_factory=dict)
    lookup_hops: dict[int, int] = field(default_factory=dict)
    # every access decision of the run, in the order it was made
    auth_events: DecisionLog = field(default_factory=DecisionLog)
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
        log = self.handovers
        if not log:
            return None
        latencies = [row[5] for row in log.rows]
        total = 0
        for row in log.index:
            total += latencies[row]
        return total / len(log)

    def summary(self) -> dict:
        log = self.auth_events
        delivered, streams = self.throughput.totals
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
            "auth_grants": log.grants,
            "auth_denies": len(log) - log.grants,
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
    return json.dumps(v)


def _instant_rows(texts: list[str], instants: Iterable[tuple[object, Sequence[int]]],
                  pre: Callable[[object], str], post: Callable[[object], str], sep: str) -> Iterator[str]:
    """Rows as text: per instant t, each of its row indices i is the row
    `pre(t) + texts[i] + post(t)`, and its rows, at most _BATCH of them, are
    joined by `sep` to a chunk. `pre` and `post` run once per instant."""
    for t, ids in instants:
        head, tail = pre(t), post(t)
        glue = tail + sep + head
        for i in range(0, len(ids), _BATCH):
            rows = glue.join(map(texts.__getitem__, ids[i:i + _BATCH]))
            yield f"{head}{rows}{tail}"  # one copy of the rows, where each `+` would make one


def _throughput_chunks(throughput: Throughput) -> Iterator[str]:
    """Rows shaped (t, stream id, Mbps), each an array of three scalars."""
    runs, instants = throughput.expand()
    return _instant_rows([f"{_value(sid)},\n   {_value(mbps)}" for sid, mbps in runs], instants,
                         lambda t: f"  [\n   {_value(t)},\n   ", lambda t: "\n  ]", ",\n")


# a handover's fields in the document, keys sorted: its row's head, its md,
# its row's middle, its instant's `t` and its row's tail
_HANDOVER_HEAD = '  {\n   "from_ap": %s,\n   "from_controller": %s,\n   "kind": %s,\n   "latency": %s,\n   "md": '
_HANDOVER_MID = ',\n   "messages": %s,\n   "t": '
_HANDOVER_TAIL = ',\n   "to_ap": %s,\n   "to_controller": %s\n  }'


def _handover_chunks(log: HandoverLog) -> Iterator[str]:
    """Handovers as rows of their nine fields. The texts of each distinct
    row, of each md and of each instant's `t` are made once, and one
    instant's rows, at most _BATCH of them, are joined to a chunk."""
    heads, mids, tails = [], [], []
    for kind, from_ap, to_ap, from_controller, to_controller, latency, messages in log.rows:
        heads.append(_HANDOVER_HEAD % (_value(from_ap), _value(from_controller), _value(kind), _value(latency)))
        mids.append(_HANDOVER_MID % _value(messages))
        tails.append(_HANDOVER_TAIL % (_value(to_ap), _value(to_controller)))
    md_texts = {md: _value(md) for md in set(log.mds)}
    index, mds = log.index, log.mds
    for t, lo, hi in log.spans():
        t = _value(t)
        for i in range(lo, hi, _BATCH):
            j = min(i + _BATCH, hi)
            yield ",\n".join([f"{heads[row]}{md_texts[md]}{mids[row]}{t}{tails[row]}"
                              for row, md in zip(index[i:j], mds[i:j])])


# an auth decision's fields in the document, keys sorted, up to its `t`
_DECISION_HEAD = '   "granted": %s,\n   "group": %s,\n   "md": %s,\n   "reason": %s,\n   "t": '


def _decision_chunks(log: DecisionLog) -> Iterator[str]:
    """Auth decisions as the rows {t, md, group, granted, reason}."""
    heads = [_DECISION_HEAD % (_value(granted), _value(group), _value(md), _value(reason))
             for md, group, granted, reason, _ in log.rows]
    spans = ((at, log.index[lo:hi]) for at, lo, hi in log.spans())
    return _instant_rows(heads, spans, lambda at: "  {\n", lambda at: _value(at) + "\n  }", ",\n")


# the document's big lists, each with the writer of its chunks for its row shape
_ROW_LISTS: dict[str, Callable[[Throughput | HandoverLog | DecisionLog], Iterator[str]]] = {
    "auth_events": _decision_chunks,
    "handovers": _handover_chunks,
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
    runs, instants = report.throughput.expand()
    yield from _instant_rows([f"{sid},{mbps!r}" for sid, mbps in runs], instants,
                             lambda t: f"{t!r},", lambda t: "\n", "")


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
