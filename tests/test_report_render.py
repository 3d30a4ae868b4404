"""The JSON renderer against the plain `json.dumps` call it replaces.

`render_json` writes the big row lists with its own row writers; these tests
pin its output, byte for byte, to `json.dumps(document, sort_keys=True,
indent=1) + "\\n"` over generated reports, whose throughput is a runs-backed
`Throughput`, whose handovers are a `HandoverLog` and whose auth log is a
`DecisionLog`, as a run makes them, and pin the CSV rows to their plain
`repr` spelling. Throughput instants and both logs' times are integer ns, as
a run's clock counts them, and print as seconds. The generators favour the
values where the two could part: signed zero, subnormal and large floats, the
non-finite floats json spells its own way, ints and bools where floats are
expected, None, names that need escaping, and empty lists and tables.
"""

from __future__ import annotations

import gc
import json
import math
import tempfile
import tracemalloc
from dataclasses import replace
from itertools import groupby, islice
from pathlib import Path

import pytest

from sdedge import report as report_module
from sdedge.errors import EmitError
from sdedge.report import (
    SCHEMA_VERSION,
    AuthDecision,
    DecisionLog,
    HandoverLog,
    MetricsReport,
    Throughput,
    emit,
    render_csv,
    render_json,
)
from sdedge.scenario import bundled_scenario_path, parse_scenario
from sdedge.simnet import World

from textdiff import first_difference

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SPECIAL_FLOATS = (-0.0, 5e-324, 1e16, 1e-7, math.inf, -math.inf, math.nan)
numbers = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(), st.integers(), st.booleans())
names = st.one_of(
    st.sampled_from(("M1", "é", " ", "😀", '"', "\\", "\x00\n\t\x1f", "%s", "%")),
    st.text(st.characters(codec="utf-8"), max_size=6),
)
# values that are equal but print apart, and a NaN
APART = (0.0, -0.0, 1, 1.0, True, math.nan)


def runs_of(sid, start, samples, period, slack=0):
    """One stream's (stream id, start, stop, runs), in ns, from its sample
    per instant; its stop is `slack` after its last instant."""
    runs, t = [], start
    for mbps in samples:
        if not runs or runs[-1][1] != mbps:
            runs.append((t, mbps))
        stop, t = t, t + period
    return sid, start, stop + slack, runs


def expanded(period, streams):
    """The rows of `Throughput(period, streams)`, expanded by hand and
    sorted, each instant in seconds."""
    rows = []
    for sid, start, stop, runs in streams:
        firsts, t, mbps = dict(runs), start, None
        while t <= stop:
            mbps = firsts.get(t, mbps)
            rows.append((t / 10**9, sid, mbps))
            t += period
    return sorted(rows, key=lambda row: (row[0], row[1]))


# starts on different sampling chains, and later starts that join a chain,
# in ns: one is 1 ns off the chain of the one before it
starts = st.sampled_from((0, 50_000_000, 100_000_000, 300_000_000, 250_000_000, 10**9, 300_000_001))
# a few values that repeat into runs, and any number, SPECIAL_FLOATS included
mbps_values = st.one_of(st.sampled_from((0.0, 0.2, 8.0)), numbers)
# a stop on the stream's last instant, or between it and the next, as the horizon can fall
slacks = st.sampled_from((0, 40_000_000))
# (period, streams) as `Throughput` takes them, on any stream id `names` draws
runs_streams = st.builds(
    lambda period, streams: (
        period, [runs_of(sid, start, samples, period, slack) for sid, (start, samples, slack) in streams.items()]
    ),
    st.sampled_from((100_000_000, 250_000_000)),
    st.dictionaries(names, st.tuples(starts, st.lists(mbps_values, min_size=1, max_size=8), slacks), max_size=5),
)

# instants in ns, as a run's clock counts them; they repeat as the same
# object and as equal but distinct objects (10**9 and a fresh int("1000000000"))
instants_ns = st.one_of(st.sampled_from((0, 1, 500_000_000, 10**9)), st.builds(int, st.just("1000000000")),
                        st.integers(0, 2**63))

# decisions as a run logs them, `at` in ns, one type per field, so that
# equal rows are the same row
logged_decisions = st.lists(st.builds(
    AuthDecision, md_id=st.one_of(st.sampled_from(("M1", "M2")), names),
    group_id=st.one_of(st.sampled_from(("G1", "G%")), names), granted=st.booleans(),
    reason=st.one_of(st.sampled_from((None, "missing-keys", "stale-epoch")), names), epoch=st.integers(-1, 2),
    at=instants_ns,
), max_size=12)


def decided(decisions) -> list[AuthDecision]:
    """The decisions a log of `decisions` yields: each `at` in seconds."""
    return [replace(d, at=d.at / 10**9) for d in decisions]


def instant_count(times) -> int:
    """The number of instants of entries at `times`: one per run of equal times."""
    return len(list(groupby(times)))


def decision_log(decisions) -> DecisionLog:
    """The log of `decisions`, made as a run makes it. A denial whose row is
    already logged is replayed by `extend_rows`, in one list with the
    replays before it at the same `at`, as `reauthenticate` batches them;
    any other decision is appended. The list is flushed, empty or not,
    before each append and wherever `at` changes."""
    log, row_of, replays, at = DecisionLog(), {}, [], None
    for d in decisions:
        key = (d.md_id, d.group_id, d.granted, d.reason, d.epoch)
        if d.at != at:
            log.extend_rows(replays, at)
            replays, at = [], d.at
        if not d.granted and key in row_of:
            replays.append(row_of[key])
        else:
            log.extend_rows(replays, at)
            replays = []
            row_of[key] = log.append(*key, d.at)
    log.extend_rows(replays, at)
    return log


HANDOVER_KEYS = ("t", "md", "kind", "from_ap", "to_ap", "from_controller", "to_controller", "latency", "messages")


def handover(*fields) -> dict:
    """A handover as a run appends it, keys in the order of the dict a log
    yields for it, its `t` in ns."""
    return dict(zip(HANDOVER_KEYS, fields))


def yielded(handovers) -> list[dict]:
    """The dicts a log of `handovers` yields: each `t` in seconds."""
    return [{**h, "t": h["t"] / 10**9} for h in handovers]


# handovers as a run appends them. Names come from small pools as often as
# from `names`, so that rows repeat and are interned; instants repeat, and
# `latency` draws APART as often as any number, so that equal rows that
# print apart fall within one example
pooled_names = st.one_of(st.sampled_from(("AP1", "C1")), names)
logged_handovers = st.lists(st.builds(
    handover,
    instants_ns,
    st.one_of(st.sampled_from(("M1", "M2")), names),
    st.one_of(st.sampled_from(("associate", "pap-migrate")), names),
    st.one_of(pooled_names, st.none()), pooled_names, st.one_of(pooled_names, st.none()), pooled_names,
    st.one_of(st.sampled_from(APART), numbers),
    st.one_of(st.sampled_from((0, 1, True)), st.integers()),
), max_size=12)


def handover_log(handovers) -> HandoverLog:
    log = HandoverLog()
    for h in handovers:
        log.append(*h.values())
    return log


reports = st.builds(
    MetricsReport,
    scenario=names,
    seed=st.integers(),
    mode=names,
    duration=numbers,
    personal_ap=st.booleans(),
    throughput=runs_streams.map(lambda runs: Throughput(*runs)),
    handovers=logged_handovers.map(handover_log),
    packet_in=st.dictionaries(names, st.integers(0, 99), max_size=3),
    lookup_hops=st.dictionaries(st.integers(0, 40), st.integers(1, 99), max_size=3),
    auth_events=logged_decisions.map(decision_log),
    record_losses=st.lists(names, max_size=3),
)


def reference_json(report: MetricsReport) -> str:
    """The full document, printed by the slow `json.dumps` call."""
    document = {
        "schema": SCHEMA_VERSION,
        "scenario": report.scenario,
        "seed": report.seed,
        "mode": report.mode,
        "personal_ap": report.personal_ap,
        "duration": report.duration,
        "summary": report.summary(),
        "throughput": [[t, sid, mbps] for t, sid, mbps in report.throughput],
        "handovers": list(report.handovers),
        "packet_in": {k: report.packet_in[k] for k in sorted(report.packet_in)},
        "lookup_hops": {str(h): report.lookup_hops[h] for h in sorted(report.lookup_hops)},
        "auth_events": [{"t": d.at, "md": d.md_id, "group": d.group_id, "granted": d.granted, "reason": d.reason}
                        for d in report.auth_events],
        "record_losses": sorted(report.record_losses),
    }
    return json.dumps(document, sort_keys=True, indent=1) + "\n"


def reference_csv(report: MetricsReport) -> str:
    """The CSV text, each throughput row's numbers spelled by `repr`."""
    return (f"# schema={SCHEMA_VERSION} scenario={report.scenario} seed={report.seed} mode={report.mode}\n"
            "t,stream_id,mbps\n" + "".join(f"{t!r},{sid},{mbps!r}\n" for t, sid, mbps in report.throughput))


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(reports)
def test_render_json_matches_json_dumps_and_emit_writes_its_bytes(report):
    text = render_json(report)
    assert text == reference_json(report)
    assert render_csv(report) == reference_csv(report)
    with tempfile.TemporaryDirectory() as tmp:
        for fmt, render in (("json", render_json), ("csv", render_csv)):
            path = emit(report, fmt, Path(tmp) / f"report.{fmt}")
            assert path.read_bytes() == render(report).encode("utf-8")


def test_rows_spanning_several_batches_match_json_dumps():
    # one instant's throughput rows, decisions and handovers each span three batches
    n = report_module._BATCH
    streams = [runs_of(f"S{i}", 0, [float(i % 7)] * 2, 10**8) for i in range(2 * n + 1)]
    decisions = [AuthDecision("M2é", "G1", i % 2 == 0, (None, "ok")[i % 2], 0, i // (2 * n + 1) * 10**9)
                 for i in range(2 * n + 2)]
    handovers = [handover(i // (2 * n + 1) * 10**9, f"M{i % 5}é", "reassociate", "AP1", "AP2", None, "C1",
                          (0.5, math.nan, -math.inf)[i % 3], 0) for i in range(2 * n + 2)]
    report = MetricsReport(
        scenario="batches", seed=1, mode="None", duration=2.0,
        throughput=Throughput(10**8, streams),
        handovers=handover_log(handovers),
        auth_events=decision_log(decisions),
    )
    assert report.throughput == expanded(10**8, streams) and report.auth_events == decided(decisions)
    assert list(map(repr, report.handovers)) == list(map(repr, yielded(handovers)))
    assert len(report.handovers.rows) == 3 and len(report.handovers.times) == 2
    assert first_difference(render_json(report), reference_json(report)) is None
    assert first_difference(render_csv(report), reference_csv(report)) is None


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(runs_streams, reports)
def test_runs_backed_throughput_renders_the_bytes_of_its_rows(runs, report):
    period, streams = runs
    throughput = Throughput(period, streams)
    rows = expanded(period, streams)
    assert throughput == rows and len(throughput) == len(rows)
    report.throughput = throughput
    assert render_json(report) == reference_json(report)
    assert render_csv(report) == reference_csv(report)


def test_a_long_run_has_one_row_per_period_up_to_its_horizon():
    # 36,000 s at 0.1 s: in integer ns every instant is exact, so no row is
    # lost or gained to drift, and each prints as its ns over 10**9
    horizon = 36000 * 10**9
    throughput = Throughput(10**8, [("S1", 0, horizon, [(0, 1.0)]), ("S2", 0, horizon, [(0, 2.0), (10**9, 3.0)])])
    assert [n for _, _, n, _ in throughput.streams] == [360_001] * 2 and len(throughput) == 720_002
    runs, instants = throughput.expand()
    assert runs == [("S1", 1.0), ("S2", 2.0), ("S2", 3.0)]
    head = list(islice(instants, 11))
    assert [t for t, _ in head] == [k / 10 for k in range(11)] and head[-1] == (1.0, [0, 2])
    *_, last = instants
    assert last == (36000.0, [0, 2])


def test_runs_spanning_several_batches_render_the_bytes_of_their_rows():
    period, n = 10**8, report_module._BATCH
    streams = [runs_of(f"S{i}", start, [float(k // 50 % 3) for k in range(n)], period)
               for i, start in enumerate((0, 5 * 10**7, 10**9))]
    throughput = Throughput(period, streams)
    assert len(throughput) == 3 * n > 2 * report_module._BATCH
    assert throughput == expanded(period, streams)
    report = MetricsReport(scenario="runs", seed=1, mode="None", duration=9.0, throughput=throughput)
    assert first_difference(render_json(report), reference_json(report)) is None
    assert first_difference(render_csv(report), reference_csv(report)) is None


# one instant at equal times that are distinct int objects: a denial, its
# replay and a grant
SAME_INSTANT = (10**9, int("1000000000"))
SAME_INSTANT_DECISIONS = [AuthDecision("M1", "G1", False, "missing-keys", 1, t) for t in SAME_INSTANT]
SAME_INSTANT_DECISIONS.append(AuthDecision("M2", "G1", True, None, 1, SAME_INSTANT[1]))


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.example(SAME_INSTANT_DECISIONS, MetricsReport(scenario="same", seed=1, mode="LEDGE-LA", duration=1.0))
@hypothesis.given(logged_decisions, reports)
def test_a_decision_log_renders_the_bytes_of_its_decisions(decisions, report):
    log = decision_log(decisions)
    # every field as given, spelled by repr, and equal times, distinct objects
    # or not, are one instant
    assert list(map(repr, log)) == list(map(repr, decided(decisions))) and len(log) == len(decisions)
    assert len(log.times) == instant_count(d.at for d in decisions)
    assert log.grants == sum(d.granted for d in decisions)
    # replayed rows, and empty lists, open the instants that appends open; an
    # empty list at a time no decision has opens none
    appended = DecisionLog()
    for d in decisions:
        appended.append(d.md_id, d.group_id, d.granted, d.reason, d.epoch, d.at)
    assert log.starts == appended.starts and log.times == appended.times
    log.extend_rows([], object())
    assert len(log.times) == len(appended.times) and log == decided(decisions)
    report.auth_events = log
    assert render_json(report) == reference_json(report)


def left_to_right_mean(latencies):
    total = 0
    for x in latencies:
        total += x
    return total / len(latencies)


# every APART value as the latency at each of three instants, one row apart
# from the next, and messages 1 and True on otherwise equal rows
APART_HANDOVERS = [handover(t, "M1", "associate", None, "AP1", None, "C1", latency, 0)
                   for t in (0, 1, 10**9) for latency in APART]
APART_HANDOVERS += [handover(1, "M1", "associate", None, "AP1", None, "C1", 1, m) for m in (1, True)]


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.example(APART_HANDOVERS, MetricsReport(scenario="apart", seed=1, mode="None", duration=1.0))
@hypothesis.example([handover(t, "M1", "associate", None, "AP1", None, "C1", 0.5, 0) for t in SAME_INSTANT],
                    MetricsReport(scenario="same", seed=1, mode="None", duration=1.0))
@hypothesis.given(logged_handovers, reports)
def test_a_handover_log_renders_the_bytes_of_its_dicts(handovers, report):
    log = handover_log(handovers)
    # every field as given, spelled by repr, so values that are equal but print
    # apart stay apart, and equal times, distinct objects or not, are one instant
    assert list(map(repr, log)) == list(map(repr, yielded(handovers))) and len(log) == len(handovers)
    assert len(log.times) == instant_count(h["t"] for h in handovers)
    report.handovers = log
    if handovers:
        mean = left_to_right_mean([h["latency"] for h in handovers])
        assert repr(report.mean_handover_latency()) == repr(mean)
    assert render_json(report) == reference_json(report)


def test_an_instant_of_several_batches_of_decisions_renders_their_bytes():
    n = report_module._BATCH
    decisions = [AuthDecision(f"M{i % 7}", "G1", i % 5 == 0, (None, "missing-keys")[i % 5 > 0], 1, t)
                 for i, t in enumerate([500_000_000] * (2 * n + 1) + [10**9] * 3)]
    log = decision_log(decisions)
    assert len(log.rows) == 14 and len(log.times) == 2 and log == decided(decisions)
    report = MetricsReport(scenario="decisions", seed=1, mode="LEDGE-LA", duration=2.0, auth_events=log)
    assert first_difference(render_json(report), reference_json(report)) is None


def test_mean_handover_latency_sums_left_to_right():
    # the built-in sum() compensates rounding from Python 3.12 on: it would
    # read 1/3 here, and reports would differ across interpreters
    handovers = [handover(0, "M1", "reassociate", "AP1", "AP2", "C1", "C1", x, 0) for x in (1e16, 1.0, -1e16)]
    report = MetricsReport(scenario="fold", seed=1, mode="None", duration=1.0, handovers=handover_log(handovers))
    assert report.mean_handover_latency() == 0.0
    assert report.summary()["mean_handover_latency"] == 0.0


def test_the_handover_log_holds_a_few_bytes_per_handover():
    # 20k handovers over 3000 devices, 2000 instants and 100 distinct rows: a
    # roam's shape. A list of one nine-key dict per handover holds about 280
    # bytes each; rows plus one md reference and one row index each hold about 16.
    mds = [f"M{i:04d}" for i in range(3000)]
    instants = [k * 10**7 for k in range(2000)]
    rows = [("reassociate", f"AP{k % 10}", f"AP{(k + 1) % 10}", "C1", f"C{k // 10}", round(0.1 + k * 1e-3, 9), k)
            for k in range(100)]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        log = HandoverLog()
        for i in range(20_000):
            log.append(instants[i // 10], mds[i * 7 % 3000], *rows[i * 13 % 100])
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(log) == 20_000 and len(log.rows) == 100 and len(log.times) == 2000
    assert len(set(log.mds)) == 3000
    assert held / len(log) < 32, held / len(log)


def test_a_failed_emit_leaves_no_truncated_report(tmp_path, monkeypatch):
    report = MetricsReport(scenario="cut", seed=1, mode="None", duration=9.0,
                           throughput=Throughput(10**8, [runs_of("S1", 0, [float(i % 3) for i in range(90)], 10**8)]))
    kept = emit(report, "json", tmp_path / "kept.json").read_bytes()
    full_instant_rows = report_module._instant_rows

    def failing_instant_rows(*args):
        # the 90 throughput rows are one chunk per instant: fail after 40 of them
        chunks = full_instant_rows(*args)
        yield from islice(chunks, 40)
        if next(chunks, None) is not None:
            raise RuntimeError("row writer failed")

    monkeypatch.setattr(report_module, "_instant_rows", failing_instant_rows)
    for fmt, name in (("json", "kept.json"), ("csv", "new.csv"), ("json", "new.json")):
        with pytest.raises(RuntimeError, match="row writer failed"):
            emit(report, fmt, tmp_path / name)
    monkeypatch.undo()
    # an OSError at the final replace, onto a directory, is an EmitError and cleans up too
    (tmp_path / "dir").mkdir()
    (tmp_path / "dir" / "x").touch()
    with pytest.raises(EmitError, match="cannot write"):
        emit(report, "csv", tmp_path / "dir")
    assert (tmp_path / "kept.json").read_bytes() == kept
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "kept.json"]


def test_emit_holds_less_than_its_text_twice():
    """Emit writes its chunks to the file as they are made. A report joined
    whole before the write peaks above twice the file's size (2.05x for
    JSON, 2.15x for CSV on fig5). Streamed, with every row's run index
    expanded before the first row, the peak was 0.48x and 1.15x; expanded
    one instant at a time, it is 0.38x and 0.53x."""
    report = World(parse_scenario(bundled_scenario_path("fig5"))).run()
    with tempfile.TemporaryDirectory() as tmp:
        for fmt, bound in (("json", 0.45), ("csv", 0.75)):
            tracemalloc.start()
            try:
                path = emit(report, fmt, Path(tmp) / f"fig5.{fmt}")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound * path.stat().st_size, (fmt, peak, path.stat().st_size)


class NullSink:
    """A text sink that drops what it is given."""

    def writelines(self, chunks):
        for _ in chunks:
            pass


def test_rows_are_expanded_one_instant_at_a_time():
    """3000 streams over 196 instants, each with four runs, on two starts
    that share their later instants: rendering holds the runs and one
    instant's rows, not every row's run index. Expanding every row before
    the first peaked at 12.2 bytes per row for CSV and 12.8 for JSON; one
    instant at a time, it is 4.4 and 4.9."""
    period, instants = 10**8, 196

    def stream(i):
        start = 5 * 10**8 if i % 4 else 0
        ts = [start]
        while len(ts) < instants:
            ts.append(ts[-1] + period)
        runs = [(ts[0], 0.2)] + [(ts[k], float(k % 3)) for k in (40 + i % 50, 100 + i % 7, 150)]
        return f"F{i:04d}", start, ts[-1], runs

    throughput = Throughput(period, [stream(i) for i in range(3000)])
    report = MetricsReport(scenario="synthetic", seed=1, mode="None", duration=20.0, throughput=throughput)
    rows = len(throughput)
    assert rows == 3000 * instants
    for render in (render_csv, render_json):
        tracemalloc.start()
        try:
            render(report, NullSink())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.0 * rows, (render.__name__, peak / rows)
