"""The JSON renderer against the plain `json.dumps` call it replaces.

`render_json` writes the big row lists with its own row writers; these tests
pin its output, byte for byte, to `json.dumps(document, sort_keys=True,
indent=1) + "\\n"` over generated reports, and pin a runs-backed
`Throughput` to the same rows given as a plain list. The generators favour the values
where the two could part: signed zero, subnormal and large floats, the
non-finite floats json spells its own way, ints and bools where floats are
expected, None, names that need escaping, and empty lists and tables.
"""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

import pytest

from sdedge import report as report_module
from sdedge.report import SCHEMA_VERSION, MetricsReport, Throughput, emit, render_csv, render_json

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SPECIAL_FLOATS = (-0.0, 5e-324, 1e16, 1e-7, math.inf, -math.inf, math.nan)
numbers = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(), st.integers(), st.booleans())
names = st.one_of(
    st.sampled_from(("M1", "é", " ", "😀", '"', "\\", "\x00\n\t\x1f", "%s", "%")),
    st.text(st.characters(codec="utf-8"), max_size=6),
)
scalars = st.one_of(numbers, names, st.none())
values = st.one_of(scalars, st.lists(scalars, max_size=2), st.dictionaries(names, scalars, max_size=2))


def dict_rows(required: dict) -> st.SearchStrategy:
    """Rows with the keys `summary()` reads, plus extra keys that change the layout."""
    return st.builds(
        lambda base, extra: {**extra, **base},
        st.fixed_dictionaries(required),
        st.dictionaries(names, values, max_size=2),
    )


handover_rows = dict_rows({
    "t": numbers, "md": names, "kind": names, "from_ap": st.one_of(names, st.none()),
    "to_ap": names, "latency": numbers, "messages": st.integers(0, 9),
})
auth_rows = dict_rows({"t": numbers, "md": names, "group": names, "granted": values, "reason": names})

reports = st.builds(
    MetricsReport,
    scenario=names,
    seed=st.integers(),
    mode=names,
    duration=numbers,
    personal_ap=st.booleans(),
    throughput=st.lists(st.tuples(numbers, names, numbers), max_size=6),
    handovers=st.lists(handover_rows, max_size=4),
    packet_in=st.dictionaries(names, st.integers(0, 99), max_size=3),
    lookup_hops=st.dictionaries(st.integers(0, 40), st.integers(1, 99), max_size=3),
    auth_events=st.lists(auth_rows, max_size=4),
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
        "handovers": report.handovers,
        "packet_in": {k: report.packet_in[k] for k in sorted(report.packet_in)},
        "lookup_hops": {str(h): report.lookup_hops[h] for h in sorted(report.lookup_hops)},
        "auth_events": report.auth_events,
        "record_losses": sorted(report.record_losses),
    }
    return json.dumps(document, sort_keys=True, indent=1) + "\n"


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(reports)
def test_render_json_matches_json_dumps_and_emit_writes_its_bytes(report):
    text = render_json(report)
    assert text == reference_json(report)
    with tempfile.TemporaryDirectory() as tmp:
        for fmt, render in (("json", render_json), ("csv", render_csv)):
            path = emit(report, fmt, Path(tmp) / f"report.{fmt}")
            assert path.read_bytes() == render(report).encode("utf-8")


def test_rows_spanning_several_batches_match_json_dumps():
    n = report_module._BATCH
    report = MetricsReport(
        scenario="batches", seed=1, mode="None", duration=2.0,
        throughput=[(i / 10, f"S{i % 3}", float(i % 7)) for i in range(2 * n + 1)],
        handovers=[{"t": float(i), "md": "M1", "latency": 0.5, "note": (None, math.nan, -math.inf)[i % 3]}
                   for i in range(n)],
        auth_events=[{"t": float(i), "md": "M2", "group": "G1", "granted": i % 2 == 0, "reason": "ok"}
                     for i in range(n + 1)],
    )
    assert render_json(report) == reference_json(report)


def expanded(period, streams):
    """The rows of `Throughput(period, streams)`, expanded by hand and sorted."""
    rows = []
    for sid, start, stop, runs in streams:
        firsts, t, mbps = dict(runs), start, None
        while t <= stop:
            mbps = firsts.get(t, mbps)
            rows.append((t, sid, mbps))
            t = round(t + period, 9)
    return sorted(rows, key=lambda row: (row[0], row[1]))


def runs_of(sid, start, samples, period, slack=0.0):
    """One stream's (stream id, start, stop, runs), from its sample per
    instant; its stop is `slack` after its last instant."""
    runs, t = [], start
    for mbps in samples:
        if not runs or runs[-1][1] != mbps:
            runs.append((t, mbps))
        stop, t = t, round(t + period, 9)
    return sid, start, stop + slack, runs


# starts on different sampling chains, and later starts that join a chain
starts = st.sampled_from((0.0, 0.05, 0.1, 0.3, 0.25, 1.0, 0.30000000001))
mbps_values = st.sampled_from((0.0, 0.2, 8.0, 11.0, 1e16, 5e-324))
# a stop on the stream's last instant, or between it and the next, as the horizon can fall
slacks = st.sampled_from((0.0, 0.04))
runs_streams = st.builds(
    lambda period, streams: (
        period, [runs_of(sid, start, samples, period, slack) for sid, (start, samples, slack) in streams.items()]
    ),
    st.sampled_from((0.1, 0.25)),
    st.dictionaries(names, st.tuples(starts, st.lists(mbps_values, min_size=1, max_size=8), slacks), max_size=5),
)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(runs_streams, reports)
def test_runs_backed_throughput_renders_the_bytes_of_its_rows(runs, report):
    period, streams = runs
    throughput = Throughput(period, streams)
    rows = expanded(period, streams)
    assert throughput == rows and len(throughput) == len(rows)
    report.throughput = rows
    as_list = render_json(report), render_csv(report)
    report.throughput = throughput
    assert (render_json(report), render_csv(report)) == as_list
    assert as_list[0] == reference_json(report)


def test_runs_spanning_several_batches_render_the_bytes_of_their_rows():
    period, n = 0.1, report_module._BATCH
    streams = [runs_of(f"S{i}", start, [float(k // 50 % 3) for k in range(n)], period)
               for i, start in enumerate((0.0, 0.05, 1.0))]
    throughput = Throughput(period, streams)
    assert len(throughput) == 3 * n > 2 * report_module._BATCH
    rows = MetricsReport(scenario="runs", seed=1, mode="None", duration=9.0, throughput=expanded(period, streams))
    runs = MetricsReport(scenario="runs", seed=1, mode="None", duration=9.0, throughput=throughput)
    assert render_json(runs) == render_json(rows) == reference_json(rows)
    assert render_csv(runs) == render_csv(rows)
