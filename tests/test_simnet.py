import hashlib
from collections import Counter
from dataclasses import replace

import pytest

from sdedge.cli import main
from sdedge.engine import EventEngine, ns
from sdedge.errors import SimulationHalted, UsageError
from sdedge.report import render_csv, render_json
from sdedge.scenario import (
    WaypointDecl, _layout_rng, apply_overrides, bundled_scenario_path, parse_scenario, parse_scenario_text,
)
from sdedge.scheduler import APStatus
from sdedge import simnet
from sdedge.simnet import World, serve_stretch

from oracles import CheckedWorld, RosterCheckedWorld, trace_digest
from textdiff import first_difference


def load(name, **overrides):
    sc = parse_scenario(bundled_scenario_path(name))
    params = apply_overrides(sc.params, {k: str(v) for k, v in overrides.items()})
    return sc, params


def series_of(report, stream):
    return report.series(stream)


def first_nonzero_after(series, t0):
    for t, v in series:
        if t >= t0 and v > 0:
            return t
    return None


# --- movement & association ---------------------------------------------------

def test_move_within_coverage_changes_nothing():
    sc = parse_scenario_text(
        """
[params]
m = 5
duration = 4.0
[topology]
controller C1 key=3
switch SW1
ap AP1 pos=0,0 radius=20 capacity=11 techs=wifi partition=C1
md M1 pos=1,1
link AP1 SW1 latency=0.001 rate=100
link SW1 C1 latency=0.001 rate=100
[traces]
move M1 1.0 3,3 staying
""",
        "inner-move",
    )
    world = World(sc)
    world.run()
    assert world.handover_rows == []
    assert world.mobility.association_ap["M1"] == "AP1"


def test_fresh_association_lists_the_running_flows():
    # the 22.1 s move is a plain re-association under mode None, with F1 running
    sc, params = load("fig6", mode="None")
    world = World(sc, params)
    world.engine.run_until(ns(22.1))
    assert [h["kind"] for h in world.handover_rows] == ["reassociate"]
    assert world.mobility.associations["M6"].flow_status == {"F1"}


def test_same_partition_ap_change_has_no_controller_handover():
    sc, params = load("fig6", mode="None")
    world = World(sc, params)
    steps = []
    world.mobility.step_observer = lambda step, md: steps.append(step)
    world.run()
    rows = list(world.handover_rows)
    kinds = [h["kind"] for h in rows]
    assert kinds == ["reassociate"]
    assert rows[0]["from_ap"] == "AP1"
    assert rows[0]["to_ap"] == "AP3"
    assert rows[0]["messages"] == 0  # no controller protocol ran
    assert steps == []


def test_cross_partition_move_runs_the_handover_protocol_in_order():
    sc = parse_scenario(bundled_scenario_path("fig2"))
    world = World(sc)
    steps = []
    world.mobility.step_observer = lambda step, md: steps.append(step)
    world.run()
    assert steps == ["locate-supervisor", "read-supervisor", "fetch-session", "update-supervisor"]
    row = [h for h in world.handover_rows if h["md"] == "M7"][0]
    assert row["from_controller"] == "C16" and row["to_controller"] == "C3"
    assert row["messages"] > 0
    rec = world.mobility.get_supervisory("M7")
    assert world.name_of[rec.previous] == "C16"
    assert world.name_of[rec.current] == "C3"


def test_personal_ap_migration_preserves_md_visible_state():
    sc, params = load("fig6", mode="LEDGE-PAP")
    world = World(sc, params)
    world.engine.run_until(ns(22.0))
    assoc = world.mobility.associations["M6"]
    before = assoc.md_visible()
    ap_mac_before = assoc.ap_mac
    world.engine.run_until(ns(23.0))
    after = world.mobility.associations["M6"]
    assert after is assoc
    assert after.md_visible()[0] == before[0]          # md_mac
    assert after.md_visible()[1] == before[1]          # association_id
    assert after.ap_mac != ap_mac_before
    assert after.md_visible()[2] == before[2]          # frame_seq, carried, not counted
    kinds = [h["kind"] for h in world.handover_rows]
    assert kinds == ["pap-migrate"]


# --- fig6 timeline ------------------------------------------------------------

def fig6_report(mode):
    sc, params = load("fig6", mode=mode)
    return World(sc, params).run()


def test_fig6_none_mode_recovers_after_reassociation():
    report = fig6_report("None")
    s = series_of(report, "F1")
    by_t = dict(s)
    assert by_t[22.0] == 8.0
    assert by_t[22.1] == 0.0
    t_rec = first_nonzero_after(s, 22.1)
    assert t_rec is not None
    assert t_rec <= 22.1 + 0.5 + 0.21  # association + reassociation delay window
    assert by_t[35.9] == 8.0  # continuous after recovery, including the return


def test_fig6_la_zero_while_outside_and_4s_lag():
    report = fig6_report("LEDGE-LA")
    s = series_of(report, "F1")
    by_t = dict(s)
    assert by_t[22.0] == 8.0
    for t, v in s:
        if 22.1 <= t <= 39.8:
            assert v == 0.0, f"LA stream leaked at t={t}"
    t_rec = first_nonzero_after(s, 35.9)
    assert t_rec is not None and abs(t_rec - (35.9 + 4.0)) <= 0.2


def test_fig6_la_and_pap_series_pointwise_equal():
    la = fig6_report("LEDGE-LA")
    pap = fig6_report("LEDGE-PAP")
    assert series_of(la, "F1") == series_of(pap, "F1")


def test_fig6_la_survives_rotations_while_inside():
    report = fig6_report("LEDGE-LA")
    by_t = dict(series_of(report, "F1"))
    # rotations at 10 and 20 must not dent in-area throughput
    for t in (9.9, 10.0, 10.1, 10.2, 19.9, 20.0, 20.1, 20.2):
        assert by_t[t] == 8.0, f"rotation dip at {t}"


def test_wallet_fills_after_one_beacon_period_dwell():
    sc, params = load("fig6", mode="LEDGE-LA")
    world = World(sc, params)
    world.engine.run_until(ns(0.3))
    assert set(world.authn.wallets["M6"]) == {"AP1", "AP2", "AP3"}
    assert world.authn.is_granted("M6", "G1")


def test_stale_grant_expires_at_its_deadline_whatever_its_float_sum():
    # as floats 10.5 + 0.3 is exactly the expiry event's instant 10.8, while
    # 5.1 + 0.3 falls just short of its 5.4; both deadlines, exact in ns, must
    # revoke the grant that the 1 s beacon waves cannot renew within the grace window
    for rotation, expiry in ((10.5, 10.8), (5.1, 5.4)):
        sc, params = load("fig6", mode="LEDGE-LA", beacon_period=1.0, rotation_period=rotation)
        by_t = dict(series_of(World(sc, params).run(), "F1"))
        assert by_t[round(expiry - 0.1, 9)] == 8.0
        assert by_t[expiry] == 0.0, f"grant outlived its deadline {expiry}"


# --- transport model ------------------------------------------------------------

def test_throughput_is_capped_by_bottleneck():
    sc = parse_scenario_text(
        """
[params]
m = 5
duration = 2.0
[topology]
controller C1 key=3
switch SW1
ap AP1 pos=0,0 radius=20 capacity=11 techs=wifi partition=C1
md M1 pos=1,1
link AP1 SW1 latency=0.001 rate=6
link SW1 C1 latency=0.001 rate=100
[flows]
flow F1 md=M1 dst=C1 type=tcp demand=8 tech=wifi start=0.0
""",
        "capped",
    )
    report = World(sc).run()
    values = {v for _, v in report.series("F1") if v > 0}
    assert values == {6.0}  # min(demand 8, link 6)


def test_delivered_volume_respects_bottleneck_budget():
    report = fig6_report("None")
    delivered = report.delivered_mbit("F1")
    assert delivered <= 11.0 * report.duration + 1e-6


# --- failures ---------------------------------------------------------------------

AP_FAIL = """
[params]
m = 5
duration = 6.0
[topology]
controller C1 key=3
switch SW1
ap AP1 pos=0,0 radius=30 capacity=11 techs=wifi partition=C1
ap AP2 pos=10,0 radius=30 capacity=11 techs=wifi partition=C1
md M1 pos=1,1
md M2 pos=2,2
md M3 pos=3,3
link AP1 SW1 latency=0.001 rate=100
link AP2 SW1 latency=0.001 rate=100
link SW1 C1 latency=0.001 rate=100
[flows]
flow F1 md=M1 dst=C1 type=tcp demand=2 tech=wifi start=0.0
flow F2 md=M2 dst=C1 type=tcp demand=2 tech=wifi start=0.0
flow F3 md=M3 dst=C1 type=tcp demand=2 tech=wifi start=0.0
[failures]
fail ap AP1 at=2.0
"""


def test_ap_failure_reassigns_associated_mds():
    world = World(parse_scenario_text(AP_FAIL, "apfail"))
    report = world.run()
    recoveries = [h for h in world.handover_rows if h["kind"] == "ap-recovery"]
    assert len(recoveries) == 3  # ties put all three MDs on AP1 initially
    assert all(r["to_ap"] == "AP2" for r in recoveries)
    for stream in ("F1", "F2", "F3"):
        assert first_nonzero_after(report.series(stream), 2.5) is not None


def test_failing_a_dead_target_is_a_noop():
    text = AP_FAIL + "fail ap AP1 at=3.0\n"
    world = World(parse_scenario_text(text, "apfail2"))
    world.run()  # second failure of AP1 must not blow up
    assert len([h for h in world.handover_rows if h["kind"] == "ap-recovery"]) == 3


def star(aps, mds, flows, controllers=("C1 key=3",), params=(), tail=""):
    """A one-switch scenario: every AP and controller links to SW1 at 100 Mbps."""
    names = [a.split()[0] for a in aps] + [c.split()[0] for c in controllers]
    lines = ["[params]", "m = 5", "duration = 6.0", *params, "[topology]"]
    lines += [f"controller {c}" for c in controllers] + ["switch SW1"]
    lines += [f"ap {a}" for a in aps] + [f"md {m}" for m in mds]
    lines += [f"link {n} SW1 latency=0.001 rate=100" for n in names]
    lines += ["[flows]"] + [f"flow {f}" for f in flows]
    return "\n".join(lines) + "\n" + tail


def recoveries(world):
    return [h for h in world.handover_rows if h["kind"] == "ap-recovery"]


def placed_on(world):
    """flow id -> AP, over every partition view's open flows."""
    return {fid: rec.ap_id for view in world.views.values() for fid, rec in view.open_flows.items()}


def test_ap_failure_spreads_mds_within_capacity():
    mds = [f"M{i} pos={i},1" for i in range(1, 6)]
    flows = [f"F{i} md=M{i} dst=C1 type=tcp demand=2 tech=wifi start=0.0" for i in range(1, 6)]
    aps = [f"AP{i} pos={10 * (i - 1)},0 radius=30 capacity=11 techs=wifi partition=C1" for i in (1, 2, 3)]
    world = World(parse_scenario_text(star(aps, mds, flows, tail="[failures]\nfail ap AP1 at=2.0\n"), "spread"))
    world.run()
    rows = recoveries(world)
    assert len(rows) == 5 and {r["to_ap"] for r in rows} == {"AP2", "AP3"}
    # every flow rides its device's new association
    assert placed_on(world) == {f"F{i}": world.mobility.association_ap[f"M{i}"] for i in range(1, 6)}
    assert sum(ap.load for ap in world.aps.values()) == pytest.approx(10.0)
    for ap in world.aps.values():
        assert ap.load <= ap.capacity + 1e-9


def test_ap_failure_flow_that_does_not_fit_waits_for_room():
    aps = [
        "AP1 pos=0,0 radius=30 capacity=11 techs=wifi partition=C1",
        "AP2 pos=10,0 radius=30 capacity=5 techs=wifi partition=C1",
        "AP3 pos=20,0 radius=30 capacity=5 techs=wifi partition=C1",
    ]
    flows = [
        "F0 md=M1 dst=C1 type=tcp demand=4 tech=wifi start=0.0 end=4.0",
        "F1 md=M1 dst=C1 type=tcp demand=3 tech=wifi start=0.0",
    ]
    text = star(aps, ["M1 pos=1,1"], flows, tail="[failures]\nfail ap AP1 at=2.0\n")
    world = World(parse_scenario_text(text, "wait"))
    world.engine.run_until(ns(3.0))
    [row] = recoveries(world)
    assert row["to_ap"] == world.mobility.association_ap["M1"] == "AP2"
    assert placed_on(world) == {"F0": "AP2"}  # F1 rides the association but does not fit
    assert world.aps["AP3"].load == 0.0
    report = world.run()
    f1 = report.series("F1")
    assert all(v == 0.0 for t, v in f1 if 2.0 <= t < 4.0)
    assert first_nonzero_after(f1, 2.0) == 4.0  # admitted once F0 ends
    assert placed_on(world) == {"F1": "AP2"}


def test_ap_failure_without_associated_mds_adds_no_rows():
    world = World(parse_scenario_text(AP_FAIL.replace("fail ap AP1", "fail ap AP2"), "apfail-idle"))
    report = world.run()
    assert world.handover_rows == []
    assert all(v > 0 for _, v in report.series("F1"))


def test_ap_failure_leaves_md_without_a_supporting_ap_disconnected():
    aps = [
        "AP1 pos=0,0 radius=30 capacity=11 techs=wimax partition=C1",
        "AP2 pos=10,0 radius=30 capacity=11 techs=wifi partition=C1",
    ]
    flows = ["F1 md=M1 dst=C1 type=tcp demand=3 tech=wimax start=0.0"]
    text = star(aps, ["M1 pos=1,1"], flows, tail="[failures]\nfail ap AP1 at=2.0\n")
    world = World(parse_scenario_text(text, "tech"))
    report = world.run()
    assert recoveries(world) == []
    assert not world.mds["M1"].connected
    assert placed_on(world) == {}
    assert first_nonzero_after(report.series("F1"), 2.0) is None


TWO_PARTITIONS = dict(
    controllers=("C1 key=3", "C2 key=10"),
    flows=["F1 md=M1 dst=C1 type=tcp demand=2 tech=wifi start=0.0"],
)


def test_ap_failure_recovers_across_partitions():
    aps = [
        "AP1 pos=0,0 radius=30 capacity=11 techs=wifi partition=C1",
        "AP2 pos=10,0 radius=30 capacity=11 techs=wifi partition=C2",
    ]
    text = star(aps, ["M1 pos=1,1"], **TWO_PARTITIONS, tail="[failures]\nfail ap AP1 at=2.0\n")
    world = World(parse_scenario_text(text, "xpart"))
    report = world.run()
    [row] = recoveries(world)
    assert (row["from_ap"], row["to_ap"]) == ("AP1", "AP2")
    assert (row["from_controller"], row["to_controller"]) == ("C1", "C2")
    assert row["messages"] > 0
    assert world.name_of[world.mobility.get_supervisory("M1").current] == "C2"
    assert first_nonzero_after(report.series("F1"), 2.0) is not None


# C2 crashes at t=1.0 and is detected at t=4.0; until then a handover into
# its partition fails, and the device waits disconnected for its next move
# or for C1 to adopt the partition
CRASHED_C2 = ("detection_delay = 3.0",)


def test_move_into_an_undetected_crashed_partition_disconnects():
    aps = [
        "AP1 pos=0,0 radius=10 capacity=11 techs=wifi partition=C1",
        "AP2 pos=40,0 radius=10 capacity=11 techs=wifi partition=C2",
    ]
    # M1 needs a handover into C2's partition; M2, outside coverage at t=0,
    # its first registration there
    tail = (
        "[traces]\nmove M1 2.0 40,1 staying\nmove M2 2.0 40,2 staying\n"
        "move M1 5.0 41,1 staying\nmove M2 5.0 41,2 staying\n"
        "[failures]\nfail controller C2 at=1.0\n"
    )
    mds = ["M1 pos=1,1", "M2 pos=100,0"]
    world = World(parse_scenario_text(star(aps, mds, **TWO_PARTITIONS, params=CRASHED_C2, tail=tail), "ho-fail"))
    world.engine.run_until(ns(3.9))
    assert world.handover_rows == []
    assert not world.mds["M1"].connected and not world.mds["M2"].connected
    assert world.name_of[world.mobility.get_supervisory("M1").current] == "C1"
    assert "M2" not in world.mobility.registered
    # C1 adopts C2's partition at t=4.0 and attaches both devices there,
    # before their moves at t=5.0
    report = world.run()
    assert [(h["t"], h["md"], h["kind"]) for h in world.handover_rows] == [
        (4.0, "M1", "reassociate"), (4.0, "M2", "associate"),
    ]
    assert 4.0 < first_nonzero_after(report.series("F1"), 2.0) < 5.0


def test_ap_failure_next_to_an_undetected_crashed_partition_disconnects():
    aps = [
        "AP1 pos=0,0 radius=30 capacity=11 techs=wifi partition=C1",
        "AP2 pos=10,0 radius=30 capacity=11 techs=wifi partition=C2",
    ]
    tail = "[failures]\nfail controller C2 at=1.0\nfail ap AP1 at=0.5\n"
    text = star(aps, ["M1 pos=1,1"], **TWO_PARTITIONS, params=CRASHED_C2, tail=tail)
    world = World(parse_scenario_text(text, "rec-fail"))
    world.engine.run_until(ns(3.9))
    assert world.handover_rows == []
    assert not world.mds["M1"].connected
    # the adoption at t=4.0 puts M1 back on AP2, now in C1's partition
    report = world.run()
    assert [(h["t"], h["md"], h["to_ap"], h["to_controller"]) for h in world.handover_rows] == [
        (4.0, "M1", "AP2", "C1"),
    ]
    assert world.mds["M1"].connected
    assert first_nonzero_after(report.series("F1"), 0.5) > 4.0


GROUP_G1 = "[groups]\ngroup G1 members=AP3,AP4,AP5,AP6\n\n"  # fig5's middle APs


def test_roster_check_runs_on_a_grouped_failure_run():
    text = bundled_scenario_path("fig5").read_text().replace("mds M 300 ", "mds M 60 ", 1)
    text = text.replace("[flows]\n", GROUP_G1 + "[flows]\n", 1)
    text += "\n[failures]\nfail ap AP2 at=5.0\n"
    sc = parse_scenario_text(text, "fig5-roster")
    report = RosterCheckedWorld(sc, apply_overrides(sc.params, {"mode": "LEDGE-PAP"})).run()
    assert any(h["kind"] == "ap-recovery" for h in report.handovers)
    assert any(d.granted and d.at > 5.0 for d in report.auth_events)


def test_generated_failure_schedules_run_to_completion():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    instant = st.integers(1, 199).map(lambda k: k / 10)
    fig5 = bundled_scenario_path("fig5").read_text()
    fig5 = fig5.replace("controller CB\n", "controller CB\ncontroller CC\n", 1).replace("mds M 300 ", "mds M 60 ", 1)
    # a location group, so that beacons and re-authentication run across the failures
    fig5 = fig5.replace("[flows]\n", GROUP_G1 + "[flows]\n", 1)
    # a low-rate packet-in load, so that arrival instants cross the failures
    fig5 += "\n[workload]\npacketin rate_per_ap=20 service_time=0.01\n"

    # no shrinking: each example is two whole runs, and a failing schedule
    # of at most six failures reads well as generated
    phases = (hypothesis.Phase.explicit, hypothesis.Phase.reuse, hypothesis.Phase.generate)

    @hypothesis.settings(max_examples=15, deadline=None, phases=phases)
    @hypothesis.given(
        ap_failures=st.lists(st.tuples(st.integers(1, 8), instant), min_size=1, max_size=3),
        # up to every controller, so that the whole cluster can be lost
        crashes=st.lists(st.tuples(st.sampled_from(["CA", "CB", "CC"]), instant), max_size=3),
        detection_delay=st.sampled_from(["0", "0.5", "2"]),
        controllers=st.sampled_from(["0", "3"]),
        r=st.sampled_from(["1", "2", "3"]),
        mode=st.sampled_from(["None", "LEDGE-PAP"]),
        # an AP that fits a single 0.2 Mbps flow keeps flows waiting, so that
        # releases and adoptions wake waiters
        capacity=st.sampled_from(["11", "0.2"]),
        # flows sampled on other chains of instants, one that meets the
        # 0.5 chain by rounding, and one that joins it later
        starts=st.lists(st.sampled_from(["0.05", "0.30000000001", "1.5", "2.25"]), max_size=3),
    )
    def check(ap_failures, crashes, detection_delay, controllers, r, mode, capacity, starts):
        lines = [f"fail ap AP{i} at={t}" for i, t in ap_failures]
        lines += [f"fail controller {name} at={t}" for name, t in crashes]
        text = fig5.replace("capacity=11 ", f"capacity={capacity} ")
        text = text.replace("\n[traces]", "".join(
            f"\nflow X{i} md=M{i + 1:03d} dst=CA type=sensor demand=0.2 tech=wifi start={t} end={float(t) + 7}"
            for i, t in enumerate(starts)
        ) + "\n[traces]", 1)
        sc = parse_scenario_text(text + "\n[failures]\n" + "\n".join(lines) + "\n", "fig5-fuzz")
        params = apply_overrides(
            sc.params, {"detection_delay": detection_delay, "controllers": controllers, "r": r, "mode": mode}
        )
        first = render_json(CheckedWorld(sc, params).run())
        assert first_difference(render_json(World(sc, params).run()), first) is None

    check()


class PerWaypointWorld(World):
    """The oracle of move batching: one md-move event per waypoint, in list
    order, scheduled where moves were scheduled before they were batched,
    after the t=0 rotation and beacons and before every stream, failure and
    workload event. The world's own md-move events are dropped."""

    def _schedule_all(self):
        eng, schedule = self.engine, self.engine.schedule
        waypoints = list(self.scenario.waypoints)

        def one_per_waypoint(at, kind, fn, note=""):
            if kind not in ("timer", "beacon"):
                for wp in waypoints:
                    schedule(wp.t, "md-move", lambda w=wp: self.apply_move(w.md, w.x, w.y), f"move:{wp.md}")
                waypoints.clear()
            if kind != "md-move":
                schedule(at, kind, fn, note)

        eng.schedule = one_per_waypoint
        try:
            super()._schedule_all()
        finally:
            del eng.schedule


def check_moves_batched_per_instant(sc, params):
    """The world and its per-waypoint oracle emit the same bytes, and differ
    only by the md-move events that batching saves."""
    batched, oracle = World(sc, params), PerWaypointWorld(sc, params)
    reports = batched.run(), oracle.run()
    assert first_difference(render_json(reports[0]), render_json(reports[1])) is None
    assert first_difference(render_csv(reports[0]), render_csv(reports[1])) is None
    moves = [wp.t for wp in sc.waypoints if wp.t <= ns(params.duration)]
    assert oracle.engine.executed - batched.engine.executed == len(moves) - len(set(moves))
    return reports[0]


# AP2 fits two of the six 1 Mbps flows; G1's presence proof needs the
# overlap of AP1 and AP2, so a move out of it revokes a grant in LEDGE-LA
BATCHED_MOVES = """
[params]
m = 5
duration = 4.0
sample_period = 0.25
rotation_period = 1.5
recovery_lag = 0.5
[topology]
controller C1 key=3
controller C2 key=20
switch SW1
ap AP1 pos=0,0 radius=20 capacity=11 techs=wifi partition=C1
ap AP2 pos=20,0 radius=20 capacity=2 techs=wifi partition=C2
ap AP3 pos={ap3} radius=10 capacity=11 techs=wifi partition=C1
md M1 pos=-3,1
md M2 pos=0,2
md M3 pos=3,0
md M4 pos=6,1
md M5 pos=9,2
md M6 pos=12,0
link AP1 SW1 latency=0.001 rate=100
link AP2 SW1 latency=0.001 rate=100
link AP3 SW1 latency=0.001 rate=100
link SW1 C1 latency=0.001 rate=100
link SW1 C2 latency=0.001 rate=100
[groups]
group G1 members=AP1,AP2
[flows]
flows F md=M* dst=C1 type=tcp demand=1 tech=wifi start={start}
[traces]
{moves}
[failures]
{failures}
"""
# inside AP1 and AP2, AP1 only, AP2 only, AP3, and no AP at all
SPOTS = ("10,0", "-15,0", "35,0", "60,0", "100,100")
MOVE_INSTANTS = (1.0, 1.5, 2.0, 3.0)


def batched_moves_scenario(batch, moves, start, failures, ap3="60,0"):
    """`batch` (instant, movers) sends every mover into AP2 at one instant;
    `moves` are (MD index, instant, spot index); a later duplicate of an
    MD's instant is dropped, so each MD's waypoints increase. AP3 sits at
    `ap3`: at "45,0" its disc holds AP2's spot too."""
    instant, movers = batch
    chosen = {}
    for md, t, spot in [(md, instant, 2) for md in movers] + moves:
        chosen.setdefault((md, t), f"move M{md} {t} {SPOTS[spot]}")
    text = BATCHED_MOVES.format(
        ap3=ap3, start=start, moves="\n".join(chosen.values()),
        failures="\n".join(f"fail ap AP{i} at={t}" for i, t in failures),
    )
    return parse_scenario_text(text, "batched-moves")


def test_moves_batched_per_instant_match_one_event_per_waypoint():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    instants = st.sampled_from(MOVE_INSTANTS)

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        # three to six MDs enter AP2, which fits two flows, at one instant
        batch=st.tuples(instants, st.lists(st.integers(1, 6), min_size=3, max_size=6, unique=True)),
        moves=st.lists(st.tuples(st.integers(1, 6), instants, st.integers(0, len(SPOTS) - 1)), max_size=8),
        mode=st.sampled_from(["None", "LEDGE-LA"]),
        # a flows start and an AP failure may land on a move instant
        start=st.sampled_from(["0.0", "1.0", "1.5", "2.25"]),
        failures=st.lists(st.tuples(st.integers(1, 3), st.sampled_from((1.0, 2.0, 2.5))), max_size=2),
    )
    def check(batch, moves, mode, start, failures):
        sc = batched_moves_scenario(batch, moves, start, failures)
        check_moves_batched_per_instant(sc, apply_overrides(sc.params, {"mode": mode}))

    check()


def test_unsorted_waypoints_built_in_code_move_in_list_order():
    # a Scenario built in code keeps its waypoints in the order given: an
    # instant's moves run in that order, interleaved with other instants
    sc = batched_moves_scenario(
        (2.0, [1, 2, 3, 4]), [(1, 1.0, 1), (5, 1.0, 3), (2, 3.0, 0), (6, 2.0, 1), (4, 1.5, 4)], "1.0", [(2, 3.0)]
    )
    sc.waypoints = sc.waypoints[::-1][1::2] + sc.waypoints[::-1][::2]
    assert sorted(sc.waypoints, key=lambda w: w.t) != sc.waypoints
    report = check_moves_batched_per_instant(sc, apply_overrides(sc.params, {"mode": "LEDGE-LA"}))
    assert any(h["to_ap"] == "AP2" for h in report.handovers)


class MoveLogWorld(World):
    """Logs (instant, device, position) after every move."""

    def __init__(self, *args, **kwargs):
        self.moved = []
        super().__init__(*args, **kwargs)

    def apply_move(self, md, *position):
        super().apply_move(md, *position)
        self.moved.append((self.engine.now / 10**9, md, self.mds[md].position))


# four devices declared out of name order roam over two small APs, so that
# the order of an instant's moves decides which flows fit; M3 also moves
# between the roam's instants
ROAM_ORDER = star(
    ["AP1 pos=0,0 radius=20 capacity=3 techs=wifi partition=C1",
     "AP2 pos=30,0 radius=20 capacity=3 techs=wifi partition=C2"],
    ["M4 pos=1,0", "M2 pos=2,0", "M3 pos=29,0", "M1 pos=31,0"],
    [f"F{i} md=M{i} dst=C1 type=tcp demand=1.5 tech=wifi start=0.0" for i in range(1, 5)],
    controllers=("C1 key=3", "C2 key=20"), params=("sample_period = 0.25",),
    tail="[traces]\nroam M* interval=0.5 until=5.0 area=-20,-10,50,10\nmove M3 1.25 31,1\n",
)


def test_a_roam_moves_its_devices_in_name_order_within_an_instant():
    world = MoveLogWorld(parse_scenario_text(ROAM_ORDER, "roam-order"))
    report = world.run()
    instants = [round(0.5 * i, 6) for i in range(1, 11)]
    assert [(t, md) for t, md, _ in world.moved] == [
        *((t, f"M{i}") for t in instants[:2] for i in range(1, 5)), (1.25, "M3"),
        *((t, f"M{i}") for t in instants[2:] for i in range(1, 5)),
    ]
    assert (1.25, "M3", (31.0, 1.0)) in world.moved
    assert report.handovers
    # pinned from a build whose parser expanded each roam into one waypoint per device and instant
    assert hashlib.sha256(render_json(report).encode()).hexdigest() == ROAM_ORDER_JSON
    assert hashlib.sha256(render_csv(report).encode()).hexdigest() == ROAM_ORDER_CSV


ROAM_ORDER_JSON = "bfdfab798aba32a461ca3df2bca8458aa4de404996fcd775d3cb827ff22af7b4"
ROAM_ORDER_CSV = "2869d618daab7f5ec45fcf26f6879f60e6afa059b96fba4c5728b1e8029464a7"


# two roams over disjoint devices and a move on a third device, due at the
# same instants: each instant moves its devices in name order across them
ROAM_MERGE = ROAM_ORDER.replace(
    "roam M* interval=0.5 until=5.0 area=-20,-10,50,10\nmove M3 1.25 31,1\n",
    "roam M[24] interval=0.5 until=2.0 area=-20,-10,50,10\n"
    "roam M[13] interval=1.0 until=2.0 area=-20,-10,50,10\nmove M3 1.5 31,1\n",
)


def with_roams_expanded(sc):
    """`sc` with each roam expanded into one waypoint per device and instant,
    `t += interval` in ns while t <= until, sorted by (instant, device), as
    the parser once expanded roams."""
    waypoints = list(sc.waypoints)
    for roam in sc.roams:
        x0, y0, x1, y1 = roam.area
        for md in roam.mds:
            rng, t = _layout_rng(sc.params.layout_seed, f"roam:{md}"), roam.interval
            while t <= roam.until:
                waypoints.append(WaypointDecl(md, t, round(rng.uniform(x0, x1), 3),
                                              round(rng.uniform(y0, y1), 3), line=roam.line))
                t += roam.interval
    return replace(sc, waypoints=sorted(waypoints, key=lambda w: (w.t, w.md)), roams=[])


@pytest.mark.parametrize("name,overrides", [
    ("roam-order", {}),
    ("roam-merge", {}),
    ("fig5", {"duration": "8.0", "layout_seed": "7"}),  # a roam keeps the layout seed it was parsed with
    ("fig5", {"mode": "LEDGE-PAP"}),
])
def test_roams_drawn_by_the_world_match_their_waypoints_expanded(name, overrides):
    texts = {"roam-order": ROAM_ORDER, "roam-merge": ROAM_MERGE}
    sc = parse_scenario_text(texts[name], name) if name in texts else parse_scenario(bundled_scenario_path(name))
    assert sc.roams and not any(wp.line == sc.roams[0].line for wp in sc.waypoints)
    params = apply_overrides(sc.params, overrides)
    drawn, expanded = World(sc, params), World(with_roams_expanded(sc), params)
    reports = drawn.run(), expanded.run()
    assert first_difference(render_json(reports[0]), render_json(reports[1])) is None
    assert first_difference(render_csv(reports[0]), render_csv(reports[1])) is None
    assert drawn.engine.executed == expanded.engine.executed


def test_a_roam_moves_no_device_past_the_horizon():
    # fig5's roam runs to 18 s; at `duration=5` its instants after 5 s would
    # never run, so none is scheduled or drawn: the run is that of a roam to 5 s
    text = bundled_scenario_path("fig5").read_text()
    short = text.replace("roam M* interval=2.0 until=18.0", "roam M* interval=2.0 until=5.0", 1)
    assert short != text
    worlds = []
    for t in (text, short):
        sc = parse_scenario_text(t, "fig5")
        worlds.append(World(sc, apply_overrides(sc.params, {"duration": "5"})))
    reports = [w.run() for w in worlds]
    assert first_difference(render_json(reports[0]), render_json(reports[1])) is None
    assert first_difference(render_csv(reports[0]), render_csv(reports[1])) is None
    assert [kind for _, _, kind, _, _ in worlds[0].engine._heap if kind == "md-move"] == []


def test_a_failed_move_names_its_instant():
    sc = batched_moves_scenario((1.0, [1, 2, 3]), [], "0.0", [])
    sc.waypoints.append(WaypointDecl("GHOST", 2 * 10**9, 0.0, 0.0))
    with pytest.raises(SimulationHalted, match=r"t=2\.0 \(md-move 'move'\)"):
        World(sc).run()


class PerCallBeaconWorld(World):
    """The oracle of batched beacon deliveries: recipient by recipient, in
    name order, `receive_beacon` and then, when the device is served by a
    grouped AP and holds no grant of that group's current epoch, a full
    wallet scan by `authenticate`, as deliveries ran before they were batched."""

    def _deliver_key(self, ap_name, recipients):
        now, authn, serving_of = self.engine.now, self.authn, self.mobility.association_ap
        for md in recipients:
            authn.receive_beacon(md, ap_name, now)
            if not authn.active:
                continue
            gid = authn.group_of.get(serving_of.get(md))
            if gid is None:
                continue
            grant = authn.grants.get((md, gid))
            if grant is not None and grant == authn.epochs.get(gid):
                continue
            granted = authn.authenticate(md, gid, now).granted
            if granted != (grant is not None):  # the gate flips
                self._mark(self._md_streams.get(md, ()))
            if granted:
                self._readmit_streams(md)


def check_beacons_batched_per_delivery(sc, params):
    """The world and its per-call oracle make the same decisions, in the same
    order, and emit the same bytes. Returns the world's decision log and a
    count of its full scans (`all`), of those that a current-epoch denial's
    key, refreshed since, sent to a scan (`refreshed`), of those that
    granted on a refreshed key and a key an earlier wave brought (`later_wave`),
    of waves replayed (`replayed`), of deliveries that re-stamped their AP's
    previous entry (`restamped`), and of deliveries to the AP's previous
    recipients tuple in which a recipient's serving AP moved from one grouped
    AP to another (`serving_moved`)."""
    batched, oracle = World(sc, params), PerCallBeaconWorld(sc, params)
    authn, scans = batched.authn, Counter()
    authenticate, deliver, hear, reauthenticate = authn.authenticate, authn.deliver, authn.hear, authn.reauthenticate

    def counted_deliver(ap, recipients, serving_of, now):
        last, group_of, passes = authn._waves.get(ap), authn.group_of, scans["passes"]
        if last is not None and last[1] is recipients:
            scans.update(serving_moved=any(a != b and a in group_of and b in group_of
                                           for a, b in zip(last[2], map(serving_of.get, recipients))))
        changed = deliver(ap, recipients, serving_of, now)
        scans.update(replayed=authn.active and scans["passes"] == passes)
        return changed

    def counted_hear(ap, recipients, now):
        last = authn._heard.get(ap)
        key = hear(ap, recipients, now)
        scans.update(restamped=last is not None and authn._heard[ap][0] is last[0])
        return key

    def counted_reauthenticate(*args):
        scans.update(passes=1)
        return reauthenticate(*args)

    authn.deliver, authn.hear, authn.reauthenticate = counted_deliver, counted_hear, counted_reauthenticate

    def scan(md, gid, now):
        denial = authn.denials.get((md, gid))
        refreshed = denial is not None and denial[0] == authn.epochs[gid]
        decision = authenticate(md, gid, now)
        held = authn.wallets[md]
        earlier = decision.granted and any(held[ap].received_at < now for ap in authn.groups[gid].members)
        scans.update(all=1, refreshed=refreshed, later_wave=refreshed and earlier)
        return decision

    authn.authenticate = scan
    reports = batched.run(), oracle.run()
    log, expected = authn.auth_log, oracle.authn.auth_log
    assert list(log) == list(expected)  # all six fields, in decision order
    assert log.grants == expected.grants == reports[1].summary()["auth_grants"]
    assert first_difference(render_json(reports[0]), render_json(reports[1])) is None
    assert first_difference(render_csv(reports[0]), render_csv(reports[1])) is None
    return log, scans


def test_beacons_batched_per_delivery_match_one_call_per_recipient():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    instants = st.sampled_from(MOVE_INSTANTS)
    seen = Counter()

    @hypothesis.settings(max_examples=60, deadline=None)
    # M1-M3 enter AP2's spot and are served by AP3; when AP3 fails they move
    # to AP2, whose roster does not change: its next wave must decide them
    @hypothesis.example(batch=(1.0, [1, 2, 3]), moves=[], mode="LEDGE-LA", start="0.0", failures=[(3, 2.0)],
                        key_freshness="0.05", ap3="45,0")
    @hypothesis.given(
        batch=st.tuples(instants, st.lists(st.integers(1, 6), min_size=3, max_size=6, unique=True)),
        # moves into G1's overlap and out of it, to one member, or away
        moves=st.lists(st.tuples(st.integers(1, 6), instants, st.integers(0, len(SPOTS) - 1)), max_size=8),
        mode=st.sampled_from(["LEDGE-LA", "LEDGE-PAP"]),
        start=st.sampled_from(["0.0", "1.0", "2.25"]),
        # AP1 and AP2 are G1's members; rotations fall at 1.5 and 3.0
        failures=st.lists(st.tuples(st.integers(1, 3), st.sampled_from((1.0, 2.0, 2.5, 3.0))), max_size=2),
        # beacons come every 0.1 s: a window of several waves keeps a key
        # fresh after its device has left the AP, so a key that a later wave
        # brings can turn a denial into a grant inside the window; at 0.1 a
        # previous wave's key sits exactly on the window's edge
        key_freshness=st.sampled_from(["0.05", "0.1", "0.35", "2.0"]),
        # with ungrouped AP3 over AP2's spot, a device can change between a
        # grouped and an ungrouped serving AP and stay on AP2's roster
        ap3=st.sampled_from(["60,0", "45,0"]),
    )
    def check(batch, moves, mode, start, failures, key_freshness, ap3):
        sc = batched_moves_scenario(batch, moves, start, failures, ap3)
        params = apply_overrides(sc.params, {"mode": mode, "key_freshness": key_freshness})
        log, scans = check_beacons_batched_per_delivery(sc, params)
        seen.update({mode: 1, "skipped_scans": len(log) > scans["all"], "refreshed": scans["refreshed"] > 0,
                     "later_wave": scans["later_wave"] > 0, "rotated": len({d.epoch for d in log}) > 1,
                     "failed_member": any(i < 3 for i, _ in failures),
                     "long_window": float(key_freshness) > params.beacon_period,
                     "replayed": scans["replayed"] > 0, "restamped": scans["restamped"] > 0,
                     "serving_moved": scans["serving_moved"] > 0})

    check()
    assert all(seen[k] for k in ("LEDGE-LA", "LEDGE-PAP", "skipped_scans", "refreshed", "later_wave",
                                 "rotated", "failed_member", "long_window", "replayed", "restamped",
                                 "serving_moved")), seen


class EveryDecisionWorld(PerCallBeaconWorld):
    """The oracle of the decision log: one `AuthDecision` kept per
    `authenticate` call, as that call returned it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.decisions = []
        authenticate = self.authn.authenticate

        def kept(md, gid, now):
            decision = authenticate(md, gid, now)
            self.decisions.append(decision)
            return decision

        self.authn.authenticate = kept


def test_the_decision_log_matches_one_decision_per_authenticate_call():
    hypothesis = pytest.importorskip("hypothesis")
    from test_report_render import reference_csv, reference_json

    st = hypothesis.strategies
    instants = st.sampled_from(MOVE_INSTANTS)
    seen = Counter()

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(
        batch=st.tuples(instants, st.lists(st.integers(1, 6), min_size=3, max_size=6, unique=True)),
        # moves into G1's overlap and out of it, to one member, or away
        moves=st.lists(st.tuples(st.integers(1, 6), instants, st.integers(0, len(SPOTS) - 1)), max_size=8),
        mode=st.sampled_from(["LEDGE-LA", "LEDGE-PAP"]),
        start=st.sampled_from(["0.0", "1.0", "2.25"]),
        # AP1 and AP2 are G1's members; rotations fall at 1.5 and 3.0
        failures=st.lists(st.tuples(st.integers(1, 3), st.sampled_from((1.0, 2.0, 2.5, 3.0))), max_size=2),
    )
    def check(batch, moves, mode, start, failures):
        sc = batched_moves_scenario(batch, moves, start, failures)
        world = EveryDecisionWorld(sc, apply_overrides(sc.params, {"mode": mode}))
        report = world.run()
        log, decisions = report.auth_events, world.decisions
        assert log is world.authn.auth_log
        assert list(log) == decisions  # all six fields, in decision order
        assert len(log) == len(decisions)
        grants = sum(d.granted for d in decisions)
        assert log.grants == grants == report.summary()["auth_grants"]
        assert first_difference(render_json(report), reference_json(report)) is None
        assert first_difference(render_csv(report), reference_csv(report)) is None
        seen.update(grants=grants > 0, failed_member=any(i < 3 for i, _ in failures),
                    rotated=len({d.epoch for d in decisions}) > 1, denied=len(decisions) > grants)

    check()
    assert all(seen[k] for k in ("grants", "failed_member", "rotated", "denied")), seen


CTRL_FAIL = """
[params]
m = 5
duration = 8.0
r = 2
[topology]
controller C3 key=3
controller C10 key=10
controller C16 key=16
switch SW1
ap AP1 pos=0,0 radius=10 capacity=11 techs=wifi partition=C3
ap AP2 pos=40,0 radius=10 capacity=11 techs=wifi partition=C10
ap AP3 pos=80,0 radius=10 capacity=11 techs=wifi partition=C16
md M7 pos=80,2
link AP1 SW1 latency=0.001 rate=100
link AP2 SW1 latency=0.001 rate=100
link AP3 SW1 latency=0.001 rate=100
link SW1 C3 latency=0.001 rate=100
link SW1 C10 latency=0.001 rate=100
link SW1 C16 latency=0.001 rate=100
[flows]
flow F1 md=M7 dst=SW1 type=tcp demand=2 tech=wifi start=0.0
[traces]
move M7 5.0 0,2 staying
[failures]
fail controller C16 at=3.0
"""


def test_controller_crash_before_handover_uses_replica_session():
    # M7 starts under C16; C16 dies at t=3; the move at t=5 still hands the
    # session over to C3, served from C16's successor replica
    world = World(parse_scenario_text(CTRL_FAIL, "ctrlfail"))
    report = world.run()
    assert report.record_losses == []
    rec = world.mobility.get_supervisory("M7")
    assert world.name_of[rec.current] == "C3"
    handover = [h for h in world.handover_rows if h["kind"] in ("reassociate", "pap-migrate")]
    assert handover and handover[0]["to_controller"] == "C3"
    # stream recovers after the move into AP1 coverage
    assert first_nonzero_after(report.series("F1"), 5.0) is not None


def test_packet_in_follows_ap_failure_and_adoption():
    # AP5 (C1) fails at t=1: its arrivals stop, so C1 is no longer saturated.
    # C2 crashes at t=3 and C3 adopts AP2 and AP6: their arrivals go to C3
    # from then on, and C2 keeps what it served before the crash.
    text = bundled_scenario_path("fig5c").read_text()
    text += "\n[failures]\nfail ap AP5 at=1.0\nfail controller C2 at=3.0\n"
    world = World(parse_scenario_text(text, "fig5c-failures"))
    report = world.run()
    assert world.partition_of["AP2"] == world.partition_of["AP6"] == "C3"
    assert report.packet_in == {"C1": 4401, "C2": 2400, "C3": 5000, "C4": 5000}


@pytest.mark.parametrize("delay", ["0.5", "2.0"])
def test_crashed_controller_serves_no_packet_ins_before_adoption(delay):
    # C2 crashes at t=3 and is adopted `delay` later: the arrivals of AP2 and
    # AP6 in between are lost, so C2 keeps its 2400 from before the crash
    text = bundled_scenario_path("fig5c").read_text()
    text += "\n[failures]\nfail ap AP5 at=1.0\nfail controller C2 at=3.0\n"
    sc = parse_scenario_text(text, "fig5c-failures")
    world = World(sc, apply_overrides(sc.params, {"detection_delay": delay}))
    report = world.run()
    assert world.partition_of["AP2"] == world.partition_of["AP6"] == "C3"
    assert report.packet_in == {"C1": 4401, "C2": 2400, "C3": 5000, "C4": 5000}


def fig5c_world(failures=(), service_time="0.002", window="", rate="400", world=World, **overrides):
    """Bundled fig5c as a `world`, with its workload's rate, service time and
    window edited and `failures` appended."""
    text = bundled_scenario_path("fig5c").read_text()
    workload = f"rate_per_ap={rate} service_time={service_time}{window}"
    text = text.replace("rate_per_ap=400 service_time=0.002", workload, 1)
    if failures:
        text += "\n[failures]\n" + "".join(f"{f}\n" for f in failures)
    sc = parse_scenario_text(text, "fig5c-variant")
    return world(sc, apply_overrides(sc.params, {k: str(v) for k, v in overrides.items()}))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_packet_in_counts_per_cluster_size(n):
    report = fig5c_world(controllers=n).run()
    assert report.packet_in == {f"C{i}": 5000 for i in range(1, n + 1)}


@pytest.mark.parametrize("service_time", ["0.002", "0"])
def test_a_packet_in_window_that_starts_after_it_ends_serves_nothing(service_time):
    world = fig5c_world(service_time=service_time, window=" start=5 until=3")
    assert world.run().packet_in == {f"C{i}": 0 for i in range(1, 5)}
    assert world._pi_busy == {f"C{i}": 0 for i in range(1, 5)}


def test_packet_in_counts_inside_a_workload_window():
    report = fig5c_world(window=" start=0.5 until=7.3").run()
    assert report.packet_in == {"C1": 3400, "C2": 3400, "C3": 3400, "C4": 3400}


@pytest.mark.parametrize("i", range(1, 9))
def test_packet_in_counts_after_one_ap_fails(i):
    # the failed AP's arrival at t=2.0 is still served; its controller keeps
    # only the other AP's arrivals from then on
    report = fig5c_world([f"fail ap AP{i} at=2.0"]).run()
    expected = {"C1": 5000, "C2": 5000, "C3": 5000, "C4": 5000}
    expected[f"C{(i - 1) % 4 + 1}"] = 4801
    assert report.packet_in == expected


def test_packet_in_counts_as_every_ap_fails_in_turn():
    world = fig5c_world([f"fail ap AP{i} at={round(1.1 * i, 9)}" for i in range(1, 9)])
    report = world.run()
    assert report.packet_in == {"C1": 2642, "C2": 3522, "C3": 4402, "C4": 5000}


# AP3 fails and C1 crashes at t=2.0; C4 adopts C1's partition after the
# detection delay, and AP8 fails at t=4.0025, on an arrival instant
FIG5C_FAILURES = ("fail ap AP3 at=2.0", "fail controller C1 at=2.0", "fail ap AP8 at=4.0025")


@pytest.mark.parametrize("delay,c4", [("0", 12000), ("0.0025", 12000), ("0.004", 11998)])
def test_unsaturated_packet_in_counts_lose_the_detection_window(delay, c4):
    # at 0.5 ms per packet-in no controller is saturated, so the arrivals of
    # AP1 and AP5 lost while C1 is down show in C4's count; 0.0025 s is one
    # arrival period, so that adoption lands on an arrival instant
    world = fig5c_world(FIG5C_FAILURES, service_time="0.0005", detection_delay=delay)
    assert world.run().packet_in == {"C1": 1600, "C2": 8000, "C3": 4801, "C4": c4}


@pytest.mark.parametrize("delay", ["0", "0.0025", "0.004"])
def test_saturated_packet_in_counts_hide_the_detection_window(delay):
    world = fig5c_world(FIG5C_FAILURES, detection_delay=delay)
    assert world.run().packet_in == {"C1": 1600, "C2": 5000, "C3": 4801, "C4": 5000}


def plain_stretch(busy, t, k, m, period, service, horizon):
    """`serve_stretch`'s oracle: the arrivals one by one."""
    n = 0
    for u in range(t, t + m * period, period):
        for _ in range(k):
            done = max(busy, u) + service
            if done <= horizon:
                busy, n = done, n + 1
    return n, busy


@pytest.mark.parametrize("args", [
    (0, 0, 2, 5, 2_500_000, 0, 10_000_000),  # service 0: every arrival, busy at the last instant
    (0, 0, 2, 4001, 2_500_000, 2_000_000, 10_000_000_000),  # fig5c: saturated, 5,000 served
    (0, 0, 2, 4001, 2_500_000, 500_000, 10_000_000_000),  # unsaturated: idle before each instant
    (3_000_000, 0, 2, 10, 2_500_000, 500_000, 100_000_000),  # a backlog that drains, then idles
    (0, 0, 3, 4, 10, 3, 25),  # an instant that refuses part of its arrivals
    (0, 0, 1, 3, 10, 7, 27),  # the horizon's partial instant: 27 - 20 < 7, so it serves none
    (0, 5, 1, 1, 10, 100, 50),  # an arrival that cannot be done by the horizon: refused, busy unmoved
])
def test_a_stretch_in_closed_form_matches_the_arrivals_one_by_one(args):
    assert serve_stretch(*args) == plain_stretch(*args)


def test_generated_stretches_match_the_arrivals_one_by_one():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def stretch_args(draw):
        period = draw(st.integers(1, 50))
        t = draw(st.integers(0, 100))
        m = draw(st.integers(0, 30))
        # every instant inside the horizon, which may end anywhere after the last one
        horizon = t + max(m - 1, 0) * period + draw(st.integers(0, 200))
        # the server ahead of the clock, behind it, or idle; k * service above, at and below the period
        busy = draw(st.integers(0, horizon))
        k = draw(st.integers(1, 4))
        service = draw(st.one_of(st.just(0), st.integers(0, 3 * period), st.just(period // k)))
        return busy, t, k, m, period, service, horizon

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(args=stretch_args())
    def check(args):
        assert serve_stretch(*args) == plain_stretch(*args)

    check()


def test_a_stretch_with_service_time_0_divides_by_no_service_time():
    # with service 0 no instant is short of room, so nothing divides by it:
    # a division would raise ZeroDivisionError
    assert serve_stretch(7, 10, 3, 1000, 5, 0, 10 + 999 * 5) == (3000, 10 + 999 * 5)
    assert serve_stretch(7, 10, 3, 1000, 5, 0, 10**12) == (3000, 10 + 999 * 5)


@pytest.fixture
def stretches(monkeypatch):
    """The arguments of every closed-form stretch that a world serves while the test runs."""
    calls = []

    def counted(*args):
        calls.append(args)
        return serve_stretch(*args)

    monkeypatch.setattr(simnet, "serve_stretch", counted)
    return calls


class PerInstantPacketInWorld(World):
    """The oracle of packet-in stretches: one arrival event per instant, which
    serves the APs due then in name order and schedules the next instant, as
    arrivals ran before an event served its quiet stretch. Its times are
    integer ns, as the world's."""

    def _packet_in_arrivals(self):
        eng, w, p, aps = self.engine, self.scenario.workload, self.params, self.aps
        partition_of, busy_of, served, crashed = self.partition_of, self._pi_busy, self.packet_in, self._crashed
        horizon, service_time, period = w.horizon(ns(p.duration)), w.service_time, ns(1 / w.rate_per_ap)
        due = sorted(aps)

        def arrivals():
            nonlocal due
            now = eng.now
            for ap_name in due:
                controller = partition_of[ap_name]
                if controller in crashed:
                    continue
                busy = busy_of[controller]
                done = (busy if busy > now else now) + service_time
                if done <= horizon:
                    busy_of[controller] = done
                    served[controller] += 1
            nxt = now + period
            if nxt <= horizon:
                due = [a for a in due if aps[a].alive]
                if due:
                    eng.schedule(nxt, "message-delivery", arrivals, "packetin")

        return arrivals


def test_fig5c_serves_its_arrival_instants_in_one_event():
    # 10 s at 400 arrivals/s per AP: 4001 instants, one event each for all 8
    # APs in the oracle; with no other event pending, the world's first
    # arrival event serves them all, and the counts do not move
    oracle = fig5c_world(world=PerInstantPacketInWorld)
    oracle.engine.record_trace = True
    expected = oracle.run().packet_in
    assert oracle.engine.executed == 4001
    instants = [t for t, _, kind, note in oracle.engine.trace if kind == "message-delivery" and note == "packetin"]
    assert len(instants) == len(set(instants)) == 4001
    assert instants[:3] == [0, 2_500_000, 5_000_000] and instants[-1] == 10 * 10**9
    world = fig5c_world()
    world.engine.record_trace = True
    assert world.run().packet_in == expected == {f"C{i}": 5000 for i in range(1, 5)}
    assert world.engine.executed == 1
    assert world.engine.trace == [(0, 0, "message-delivery", "packetin")]
    assert world._pi_busy == oracle._pi_busy


def test_packet_in_arrivals_to_the_horizon_are_one_event(stretches):
    # packetin-4c's shape: each controller serves 500 of its 800 arrivals/s
    # until its busy time reaches the horizon, about t=75 s; with no other
    # event pending, the one event serves every instant to the horizon
    world = fig5c_world(controllers=4, duration=120)
    assert world.run().packet_in == {f"C{i}": 60000 for i in range(1, 5)}
    assert world.engine.executed == 1
    assert world._pi_busy == {f"C{i}": 120 * 10**9 for i in range(1, 5)}  # 60,000 times 2 ms, in ns
    # each controller's first instant, and then the 48,000 quiet ones to t=120, in closed form
    assert [m for _, _, _, m, _, _, _ in stretches] == [1] * 4 + [48000] * 4


def test_packet_in_work_does_not_grow_with_the_horizon(stretches):
    # 50 arrivals/s per AP leave each controller idle between instants, and
    # at either horizon the one event serves them in 4 + 4 closed forms
    work, counts = [], []
    for duration in (120, 12000):
        world = fig5c_world(rate="50", controllers=4, duration=duration)
        before = len(stretches)
        counts.append(world.run().packet_in)
        work.append((world.engine.executed, len(stretches) - before))
    assert work == [(1, 8)] * 2
    # every arrival but the two of the last instant, which cannot be done by the horizon
    assert counts == [{f"C{i}": 2 * 50 * d for i in range(1, 5)} for d in (120, 12000)]


def test_fig5c_serves_duration_over_service_time_per_controller():
    # saturated from t=0, each controller is busy back to back to the horizon
    assert fig5c_world().run().packet_in == {f"C{i}": 5000 for i in range(1, 5)}  # 10 s / 2 ms
    assert fig5c_world(duration=36000).run().packet_in == {f"C{i}": 18_000_000 for i in range(1, 5)}


def test_service_time_0_serves_every_arrival_up_to_the_horizon():
    # 4001 instants of 2 APs per controller, each done as it arrives
    world = fig5c_world(service_time="0")
    assert world.run().packet_in == {f"C{i}": 8002 for i in range(1, 5)}
    assert world._pi_busy == {f"C{i}": 10 * 10**9 for i in range(1, 5)}


class StretchWatchedEngine(EventEngine):
    """Records why each stretch ends: the kind of the pending event that
    bounds it, or "run end"."""

    def __init__(self):
        super().__init__()
        self.cut_by = Counter()

    def quiet_until(self):
        last = super().quiet_until()
        self.cut_by["run end" if last == self._t_end else self._heap[0][2]] += 1
        return last


class StretchWatchedWorld(World):
    def _schedule_all(self):
        self.engine = StretchWatchedEngine()  # nothing is scheduled before this
        super()._schedule_all()


def check_packet_in_stretches(failures, service_time, window, rate, cuts, **overrides):
    """The world and its per-instant oracle agree on `packet_in`, `_pi_busy`
    and the JSON report at each `run_until` cut and at the end. Returns the
    world and the oracle."""
    world = fig5c_world(failures, service_time, window, rate, StretchWatchedWorld, **overrides)
    oracle = fig5c_world(failures, service_time, window, rate, PerInstantPacketInWorld, **overrides)
    oracle.engine.record_trace = True
    for cut in [*cuts, None]:
        if cut is None:
            reports = world.run(), oracle.run()
        else:
            world.engine.run_until(ns(cut))
            oracle.engine.run_until(ns(cut))
            reports = world.record_metrics(), oracle.record_metrics()
        assert world.packet_in == oracle.packet_in, cut
        assert world._pi_busy == oracle._pi_busy, cut
        assert first_difference(render_json(reports[0]), render_json(reports[1])) is None, cut
    return world, oracle


FAILABLE = [f"ap AP{i}" for i in range(1, 9)] + [f"controller C{i}" for i in range(1, 5)]


def test_packet_in_stretches_match_one_event_per_arrival_instant():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seen = Counter()
    # the 3 s run's arrival instants at 400/s, or 1 ms after one
    at = st.builds(lambda i, offset: round(i * 0.0025 + offset, 9),
                   st.integers(0, 1199), st.sampled_from([0.0, 0.0, 0.001]))

    @hypothesis.settings(max_examples=60, deadline=None)
    # C1 is C4's predecessor on the ring: C4 has lost its APs, and C2 and C3
    # are past the horizon before C1 crashes, so only C4 can still serve,
    # and only once it has adopted AP1 and AP5
    @hypothesis.example(
        failures=[("ap AP4", 0.25), ("ap AP8", 0.25), ("controller C1", 2.0)], service_time="0.002", rate="400",
        window="", cuts=[], controllers=4, detection_delay="0.3", duration="3.0",
    )
    # unsaturated: each controller idles before the horizon's last arrivals,
    # which it refuses; C2 crashes on an arrival instant, and C3 adopts its
    # APs one arrival period later, while a cut falls between
    @hypothesis.example(
        failures=[("controller C2", 1.0)], service_time="0.0005", rate="400", window=" until=2.2",
        cuts=[0.5, 1.001], controllers=0, detection_delay="0.0025", duration="3.0",
    )
    # C2 loses all its APs and can gain none: C1 is served to the horizon in
    # one closed form, not through 47,998 instants
    @hypothesis.example(
        failures=[("ap AP2", 0.5), ("ap AP4", 0.5), ("ap AP6", 0.5), ("ap AP8", 0.5)], service_time="0.002",
        rate="400", window="", cuts=[], controllers=2, detection_delay="0", duration="120",
    )
    # the same, with C1 still to crash: idle C2 adopts AP1, AP3, AP5 and AP7
    @hypothesis.example(
        failures=[("ap AP2", 0.5), ("ap AP4", 0.5), ("ap AP6", 0.5), ("ap AP8", 0.5), ("controller C1", 2.0)],
        service_time="0.002", rate="400", window="", cuts=[], controllers=2, detection_delay="0", duration="20.0",
    )
    # unsaturated (each controller idles between instants), and the stretch
    # is cut short by AP3's failure, 1 ms after an instant
    @hypothesis.example(
        failures=[("ap AP3", 1.001)], service_time="0.0005", rate="400", window="", cuts=[], controllers=4,
        detection_delay="0", duration="3.0",
    )
    # service time 0: every arrival is served, up to the horizon
    @hypothesis.example(
        failures=[("controller C2", 1.0)], service_time="0", rate="400", window=" until=2.2", cuts=[1.5],
        controllers=0, detection_delay="0.004", duration="3.0",
    )
    # a service time with sub-ns digits: it is served as 2,000,001 ns
    @hypothesis.example(
        failures=[("ap AP1", 0.5)], service_time="0.0020000006", rate="400", window="", cuts=[0.25],
        controllers=2, detection_delay="0", duration="3.0",
    )
    @hypothesis.given(
        failures=st.lists(st.tuples(st.sampled_from(FAILABLE), at), max_size=4),
        # saturated at 0.002 s and over (800 arrivals/s per controller at 400/s per AP), unsaturated below
        service_time=st.sampled_from(["0.002", "0.004", "0.0005", "0.00125"]),
        # 333/s: a period off the 1e-9 grid, so every instant is rounded onto it
        rate=st.sampled_from(["400", "250", "1000", "333"]),
        window=st.sampled_from(["", " start=0.5", " until=2.2", " start=0.3 until=1.7"]),
        cuts=st.lists(at, max_size=3).map(sorted),
        controllers=st.integers(0, 4),
        detection_delay=st.sampled_from(["0", "0.0025", "0.004", "0.3"]),  # 0.0025 s: one period at 400/s
        # 8 s: long enough for a saturated controller to reach the horizon after the last failure
        duration=st.sampled_from(["3.0", "8.0"]),
    )
    def check(failures, service_time, rate, window, cuts, controllers, detection_delay, duration):
        lines = [f"fail {what} at={t}" for what, t in failures]
        world, oracle = check_packet_in_stretches(lines, service_time, window, rate, cuts, controllers=controllers,
                                                  detection_delay=detection_delay, duration=duration)
        eng = world.engine
        seen.update(cut_by_failure=eng.cut_by["failure"] > 0, cut_by_run_end=eng.cut_by["run end"] > 0,
                    adopted=len(world.views) < len(world.packet_in))

    check()
    assert all(seen[k] for k in ("cut_by_failure", "cut_by_run_end", "adopted")), seen


def packet_in_work(make, durations):
    """Run `make(duration)` at each of `durations` with its trace recorded,
    and assert that the run records at most one packet-in arrival entry per
    other entry, plus the first. Returns the worlds, run."""
    worlds = []
    for duration in durations:
        world = make(duration)
        world.engine.record_trace = True
        world.run()
        notes = [note for *_, note in world.engine.trace]
        arrivals = notes.count("packetin")
        assert arrivals <= len(notes) - arrivals + 1, (duration, arrivals, len(notes))
        worlds.append(world)
    return worlds


def test_an_idle_controller_adds_no_work_that_grows_with_the_horizon(stretches):
    # C2 loses its four APs at t=0.5, and with no failure to come no adoption
    # can give it more; C1 is served to either horizon in closed forms
    fails = [f"fail ap AP{i} at=0.5" for i in (2, 4, 6, 8)]
    work, counts = [], []
    for duration in (120, 1200):
        world = fig5c_world(fails, controllers=2, duration=duration)
        before = len(stretches)
        counts.append(world.run().packet_in)
        work.append((world.engine.executed, len(stretches) - before))
    assert counts == [{"C1": 60000, "C2": 804}, {"C1": 600000, "C2": 804}]
    # at either horizon: the arrivals up to t=0.5, the 4 failures, the arrivals
    # at t=0.5 (cut short by the 4 recoveries due then) and the arrivals from
    # 0.5025 on, in 4 + 2 + 2 closed forms; none grows with the horizon
    assert work == [(11, 8)] * 2


def test_packet_in_work_with_no_live_controller_does_not_grow_with_the_horizon():
    # the only controller crashes at t=1.0 and nothing can adopt its APs: the
    # arrivals after it serve nothing, where the per-instant oracle goes on
    # through the 47,600 instants left to 120 s
    world, oracle = check_packet_in_stretches(["fail controller C1 at=1.0"], "0.002", "", "400", [],
                                              controllers=1, duration=120)
    assert world.packet_in == {"C1": 3200}  # 400 instants of 8 APs, queued up to t=6.4
    assert oracle.engine.executed == 48001 + 2
    worlds = packet_in_work(lambda d: fig5c_world(["fail controller C1 at=1.0"], controllers=1, duration=d),
                            (120, 1200))
    assert [w.packet_in for w in worlds] == [{"C1": 3200}] * 2
    assert worlds[0].engine.executed == worlds[1].engine.executed


def test_packet_in_work_past_full_controllers_does_not_grow_with_the_horizon():
    # at 10 s each controller's 5,000th packet-in, at t=6.2475, fills it to
    # the horizon; AP1's failure at t=6.25 cuts the stretch there, and the
    # arrivals after it serve nothing more. At 120 s C1 is left AP5's 400/s,
    # below its 500/s: it serves all but one of its arrivals
    worlds = packet_in_work(lambda d: fig5c_world(["fail ap AP1 at=6.25"], duration=d), (10, 120))
    assert worlds[0].packet_in == {f"C{i}": 5000 for i in range(1, 5)}
    assert worlds[1].packet_in == {"C1": 2 * 2501 + 45500 - 1, "C2": 60000, "C3": 60000, "C4": 60000}
    assert worlds[0].engine.executed == worlds[1].engine.executed


def test_packet_in_events_stop_when_every_ap_has_failed():
    # the APs fail in turn, AP8 last at t=8.8: the arrival event at 8.8 serves
    # AP8's arrival there and schedules no more, at either horizon
    fails = [f"fail ap AP{i} at={round(1.1 * i, 9)}" for i in range(1, 9)]
    worlds = packet_in_work(lambda d: fig5c_world(fails, duration=d), (10, 120))
    assert worlds[0].packet_in == {"C1": 2642, "C2": 3522, "C3": 4402, "C4": 5000}
    for world in worlds:
        assert max(t for t, _, _, note in world.engine.trace if note == "packetin") == ns(8.8)
    assert worlds[0].engine.executed == worlds[1].engine.executed


def fig5_with_packet_ins(world, duration):
    """Bundled fig5, its roam, flows and sampling, with fig5c's saturated
    packet-in workload added, as a `world` run for `duration` s."""
    text = bundled_scenario_path("fig5").read_text()
    sc = parse_scenario_text(text + "\n[workload]\npacketin rate_per_ap=400 service_time=0.002\n", "fig5-packetin")
    return world(sc, apply_overrides(sc.params, {"duration": str(duration)}))


def test_packet_in_work_on_mixed_traffic_is_bounded_by_the_other_events():
    # the arrivals run between fig5's moves, flow starts and sampling ticks:
    # at most one arrival event per other event, and the counts and busy times
    # of the per-instant oracle
    worlds = packet_in_work(lambda d: fig5_with_packet_ins(World, d), (20, 60))
    for world in worlds:
        oracle = fig5_with_packet_ins(PerInstantPacketInWorld, world.params.duration)
        report = oracle.run()
        assert world.packet_in == oracle.packet_in and world._pi_busy == oracle._pi_busy
        assert first_difference(render_json(world.record_metrics()), render_json(report)) is None


def test_an_instant_off_the_ns_grid_runs_at_its_nearest_ns():
    world = World(parse_scenario_text(AP_FAIL.replace("at=2.0", "at=1.0000000004"), "apfail-off-grid"))
    world.engine.record_trace = True
    report = world.run()
    assert [t for t, _, _, note in world.engine.trace if note in ("fail:AP1", "recover:AP1")] == [10**9] * 2
    assert [h["t"] for h in report.handovers if h["kind"] == "ap-recovery"] == [1.0] * 3
    assert '"t": 1.0,' in render_json(report)


def test_crashed_controller_admits_no_flow_before_adoption():
    # C2 crashes at t=1.0 and C1 adopts its partition at t=3.0. F2 starts on
    # AP2 at t=1.5, while C2 is down: it waits unplaced, retrying at each
    # sampling instant, and its flow setup is C1's once C1 has adopted AP2
    aps = [
        "AP1 pos=0,0 radius=10 capacity=11 techs=wifi partition=C1",
        "AP2 pos=40,0 radius=10 capacity=11 techs=wifi partition=C2",
    ]
    flows = [
        "F1 md=M1 dst=C1 type=tcp demand=2 tech=wifi start=0.0",
        "F2 md=M2 dst=C1 type=tcp demand=2 tech=wifi start=1.5",
    ]
    params = ("detection_delay = 2.0", "sample_period = 0.5")
    text = star(aps, ["M1 pos=1,1", "M2 pos=41,1"], flows, controllers=("C1 key=3", "C2 key=10"),
                params=params, tail="[failures]\nfail controller C2 at=1.0\n")
    world = World(parse_scenario_text(text, "crash-admit"))
    world.engine.run_until(ns(2.9))
    assert placed_on(world) == {"F1": "AP1"}
    assert world.packet_in == {"C1": 1, "C2": 0}
    report = world.run()
    assert placed_on(world) == {"F1": "AP1", "F2": "AP2"}
    assert report.packet_in == {"C1": 2, "C2": 0}
    assert first_nonzero_after(report.series("F2"), 0.0) == 3.0


def test_world_rejects_more_controllers_than_declared():
    sc, params = load("fig2", controllers=9)  # fig2 declares 3
    with pytest.raises(UsageError, match="controllers=9 but only 3 declared"):
        World(sc, params)
    assert len(World(sc, load("fig2", controllers=2)[1]).cid_of) == 2


# --- determinism ---------------------------------------------------------------------

def test_identical_seed_runs_are_identical():
    sc, params = load("fig6", mode="LEDGE-LA")
    w1, w2 = World(sc, params), World(sc, params)
    w1.engine.record_trace = w2.engine.record_trace = True
    r1, r2 = w1.run(), w2.run()
    assert w1.engine.trace and len(w1.engine.trace) == w1.engine.executed
    assert trace_digest(w1.engine.trace) == trace_digest(w2.engine.trace)
    assert first_difference(render_csv(r1), render_csv(r2)) is None
    assert first_difference(render_json(r1), render_json(r2)) is None


def test_default_run_records_no_trace():
    sc, params = load("fig2")
    world = World(sc, params)
    world.run()
    assert world.engine.executed > 0
    assert world.engine.trace == []


def test_different_seeds_differ_in_trace_only_where_randomness_enters():
    # fig6 has no stochastic elements, so even different seeds agree on the
    # series; the report header still carries the seed
    sc, p1 = load("fig6", mode="None", seed=1)
    _, p2 = load("fig6", mode="None", seed=2)
    r1, r2 = World(sc, p1).run(), World(sc, p2).run()
    assert r1.throughput == r2.throughput
    assert render_json(r1) != render_json(r2)


# --- sampling -------------------------------------------------------------------------

# F2 starts half a period after F1; F3 starts a whole period after F1, so from
# t=1.0 on it shares F1's sample instants. M1's move lands on one of them.
SAMPLER = """
[params]
m = 5
duration = 3.0
sample_period = 0.5
[topology]
controller C1 key=3
controller C2 key=20
switch SW1
ap AP1 pos=0,0 radius=10 capacity=11 techs=wifi partition=C1
ap AP2 pos=40,0 radius=10 capacity=11 techs=wifi partition=C2
md M1 pos=1,1
md M2 pos=2,2
link AP1 SW1 latency=0.001 rate=100
link AP2 SW1 latency=0.001 rate=4
link SW1 C1 latency=0.001 rate=100
link SW1 C2 latency=0.001 rate=100
[flows]
flow F1 md=M1 dst=C1 type=tcp demand=6 tech=wifi start=0.0
flow F2 md=M2 dst=C1 type=tcp demand=2 tech=wifi start=0.25
flow F3 md=M2 dst=C1 type=tcp demand=3 tech=wifi start=0.5 end=2.5
[traces]
move M1 1.0 40,1 staying
"""


def test_sampler_rows_are_pinned():
    world = World(parse_scenario_text(SAMPLER, "sampler"))
    report = world.run()
    # the move at t=1.0 runs before that instant's samples, so F1 reads 0 from
    # 1.0 until its reassociation gap (0.508 s) has passed, then AP2's link cap
    assert report.throughput == [
        (0.0, "F1", 6.0), (0.25, "F2", 2.0), (0.5, "F1", 6.0), (0.5, "F3", 3.0),
        (0.75, "F2", 2.0), (1.0, "F1", 0.0), (1.0, "F3", 3.0), (1.25, "F2", 2.0),
        (1.5, "F1", 0.0), (1.5, "F3", 3.0), (1.75, "F2", 2.0), (2.0, "F1", 4.0),
        (2.0, "F3", 3.0), (2.25, "F2", 2.0), (2.5, "F1", 4.0), (2.5, "F3", 0.0),
        (2.75, "F2", 2.0), (3.0, "F1", 4.0),
    ]


def test_one_sampler_event_per_sample_instant():
    world = World(parse_scenario_text(SAMPLER, "sampler"))
    world.engine.record_trace = True
    report = world.run()
    starts = {(st.decl.start / 10**9, st.name) for st in world.streams.values()}
    instants = {t for t, name, _ in report.throughput if (t, name) not in starts}
    ticks = [t / 10**9 for t, _, kind, note in world.engine.trace if kind == "timer" and note == "tick"]
    assert len(instants) == 11
    assert sorted(ticks) == sorted(instants)


@pytest.mark.parametrize("end,admitted", [(2.0, 2.0), (2.05, 2.1)])
def test_waiting_flow_is_admitted_at_the_first_instant_after_room_frees(end, admitted):
    flows = [
        f"F1 md=M1 dst=C1 type=tcp demand=4 tech=wifi start=0.0 end={end}",
        "F2 md=M2 dst=C1 type=tcp demand=4 tech=wifi start=0.0",
    ]
    aps = ["AP1 pos=0,0 radius=30 capacity=5 techs=wifi partition=C1"]
    text = star(aps, ["M1 pos=1,1", "M2 pos=2,2"], flows, params=["sample_period = 0.1", "duration = 3.0"])
    world = World(parse_scenario_text(text, "full-ap"))
    world.engine.run_until(ns(admitted - 0.1))
    assert placed_on(world) == {"F1": "AP1"}  # F2 waits for room
    world.engine.run_until(ns(end))
    if end < admitted:
        assert placed_on(world) == {}  # room, but no sampling instant yet
    world.engine.run_until(ns(admitted))
    assert placed_on(world) == {"F2": "AP1"}
    report = world.run()
    assert first_nonzero_after(report.series("F2"), 0.0) == admitted
    assert all(v == 4.0 for t, v in report.series("F2") if t >= admitted)


def test_stream_starting_on_a_sampling_instant_gets_one_row_there_in_name_order():
    # AP1 has room for one flow, which F0 holds until 0.6. FA waits from
    # t=0.0; FB starts at 0.25, one of FA's sampling instants, and waits too.
    # At 0.75 both retry, the later-started FB first, and FB wins the room.
    flows = [
        "F0 md=M3 dst=C1 type=tcp demand=1 tech=wifi start=0.0 end=0.6",
        "FB md=M1 dst=C1 type=tcp demand=1 tech=wifi start=0.25",
        "FA md=M2 dst=C1 type=tcp demand=1 tech=wifi start=0.0",
    ]
    aps = ["AP1 pos=0,0 radius=30 capacity=1 techs=wifi partition=C1"]
    mds = ["M1 pos=1,1", "M2 pos=2,2", "M3 pos=3,3"]
    text = star(aps, mds, flows, params=["sample_period = 0.25", "duration = 1.5"])
    report = World(parse_scenario_text(text, "same-instant")).run()
    assert first_nonzero_after(report.series("FB"), 0.0) == 0.75
    assert all(v == 0.0 for _, v in report.series("FA"))
    keys = [(t, name) for t, name, _ in report.throughput]
    instants = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5]
    assert keys == [(0.0, "F0"), (0.0, "FA"), (0.25, "F0"), (0.25, "FA"), (0.25, "FB"), (0.5, "F0")] + [
        (t, n) for t in instants[2:] for n in ("FA", "FB")
    ]


@pytest.mark.parametrize("start,winner", [("0.30000000001", "FB"), ("0.29999999999", "FB"), ("0.3", "FB")])
def test_streams_that_meet_at_an_instant_rank_in_the_order_they_asked_for_it(start, winner):
    # F0 frees AP1's one flow of room at 0.35, and FA and FB both retry at
    # 0.4. FB's start rounds to whole ns, onto FA's instant 0.3, so the two
    # share FA's instants from then on, and FB, the later start, ranks first
    # and wins the room.
    flows = [
        "F0 md=M3 dst=C1 type=tcp demand=1 tech=wifi start=0.0 end=0.35",
        "FA md=M2 dst=C1 type=tcp demand=1 tech=wifi start=0.0",
        f"FB md=M1 dst=C1 type=tcp demand=1 tech=wifi start={start}",
    ]
    aps = ["AP1 pos=0,0 radius=30 capacity=1 techs=wifi partition=C1"]
    text = star(aps, ["M1 pos=1,1", "M2 pos=2,2", "M3 pos=3,3"], flows, params=["duration = 1.0"])
    report = CheckedWorld(parse_scenario_text(text, "rounded-race")).run()
    assert {f: first_nonzero_after(report.series(f), 0.0) for f in ("FA", "FB")} == {
        f: 0.4 if f == winner else None for f in ("FA", "FB")
    }


def test_waiters_take_the_room_later_starts_first_and_ties_in_declaration_order():
    # AP1 has room for one flow, which F0 holds until 0.95. FA waits from
    # 0.0; FB joins its chain at 0.3, and FE and FD, declared in that order,
    # at 0.6: two merges and a start tie against name order. Each release
    # admits the next waiter, the latest start first, FE before FD.
    flows = [
        "F0 md=M0 dst=C1 type=tcp demand=1 tech=wifi start=0.0 end=0.95",
        "FA md=M1 dst=C1 type=tcp demand=1 tech=wifi start=0.0",
        "FB md=M2 dst=C1 type=tcp demand=1 tech=wifi start=0.3 end=2.45",
        "FE md=M3 dst=C1 type=tcp demand=1 tech=wifi start=0.6 end=1.45",
        "FD md=M4 dst=C1 type=tcp demand=1 tech=wifi start=0.6 end=1.95",
    ]
    aps = ["AP1 pos=0,0 radius=30 capacity=1 techs=wifi partition=C1"]
    mds = [f"M{i} pos={i},1" for i in range(5)]
    text = star(aps, mds, flows, params=["sample_period = 0.1", "duration = 3.0"])
    report = CheckedWorld(parse_scenario_text(text, "rank-order")).run()
    assert {f: first_nonzero_after(report.series(f), 0.0) for f in ("FE", "FD", "FB", "FA")} == {
        "FE": 1.0, "FD": 1.5, "FB": 2.0, "FA": 2.5,
    }


def test_admission_retries_grow_with_releases_not_with_instants(monkeypatch):
    # AP1 fits one flow. F0 holds it and nine more flows wait; each release
    # admits the next. A full AP is retried only after a release there.
    calls = []
    fits = APStatus.fits
    monkeypatch.setattr(APStatus, "fits", lambda ap, demand: calls.append(ap.ap_id) or fits(ap, demand))

    def fits_calls(duration, ends):
        flows = [f"F{i} md=M{i} dst=C1 type=tcp demand=1 tech=wifi start=0.0" for i in range(10)]
        flows = [f + (f" end={ends[i]}" if i < len(ends) else "") for i, f in enumerate(flows)]
        mds = [f"M{i} pos={i},1" for i in range(10)]
        aps = ["AP1 pos=0,0 radius=30 capacity=1 techs=wifi partition=C1"]
        text = star(aps, mds, flows, params=[f"duration = {duration}"])
        calls.clear()
        report = World(parse_scenario_text(text, "full-ap")).run()
        assert [first_nonzero_after(report.series(f"F{i}"), 0.0) for i in range(len(ends) + 1)] == [
            0.0, *[round(end + 0.05, 9) for end in ends]
        ]
        return len(calls)

    no_release, one_release = fits_calls(3.0, []), fits_calls(3.0, [1.05])
    assert fits_calls(30.0, [1.05]) == one_release  # ten times the instants, no more retries
    # a release retries the first waiter only, since the room it frees fits
    # one flow: one check opens the scan, three admit it, one ends the scan
    assert fits_calls(30.0, [1.05, 2.05]) - one_release == one_release - no_release == 5


@pytest.mark.parametrize("overrides,tail,gated", [
    # the epoch-1 grant expires at 5.4, before the beacon wave at 6.0
    # grants epoch 2; the stream then pays the recovery lag
    ({"beacon_period": "1.0", "rotation_period": "5.1"}, "", (5.4, 10.1)),
    # AP2 fails, so after the rotation at 10.0 its key is missing: the
    # re-authentication at 10.005 is denied and drops the standing grant
    ({}, "\n[failures]\nfail ap AP2 at=5.0\n", (10.1, None)),
])
def test_grant_changes_reach_parked_streams(overrides, tail, gated):
    sc = parse_scenario_text(bundled_scenario_path("fig6").read_text() + tail, "fig6-grants")
    report = CheckedWorld(sc, apply_overrides(sc.params, {"mode": "LEDGE-LA", **overrides})).run()
    series = report.series("F1")
    assert next(t for t, v in series if t > 5.0 and v == 0.0) == gated[0]
    assert first_nonzero_after(series, gated[0]) == gated[1]


def test_losing_every_controller_lists_every_device_lost(tmp_path, capsys):
    # CB adopts CA's partition at t=5 and crashes at t=8, with no live
    # controller left: every registered device is lost, and the run goes on
    text = bundled_scenario_path("fig5").read_text().replace("mds M 300 ", "mds M 60 ", 1)
    text += "\n[failures]\nfail controller CA at=5.0\nfail controller CB at=8.0\n"
    world = CheckedWorld(parse_scenario_text(text, "fig5-lost"))
    report = world.run()
    assert sorted(report.record_losses) == sorted(world.mds)
    assert world.mobility.registered == {} and list(world.views) == ["CB"]  # nobody adopted CB
    path = tmp_path / "fig5-lost.scenario"
    path.write_text(text)
    assert main(["run", str(path)]) == 0
    assert "lost=60" in capsys.readouterr().out


def test_record_metrics_is_repeatable():
    world = World(parse_scenario_text(SAMPLER, "sampler"))
    report = world.run()
    assert world.record_metrics().throughput == report.throughput


def test_fig5_runs_in_under_ten_thousand_events():
    world = World(parse_scenario(bundled_scenario_path("fig5")))
    assert len(world.mds) == 300
    world.run()
    assert world.engine.executed < 10_000
