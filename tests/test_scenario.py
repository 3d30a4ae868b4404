import fnmatch
import os
import resource
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import sdedge
from sdedge.cli import main
from sdedge.engine import ns
from sdedge.errors import ScenarioError, UsageError
from sdedge.scenario import (
    MD_STATUSES,
    APDecl,
    ControllerDecl,
    FailureDecl,
    GroupDecl,
    LinkDecl,
    MDDecl,
    Params,
    RoamDecl,
    Scenario,
    StreamDecl,
    SwitchDecl,
    WaypointDecl,
    WorkloadDecl,
    apply_overrides,
    bundled_scenario_path,
    format_scenario,
    parse_scenario,
    parse_scenario_text,
    ring_keys,
)
from sdedge.simnet import World

MINI = """
[params]
m = 5
duration = 5.0

[topology]
controller C1 key=3
switch SW1
ap AP1 pos=0,0 radius=10 capacity=11 techs=wifi partition=C1
ap AP2 pos=5,0 radius=10 capacity=11 techs=wifi partition=C1
md M1 pos=1,1
link AP1 SW1 latency=0.001 rate=100
link AP2 SW1 latency=0.001 rate=100
link SW1 C1 latency=0.001 rate=100

[groups]
group G1 members=AP1,AP2

[flows]
flow F1 md=M1 dst=C1 type=tcp demand=2 tech=wifi start=0.5

[traces]
move M1 1.0 2,2 staying
"""


def test_parse_minimal_scenario():
    sc = parse_scenario_text(MINI, "mini")
    assert sc.params.m == 5 and sc.params.duration == 5.0
    assert [c.name for c in sc.controllers] == ["C1"]
    assert len(sc.aps) == 2 and len(sc.streams) == 1 and len(sc.waypoints) == 1
    assert sc.groups[0].members == ("AP1", "AP2")


def test_bundled_fig6_contents():
    sc = parse_scenario(bundled_scenario_path("fig6"))
    assert len(sc.aps) == 3
    assert len(sc.switches) == 1
    assert len(sc.controllers) == 1
    assert len(sc.mds) == 1
    assert sc.groups[0].members == ("AP1", "AP2", "AP3")
    assert all(ap.capacity == 11.0 for ap in sc.aps)
    assert sc.params.beacon_period == 0.1
    assert sc.params.recovery_lag == 4.0
    assert {w.t for w in sc.waypoints} == {22_100_000_000, 35_900_000_000}  # ns


def test_bundled_fig5_contents():
    sc = parse_scenario(bundled_scenario_path("fig5"))
    assert len(sc.aps) == 8
    assert len(sc.controllers) == 2
    assert len(sc.mds) == 300
    assert len(sc.streams) == 300


def test_bundled_fig5c_and_fig2_parse():
    fig5c = parse_scenario(bundled_scenario_path("fig5c"))
    assert len(fig5c.controllers) == 4 and fig5c.workload is not None
    fig2 = parse_scenario(bundled_scenario_path("fig2"))
    assert [c.key for c in fig2.controllers] == [3, 10, 16]


def test_dangling_reference_is_named():
    bad = MINI + "\n[flows]\nflow F2 md=M1 dst=C1 type=tcp demand=1 tech=wifi start=0\n"
    bad = bad.replace("partition=C1", "partition=C9", 1)
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(bad, "bad")
    assert any("C9" in msg for _, _, msg in err.value.errors)


def test_all_errors_collected_not_just_first():
    bad = """
[params]
duration = -1
bogus = 3

[topology]
controller C1
ap AP1 pos=0,0 radius=10 capacity=11 techs=wifi partition=NOPE
link AP1 GHOST latency=0.001 rate=10

[flows]
flow F1 md=MISSING dst=C1 type=t demand=2 tech=wifi start=0
"""
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(bad, "bad")
    text = " | ".join(msg for _, _, msg in err.value.errors)
    assert "duration" in text
    assert "bogus" in text
    assert "NOPE" in text
    assert "GHOST" in text
    assert "MISSING" in text


def test_syntax_error_reports_line():
    bad = "[topology]\ncontroller C1\nap AP1 radius=ten pos=0,0 capacity=11 techs=wifi partition=C1\n"
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(bad, "bad")
    assert any(ln == 3 for ln, _, _ in err.value.errors)


def test_waypoints_must_increase_per_md():
    bad = MINI + "move M1 1.0 3,3 staying\n"
    with pytest.raises(ScenarioError):
        parse_scenario_text(bad, "bad")


ROAMS = """\
[params]
duration = 6.0

[topology]
controller C1
ap AP1 pos=0,0 radius=10 capacity=11 techs=wifi partition=C1
md M2 pos=1,1
md M1 pos=2,2

[traces]
"""


def _trace_errors(*lines):
    """The errors of ROAMS with `lines` in [traces], as {(line, message)}, and
    the line number of each of `lines`."""
    at = [ROAMS.count("\n") + 1 + i for i in range(len(lines))]
    try:
        parse_scenario_text(ROAMS + "".join(f"{line}\n" for line in lines), "roams")
    except ScenarioError as err:
        return {(ln, msg) for ln, _, msg in err.errors}, at
    return set(), at


def test_a_move_between_a_roams_instants_is_accepted():
    errors, _ = _trace_errors("roam M* interval=2.0", "move M1 3.0 5,5")
    assert errors == set()


@pytest.mark.parametrize("move_first,t", [
    pytest.param(False, "4.0", id="False"), pytest.param(True, "4.0", id="True"),
    # 1e-10 s after the instant is the same ns
    pytest.param(False, "4.0000000001", id="False-1e-10-after"),
    pytest.param(True, "4.0000000001", id="True-1e-10-after"),
])
def test_a_move_on_a_roam_instant_is_rejected_at_the_later_line(move_first, t):
    lines = ["roam M* interval=2.0", f"move M1 {t} 5,5"]
    errors, at = _trace_errors(*(lines[::-1] if move_first else lines))
    assert errors == {(at[1], "waypoints for M1 are not strictly increasing at t=4.0")}


def test_two_roams_on_one_md_are_accepted_while_their_instants_never_meet():
    errors, _ = _trace_errors("roam M* interval=2.0", "roam M1 interval=3.0 until=5.0")
    assert errors == set()


def test_two_roams_on_one_md_are_rejected_at_the_later_line_where_they_meet():
    errors, at = _trace_errors("roam M1 interval=3.0", "roam M* interval=2.0")
    assert errors == {(at[1], "waypoints for M1 are not strictly increasing at t=6.0")}
    # instants are multiples of the interval in whole ns: 3 * 0.1 s meets 0.3 s
    errors, at = _trace_errors("roam M2 interval=0.1 until=1.0", "move M1 0.5 1,1", "roam M* interval=0.3 until=1.0")
    assert errors == {(at[2], f"waypoints for M2 are not strictly increasing at t={t}") for t in (0.3, 0.6, 0.9)}


@pytest.mark.parametrize("roam,instants", [
    ("roam M* interval=0.1 until=0.3", [0.1, 0.2, 0.3]),  # `t += 0.1` in floats reached 0.30000000000000004
    ("roam M* interval=1e-7 until=1e-5", [i / 10**7 for i in range(1, 101)]),
])
def test_a_roams_instants_are_the_multiples_of_its_interval_up_to_until(roam, instants):
    sc = parse_scenario_text(ROAMS + roam + "\n", "roams")
    assert [t / 10**9 for t in sc.roams[0].instants()] == instants
    # a horizon inside the roam ends it there, as a shorter `until=` would
    assert sc.roams[0].instants(ns(instants[1])) == replace(sc.roams[0], until=ns(instants[1])).instants()


@pytest.mark.parametrize("duration", ["1e300", "inf"])
def test_a_roam_to_a_duration_out_of_range_is_rejected_at_the_durations_line(duration):
    # a roam without until= ends at `duration`, which is not whole ns here
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(ROAMS.replace("duration = 6.0", f"duration = {duration}") + "roam M* interval=2.0\n", "r")
    assert {(ln, msg) for ln, _, msg in err.value.errors} == {(2, "duration must be positive and finite")}


def test_a_roam_over_an_md_declared_twice_collides_with_itself():
    errors, at = _trace_errors("roam M1 interval=2.0")
    assert errors == set()
    text = ROAMS.replace("md M1 pos=2,2\n", "md M1 pos=2,2\nmd M1 pos=3,3\n") + "roam M1 interval=2.0\n"
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text, "roams")
    line = text.count("\n")
    assert {(ln, msg) for ln, _, msg in err.value.errors} == {
        (9, "duplicate node name 'M1' (md and md)"),
        *((line, f"waypoints for M1 are not strictly increasing at t={t}") for t in (2.0, 4.0, 6.0)),
    }


def test_roundtrip_is_structurally_lossless():
    for name in ("fig2", "fig5", "fig5c", "fig6"):
        sc = parse_scenario(bundled_scenario_path(name))
        again = parse_scenario_text(format_scenario(sc), name + "-rt")
        assert again == sc, f"round-trip drift in {name}"


def test_generated_mds_are_layout_seeded_not_run_seeded():
    sc1 = parse_scenario_text(
        "[params]\nseed = 1\nlayout_seed = 9\n[topology]\ncontroller C1\n"
        "ap AP1 pos=0,0 radius=50 capacity=11 techs=wifi partition=C1\nmds M 10 area=0,0,10,10\n",
        "gen",
    )
    sc2 = parse_scenario_text(
        "[params]\nseed = 2\nlayout_seed = 9\n[topology]\ncontroller C1\n"
        "ap AP1 pos=0,0 radius=50 capacity=11 techs=wifi partition=C1\nmds M 10 area=0,0,10,10\n",
        "gen",
    )
    assert sc1.mds == sc2.mds
    assert len(sc1.mds) == 10 and sc1.mds[0].name == "M001"


def test_override_unknown_key_is_usage_error():
    sc = parse_scenario_text(MINI, "mini")
    with pytest.raises(UsageError):
        apply_overrides(sc.params, {"warp_speed": "9"})
    with pytest.raises(UsageError):
        apply_overrides(sc.params, {"mode": "SOMETHING"})
    updated = apply_overrides(sc.params, {"mode": "LEDGE-PAP", "seed": "99"})
    assert updated.mode == "LEDGE-PAP" and updated.seed == 99
    assert updated.personal_ap_enabled


@pytest.mark.parametrize(
    "key,value",
    [("r", "0"), ("m", "1"), ("m", "33"), ("duration", "0"),
     ("sample_period", "0"), ("beacon_period", "-1"), ("rotation_period", "0"), ("controllers", "-1"),
     ("detection_delay", "-1"), ("regrant_grace", "-1"), ("link_latency", "-1"), ("duration", "inf"),
     ("key_freshness", "nan")],
)
def test_out_of_range_param_is_rejected_from_file_and_override(key, value):
    sc = parse_scenario_text(MINI, "mini")
    with pytest.raises(UsageError, match=key):
        apply_overrides(sc.params, {key: value})
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(MINI.replace("duration = 5.0\n", f"duration = 5.0\n{key} = {value}\n"), "bad")
    assert [ln for ln, _, _ in err.value.errors] == [5]  # the line that set it


FLOW = "flow F1 md=M1 dst=C1 type=tcp demand=2 tech=wifi start=0.5\n"


# (text in MINI, its replacement, a mark of the bad line, the error's wording)
CROSS_CHECKS = [
    ("md M1 pos=1,1\n", "md M1 pos=1,1\nmd AP1 pos=2,2\n", "md AP1", "duplicate node name 'AP1'"),
    ("m = 5\n", "m = 5\ncontrollers = 9\n", "controllers = 9", "controllers=9 but only 1 declared"),
    ("partition=C1", "partition=C9", "partition=C9", "undeclared controller 'C9'"),
    ("pos=5,0 radius=10", "pos=5,0 radius=0", "radius=0", "bad value for radius: '0'"),
    ("link SW1 C1", "link AP1 GHOST latency=0.001 rate=10\nlink SW1 C1", "GHOST", "undeclared node 'GHOST'"),
    ("members=AP1,AP2", "members=AP1", "group G1", "needs at least 2 member APs"),
    ("members=AP1,AP2", "members=AP1,AP9", "group G1", "undeclared AP 'AP9'"),
    ("members=AP1,AP2\n", "members=AP1,AP2\ngroup G2 members=AP2,AP1\n", "group G2", "AP AP1 is in both G1 and G2"),
    (FLOW, FLOW + "flow F1 md=M1 dst=SW1 type=udp demand=1 tech=wifi start=0\n", "type=udp", "duplicate stream"),
    (FLOW, FLOW + "flow F2 md=M9 dst=C1 type=t demand=1 tech=wifi start=0\n", "md=M9", "undeclared MD 'M9'"),
    (FLOW, FLOW + "flow F2 md=M1 dst=M1 type=t demand=1 tech=wifi start=0\n", "dst=M1", "infrastructure node"),
    (FLOW, FLOW + "flow F2 md=M1 dst=C1 type=t demand=-1 tech=wifi start=0\n", "demand=-1",
     "bad value for demand: '-1'"),
    (FLOW, FLOW + "flow F2 md=M1 dst=C1 type=t demand=1 tech=wifi start=2 end=1\n", "end=1", "ends before"),
    ("move M1 1.0 2,2 staying\n", "move M1 1.0 2,2 staying\nmove M9 2.0 1,1\n", "move M9", "undeclared MD 'M9'"),
    ("move M1 1.0 2,2 staying\n", "move M1 1.0 2,2 staying\nmove M1 1.0 3,3\n", "3,3", "not strictly increasing"),
    # times 1e-10 s apart are one ns: one instant
    ("move M1 1.0 2,2 staying\n", "move M1 1.0 2,2 staying\nmove M1 1.0000000001 3,3\n", "3,3",
     "increasing at t=1.0"),
    (FLOW, FLOW + "flow F2 md=M1 dst=C1 type=t demand=1 tech=wifi start=1 end=1.0000000001\n", "F2",
     "F2 ends before"),
    ("[traces]\n", "[failures]\nfail ap AP9 at=1\n\n[traces]\n", "fail ap AP9", "undeclared ap 'AP9'"),
]


@pytest.mark.parametrize("old,new,mark,wording", CROSS_CHECKS, ids=[c[3] for c in CROSS_CHECKS])
def test_cross_check_errors_carry_their_line(old, new, mark, wording):
    text = MINI.replace(old, new, 1)
    line = next(i for i, row in enumerate(text.splitlines(), start=1) if mark in row)
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text, "bad")
    assert [ln for ln, _, msg in err.value.errors if wording in msg] == [line]


# every section, each open for one inserted line right below its header
GRAMMAR_BASE = """\
[topology]
controller C1
switch SW1
ap AP1 pos=0,0 radius=10 capacity=11 techs=wifi partition=C1
ap AP2 pos=5,0 radius=10 capacity=11 techs=wifi partition=C1
md M1 pos=1,1
link SW1 C1 latency=0.001 rate=100

[groups]

[flows]

[traces]

[failures]

[workload]
"""

_FLOW_ARGS = "md=M1 dst=C1 type=tcp demand=2 tech=wifi start=0"
# directive -> (section, a missing positional or required argument, a bad value,
# an unknown key, a bare token with no `=`); a switch's only argument is its
# name, and any token is a name, so it has no bad value
BAD_LINES = {
    "controller": ("topology", "controller", "controller C2 key=x", "controller C2 colour=red", "controller C2 red"),
    "switch": ("topology", "switch", None, "switch SW2 colour=red", "switch SW2 red"),
    "ap": ("topology", "ap pos=0,0 radius=10 capacity=11 techs=wifi partition=C1",
           "ap AP3 pos=0,x radius=10 capacity=11 techs=wifi partition=C1",
           "ap AP3 pos=0,0 radius=10 capacity=11 techs=wifi partition=C1 colour=red",
           "ap AP3 pos=0,0 radius=10 capacity=11 techs=wifi partition=C1 red"),
    "md": ("topology", "md", "md M2 pos=1", "md M2 speed=1", "md M2 1,1"),
    "mds": ("topology", "mds M area=0,0,1,1", "mds M 3 area=0,0,1", "mds M 3 area=0,0,1,1 shape=disc",
            "mds M 3 0,0,1,1"),
    "link": ("topology", "link SW1 latency=0.001 rate=100", "link AP1 SW1 latency=fast rate=100",
             "link AP1 SW1 latency=0.001 rate=100 loss=0", "link AP1 SW1 0.001 rate=100"),
    "group": ("groups", "group members=AP1,AP2", "group G1 members=,", "group G1 members=AP1,AP2 colour=red",
              "group G1 AP1,AP2"),
    "flow": ("flows", f"flow {_FLOW_ARGS}", f"flow F1 {_FLOW_ARGS.replace('demand=2', 'demand=lots')}",
             f"flow F1 {_FLOW_ARGS} prio=1", f"flow F1 {_FLOW_ARGS} urgent"),
    "flows": ("flows", f"flows {_FLOW_ARGS.replace('M1', 'M*')}",
              f"flows F {_FLOW_ARGS.replace('start=0', 'start=soon')}",
              f"flows F {_FLOW_ARGS} prio=1", f"flows F {_FLOW_ARGS} urgent"),
    "move": ("traces", "move M1 2,2", "move M1 soon 2,2", "move M1 2.0 2,2 speed=1", "move M1 2.0 2,2 staying extra"),
    "roam": ("traces", "roam interval=1", "roam M* interval=x", "roam M* interval=1 speed=2",
             "roam M* interval=1 fast"),
    "fail": ("failures", "fail ap at=1", "fail ap AP1 at=later", "fail ap AP1 at=1 for=2", "fail ap AP1 1"),
    "packetin": ("workload", "packetin service_time=0.001", "packetin rate_per_ap=x service_time=0.001",
                 "packetin rate_per_ap=1 service_time=0.001 burst=2", "packetin rate_per_ap=1 service_time=0.001 2"),
}
GRAMMAR_CASES = [
    pytest.param(section, bad, id=f"{head}-{kind}")
    for head, (section, *bad_lines) in BAD_LINES.items()
    for kind, bad in zip(("missing", "bad-value", "unknown-key", "bare-token"), bad_lines)
    if bad is not None
]


def _with_line(section, bad, tmp_path):
    """GRAMMAR_BASE with `bad` below the header of `section`, written to a
    file, and the number of that line."""
    text = GRAMMAR_BASE.replace(f"[{section}]\n", f"[{section}]\n{bad}\n", 1)
    path = tmp_path / "grammar.scenario"
    path.write_text(text)
    return text, path, text.splitlines().index(bad) + 1


@pytest.mark.parametrize("section,bad", GRAMMAR_CASES + [
    pytest.param(section, bad, id=bad) for section, bad in [
        ("flows", "flow F1 md=M1 dst=C1 type=tcp demand=2 tech=wifi start=-1"),
        ("flows", "flow F1 md=M1 dst=C1 type=tcp demand=2 tech=wifi start=nan"),
        ("flows", "flow F1 md=M1 dst=C1 type=tcp demand=inf tech=wifi start=0"),
        ("flows", "flows F md=M* dst=C1 type=tcp demand=2 tech=wifi start=0 end=inf"),
        ("traces", "move M1 -3 2,2"),
        ("traces", "move M1 1 2,nan"),
        ("topology", "md M2 pos=inf,1"),
        ("topology", "ap AP3 pos=0,0 radius=nan capacity=11 techs=wifi partition=C1"),
        ("topology", "mds M 3 area=0,0,inf,1"),
        ("topology", "link AP1 SW1 latency=nan rate=100"),
        ("topology", "link AP1 SW1 latency=-0.001 rate=100"),
        ("topology", "link AP1 SW1 latency=0.001 rate=-1"),
        ("topology", "mds M -5 area=0,0,1,1"),
        ("topology", "mds M 2.5 area=0,0,1,1"),
        ("topology", "ap AP3 pos=0,0 radius=10 capacity=-0.0 techs=wifi partition=C1"),
        ("flows", "flow F1 md=M1 dst=C1 type=tcp demand=0 tech=wifi start=0"),
        ("failures", "fail ap AP1 at=-2"),
        ("workload", "packetin rate_per_ap=1 service_time=0.001 start=-1"),
        ("workload", "packetin rate_per_ap=1 service_time=nan until=5"),
        ("workload", "packetin rate_per_ap=-1 service_time=0.001"),
        ("workload", "packetin rate_per_ap=1 service_time=-0.5"),
    ]
])
def test_each_bad_directive_line_is_rejected_at_its_line(section, bad, tmp_path, capsys):
    """Each bad line, in the grammar or out of an argument's domain (every
    float is finite; every time, latency, rate, service time and COUNT
    >= 0; radius, capacity and demand > 0), is rejected at its own line."""
    text, path, line = _with_line(section, bad, tmp_path)
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text, "grammar")
    assert {ln for ln, _, _ in err.value.errors} == {line}
    assert main(["validate", str(path)]) == 1
    stderr = capsys.readouterr().err
    assert f"{path}:{line}:" in stderr and "Traceback" not in stderr


@pytest.mark.parametrize("bad", ["roam M* interval=0", "roam M* interval=-1", "roam M* interval=1 until=inf",
                                 "roam M* interval=1e-6 until=1e11", "roam M* interval=1e-10",
                                 "roam M* interval=5e-10"])
def test_roam_steps_that_never_reach_the_end_are_rejected_in_time(bad, tmp_path):
    # each of these would step its instants without end unless it is rejected
    # (1e-10 and 5e-10 s are 0 ns): the parse runs in a child with a time and
    # memory limit
    _, path, line = _with_line("traces", bad, tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "sdedge.cli", "validate", str(path)], capture_output=True, text=True, timeout=10,
        env=dict(os.environ, PYTHONPATH=str(Path(sdedge.__file__).parents[1])),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
    )
    assert proc.returncode == 1 and f"{path}:{line}:" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("key,value", [("sample_period", "4e-10"), ("sample_period", "1e-12"),
                                       ("beacon_period", "1e-12"), ("rotation_period", "1e-12")])
def test_a_period_that_cannot_move_the_clock_is_rejected(key, value):
    # instants are rounded to 1e-9 s: such a period would repeat one instant
    fig6 = parse_scenario(bundled_scenario_path("fig6")).params
    with pytest.raises(UsageError, match=key):
        apply_overrides(fig6, {"mode": "LEDGE-LA", key: value})
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(MINI.replace("duration = 5.0\n", f"duration = 5.0\n{key} = {value}\n"), "bad")
    assert [ln for ln, _, _ in err.value.errors] == [5]  # the line that set it


def test_a_packetin_period_that_cannot_move_the_clock_is_rejected():
    text = bundled_scenario_path("fig5c").read_text()
    line = text.splitlines().index("packetin rate_per_ap=400 service_time=0.002") + 1
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text.replace("rate_per_ap=400", "rate_per_ap=1e12"), "fig5c")
    assert [ln for ln, _, _ in err.value.errors] == [line]
    # a period of 6e-10 s is 1 ns, which moves the printed clock at the
    # file's 10 s, and at 1e7 s, where floats are 1.86e-9 s apart, but not at
    # 1e8 s, where they are 1.49e-8 s apart
    sc = parse_scenario_text(text.replace("rate_per_ap=400", f"rate_per_ap={1 / 6e-10!r}"), "fig5c")
    World(sc)
    World(sc, replace(sc.params, duration=1e7))
    with pytest.raises(UsageError, match=f"fig5c:{line}: packetin"):
        World(sc, replace(sc.params, duration=1e8))


def test_a_packetin_period_that_rounds_to_0_ns_is_rejected():
    # 2e9 arrivals/s is a period of 0.5 ns, 0 in whole ns, though
    # 10 + 5e-10 s prints apart from 10 s
    text = bundled_scenario_path("fig5c").read_text()
    line = text.splitlines().index("packetin rate_per_ap=400 service_time=0.002") + 1
    assert 10.0 + 1 / 2e9 > 10.0
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text.replace("rate_per_ap=400", "rate_per_ap=2e9"), "fig5c")
    assert [ln for ln, _, _ in err.value.errors] == [line]


@pytest.mark.parametrize("rate", ["1e-300", "5e-324"])
def test_a_packetin_period_with_no_whole_ns_is_rejected(rate):
    # 1/rate_per_ap is not finite in ns: rejected at its line, with no OverflowError
    text = bundled_scenario_path("fig5c").read_text()
    line = text.splitlines().index("packetin rate_per_ap=400 service_time=0.002") + 1
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text.replace("rate_per_ap=400", f"rate_per_ap={rate}"), "fig5c")
    assert [ln for ln, _, _ in err.value.errors] == [line]


def test_formatted_scenarios_parse_back_equal():
    """`format_scenario` then `parse_scenario_text` gives back the scenario,
    over generated concrete scenarios that use every concrete directive, each
    optional argument left at its default or set (`key=`, `md` without `pos`,
    `end=`, STATUS, `packetin` `start=` and `until=`). A declared time is the
    ns that the parser makes of a float of seconds, up to 1e12 s; an int that
    no float maps to is never parsed, and need not print back."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    number = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    positive = st.floats(1e-3, 1e6)
    nonnegative = st.floats(0, 1e6)
    time = st.floats(0, 1e12).map(ns)

    @st.composite
    def scenarios(draw):
        controllers = [ControllerDecl(f"C{i}", draw(st.none() | st.integers(0, 2**16 - 1)))
                       for i in range(draw(st.integers(1, 3)))]
        hypothesis.assume(not ring_keys(controllers, 16)[1])
        switches = [SwitchDecl(f"SW{i}") for i in range(draw(st.integers(0, 2)))]
        aps = [APDecl(f"AP{i}", draw(number), draw(number), draw(positive), draw(positive),
                      tuple(draw(st.lists(st.sampled_from(["wifi", "lte"]), min_size=1, max_size=2))),
                      draw(st.sampled_from(controllers)).name)
               for i in range(draw(st.integers(1, 3)))]
        mds = [MDDecl(f"M{i}", *draw(st.none() | st.tuples(number, number)) or (None, None))
               for i in range(draw(st.integers(1, 3)))]
        infra = [d.name for d in controllers + switches + aps]
        links = [LinkDecl(draw(st.sampled_from(infra)), draw(st.sampled_from(infra + [m.name for m in mds])),
                          draw(nonnegative), draw(nonnegative))
                 for _ in range(draw(st.integers(0, 2)))]
        groups = [GroupDecl("G1", tuple(a.name for a in aps))] if len(aps) > 1 and draw(st.booleans()) else []
        streams = []
        for i in range(draw(st.integers(0, 2))):
            start = draw(time)
            end = draw(st.none() | st.floats(start / 10**9, 2e12).map(ns).filter(lambda t: t > start))
            streams.append(StreamDecl(f"F{i}", draw(st.sampled_from(mds)).name, draw(st.sampled_from(infra)),
                                      draw(st.sampled_from(["tcp", "udp"])), draw(positive), "wifi", start, end))
        waypoints = sorted(
            (WaypointDecl(m.name, t, draw(number), draw(number), draw(st.sampled_from(MD_STATUSES)))
             for m in mds for t in draw(st.sets(time, max_size=2))),
            key=lambda w: (w.t, w.md),
        )
        failures = [FailureDecl(kind, draw(st.sampled_from(controllers if kind == "controller" else aps)).name,
                                draw(time))
                    for kind in draw(st.lists(st.sampled_from(["controller", "ap"]), max_size=2))]
        workload = draw(st.none() | st.builds(WorkloadDecl, st.floats(0.1, 1e3), positive.map(ns), time,
                                              st.none() | time))
        names = [m.name for m in mds]
        patterns = [p for p in ("M*", "*", "M0", "M1", "M[12]") if fnmatch.filter(names, p)]
        roams = []
        for _ in range(draw(st.integers(0, 2))):
            pattern, interval = draw(st.sampled_from(patterns)), draw(st.floats(1e-3, 1e3))
            roams.append(RoamDecl(pattern, tuple(fnmatch.filter(names, pattern)), ns(interval),
                                  ns(draw(st.floats(0, 20 * interval))), tuple(draw(number) for _ in range(4))))
        for md in names:  # a parsed MD's waypoint times never repeat
            times = [w.t for w in waypoints if w.md == md] + [t for r in roams if md in r.mds for t in r.instants()]
            hypothesis.assume(len(times) == len(set(times)))
        return Scenario("gen", Params(), controllers, switches, aps, mds, links, groups, streams, waypoints,
                        failures, workload, roams)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(sc=scenarios())
    def roundtrip(sc):
        assert parse_scenario_text(format_scenario(sc), "gen") == sc

    roundtrip()
