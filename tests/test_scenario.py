import pytest

from sdedge.errors import ScenarioError, UsageError
from sdedge.scenario import (
    apply_overrides,
    bundled_scenario_path,
    format_scenario,
    parse_scenario,
    parse_scenario_text,
)

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
    assert {w.t for w in sc.waypoints} == {22.1, 35.9}


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
    ("pos=5,0 radius=10", "pos=5,0 radius=0", "radius=0", "needs positive radius"),
    ("link SW1 C1", "link AP1 GHOST latency=0.001 rate=10\nlink SW1 C1", "GHOST", "undeclared node 'GHOST'"),
    ("members=AP1,AP2", "members=AP1", "group G1", "needs at least 2 member APs"),
    ("members=AP1,AP2", "members=AP1,AP9", "group G1", "undeclared AP 'AP9'"),
    ("members=AP1,AP2\n", "members=AP1,AP2\ngroup G2 members=AP2,AP1\n", "group G2", "AP AP1 is in both G1 and G2"),
    (FLOW, FLOW + "flow F1 md=M1 dst=SW1 type=udp demand=1 tech=wifi start=0\n", "type=udp", "duplicate stream"),
    (FLOW, FLOW + "flow F2 md=M9 dst=C1 type=t demand=1 tech=wifi start=0\n", "md=M9", "undeclared MD 'M9'"),
    (FLOW, FLOW + "flow F2 md=M1 dst=M1 type=t demand=1 tech=wifi start=0\n", "dst=M1", "infrastructure node"),
    (FLOW, FLOW + "flow F2 md=M1 dst=C1 type=t demand=-1 tech=wifi start=0\n", "demand=-1", "demand must be positive"),
    (FLOW, FLOW + "flow F2 md=M1 dst=C1 type=t demand=1 tech=wifi start=2 end=1\n", "end=1", "ends before"),
    ("move M1 1.0 2,2 staying\n", "move M1 1.0 2,2 staying\nmove M9 2.0 1,1\n", "move M9", "undeclared MD 'M9'"),
    ("move M1 1.0 2,2 staying\n", "move M1 1.0 2,2 staying\nmove M1 1.0 3,3\n", "3,3", "not strictly increasing"),
    ("[traces]\n", "[failures]\nfail ap AP9 at=1\n\n[traces]\n", "fail ap AP9", "undeclared ap 'AP9'"),
]


@pytest.mark.parametrize("old,new,mark,wording", CROSS_CHECKS, ids=[c[3] for c in CROSS_CHECKS])
def test_cross_check_errors_carry_their_line(old, new, mark, wording):
    text = MINI.replace(old, new, 1)
    line = next(i for i, row in enumerate(text.splitlines(), start=1) if mark in row)
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text, "bad")
    assert [ln for ln, _, msg in err.value.errors if wording in msg] == [line]
