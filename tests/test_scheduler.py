import random

import pytest

from sdedge.errors import NoApAvailable, OracleTooLarge, UnmatchedRelease
from sdedge.scheduler import (
    APStatus,
    Assignment,
    FlowRequest,
    PartitionView,
    ViewEvent,
    assign_flows_greedy,
    brute_force_assign,
    select_ap_for_join,
    update_partition_view,
)


def view_with(aps) -> PartitionView:
    return PartitionView(controller="C1", ap_status={ap.ap_id: ap for ap in aps})


def simple_view(*caps, techs=("wifi",)) -> PartitionView:
    return view_with(
        [APStatus(f"AP{i+1}", capacity=c, radio_techs=frozenset(techs)) for i, c in enumerate(caps)]
    )


# --- view maintenance -------------------------------------------------------

def test_flow_start_reserves_demand():
    view = simple_view(11.0)
    update_partition_view(view, ViewEvent("flow-start", ap_id="AP1", flow_id="F1", demand=2.0))
    assert view.ap_status["AP1"].load == 2.0
    assert view.ap_status["AP1"].residual == 9.0


def test_flow_end_releases_exactly_what_was_reserved():
    view = simple_view(11.0)
    update_partition_view(view, ViewEvent("flow-start", ap_id="AP1", flow_id="F1", demand=2.5))
    update_partition_view(view, ViewEvent("flow-end", flow_id="F1"))
    assert view.ap_status["AP1"].load == 0.0
    assert view.open_flows == {}


def test_flow_end_without_start():
    view = simple_view(11.0)
    with pytest.raises(UnmatchedRelease):
        update_partition_view(view, ViewEvent("flow-end", flow_id="F9"))


# --- greedy assignment --------------------------------------------------------

def test_single_request_single_ap():
    view = simple_view(11.0)
    req = FlowRequest("M1", "video", 4.0, "wifi")
    out = assign_flows_greedy([req], view)
    assert out.placements[req] == "AP1"
    assert out.utility == 4.0


def test_two_large_flows_split_across_aps():
    view = simple_view(11.0, 11.0)
    reqs = [FlowRequest("M1", "video", 7.0, "wifi"), FlowRequest("M2", "video", 7.0, "wifi")]
    out = assign_flows_greedy(reqs, view)
    assert sorted(ap for ap in out.placements.values()) == ["AP1", "AP2"]
    oracle = brute_force_assign(reqs, view)
    assert out.utility == oracle.utility == 14.0


def test_unsupported_technology_left_unassigned():
    view = simple_view(11.0, 11.0, techs=("wifi",))
    req = FlowRequest("M1", "sensor", 1.0, "bluetooth")
    out = assign_flows_greedy([req], view)
    assert out.placements[req] is None
    assert out.utility == 0.0


def test_greedy_never_violates_capacity_or_tech():
    rng = random.Random(17)
    for _ in range(100):
        n_aps = rng.randint(1, 4)
        view = view_with(
            [
                APStatus(
                    f"AP{i+1}",
                    capacity=rng.choice([5.0, 8.0, 11.0]),
                    radio_techs=frozenset(rng.sample(["wifi", "wimax", "bluetooth"], rng.randint(1, 3))),
                )
                for i in range(n_aps)
            ]
        )
        reqs = [
            FlowRequest(f"M{j}", "any", rng.randint(1, 8) * 1.0, rng.choice(["wifi", "wimax", "bluetooth"]))
            for j in range(rng.randint(1, 8))
        ]
        out = assign_flows_greedy(reqs, view)
        loads: dict[str, float] = {}
        for req, ap_id in out.placements.items():
            if ap_id is None:
                continue
            ap = view.ap_status[ap_id]
            assert req.required_tech in ap.radio_techs
            loads[ap_id] = loads.get(ap_id, 0.0) + req.demand
        for ap_id, load in loads.items():
            assert load <= view.ap_status[ap_id].capacity + 1e-9
        # conservation: utility equals the sum of assigned demands
        assert out.utility == pytest.approx(sum(loads.values()))


def test_greedy_is_deterministic():
    view = simple_view(11.0, 11.0, 5.0)
    reqs = [
        FlowRequest("M2", "video", 4.0, "wifi"),
        FlowRequest("M1", "video", 4.0, "wifi"),
        FlowRequest("M3", "sensor", 1.0, "wifi"),
    ]
    a = assign_flows_greedy(reqs, view)
    b = assign_flows_greedy(list(reversed(reqs)), view)
    assert a == b


# --- exhaustive oracle ---------------------------------------------------------

def test_oracle_matches_greedy_on_single_request():
    view = simple_view(11.0, 5.0)
    req = FlowRequest("M1", "video", 4.0, "wifi")
    assert brute_force_assign([req], view) == assign_flows_greedy([req], view)


def test_oracle_dominates_greedy_on_random_instances():
    rng = random.Random(23)
    for _ in range(60):
        view = view_with(
            [APStatus(f"AP{i+1}", capacity=rng.randint(4, 12) * 1.0) for i in range(3)]
        )
        reqs = [FlowRequest(f"M{j}", "any", rng.randint(1, 9) * 1.0, "wifi") for j in range(6)]
        greedy = assign_flows_greedy(reqs, view)
        oracle = brute_force_assign(reqs, view)
        assert oracle.utility >= greedy.utility - 1e-9


def test_crafted_instance_where_greedy_is_suboptimal():
    # largest-first places the 5 on the big AP; the optimum packs both 4s
    # there and sends the 5 to the small AP (13 vs 9 Mbps)
    view = simple_view(8.0, 5.0)
    reqs = [
        FlowRequest("M1", "video", 5.0, "wifi"),
        FlowRequest("M2", "video", 4.0, "wifi"),
        FlowRequest("M3", "video", 4.0, "wifi"),
    ]
    greedy = assign_flows_greedy(reqs, view)
    oracle = brute_force_assign(reqs, view)
    assert greedy.utility == 9.0
    assert oracle.utility == 13.0
    assert oracle.utility > greedy.utility


def test_oracle_guard():
    view = simple_view(*([11.0] * 5))
    reqs = [FlowRequest(f"M{j}", "any", 1.0, "wifi") for j in range(3)]
    with pytest.raises(OracleTooLarge):
        brute_force_assign(reqs, view)


# --- AP selection ---------------------------------------------------------------

def test_select_ap_max_residual():
    view = simple_view(11.0, 11.0)
    view.ap_status["AP1"].load = 2.0   # residuals: AP1 9, AP2 11
    assert select_ap_for_join("M1", None, view) == "AP2"
    view.ap_status["AP2"].load = 7.0   # residuals: AP1 9, AP2 4
    assert select_ap_for_join("M1", None, view) == "AP1"


def test_select_ap_constraint_filter_beats_residual():
    view = view_with(
        [
            APStatus("AP1", capacity=11.0, radio_techs=frozenset({"wifi"})),
            APStatus("AP2", capacity=11.0, load=6.0, radio_techs=frozenset({"wimax"})),
        ]
    )
    hint = FlowRequest("M1", "video", 2.0, "wimax")
    assert select_ap_for_join("M1", hint, view) == "AP2"


def test_select_ap_none_available():
    view = simple_view(5.0)
    view.ap_status["AP1"].load = 5.0
    hint = FlowRequest("M1", "video", 1.0, "wifi")
    with pytest.raises(NoApAvailable):
        select_ap_for_join("M1", hint, view)


def test_select_ap_coverage_constrains_with_null_hint():
    near = APStatus("AP1", capacity=11.0, position=(0.0, 0.0), radius=10.0)
    far = APStatus("AP2", capacity=11.0, position=(100.0, 0.0), radius=10.0)
    near.load = 1.0
    view = view_with([near, far])
    # a null hint carries no position, so the most residual AP wins
    assert select_ap_for_join("M1", None, view) == "AP2"
    # a hint's origin is the position that coverage constrains
    hint = FlowRequest("M1", "data", 1.0, origin=(3.0, 4.0))
    assert select_ap_for_join("M1", hint, view) == "AP1"
