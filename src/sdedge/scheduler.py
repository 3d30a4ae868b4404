"""Per-partition view maintenance and flow-to-AP assignment.

Assignment is a generalized assignment problem: flows are items, APs are
bins bounded by residual capacity and filtered by radio technology and
disc coverage; utility is satisfied demand in Mbps. The simulation runs one
placement rule, `best_ap`, per device at bootstrap, on a move, on an AP
failure's recovery and on an adoption. The greedy `assign_flows_greedy`
(largest demand first, each on its `best_ap`), its exhaustive oracle
`brute_force_assign` and `select_ap_for_join` are checked only by tests.

A partition view holds what admission and release read: per-AP capacity,
load, radio techs and coverage disc, and the open flows. It keeps no
device roster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .errors import NoApAvailable, OracleTooLarge, SchedulerError, UnmatchedRelease

ORACLE_MAX_REQUESTS = 8
ORACLE_MAX_APS = 4


@dataclass(frozen=True)
class FlowRequest:
    md_id: str
    flow_type: str
    demand: float
    required_tech: str | None = None
    origin: tuple[float, float] | None = None

    def __post_init__(self):
        if self.demand <= 0:
            raise ValueError(f"flow demand must be positive, got {self.demand}")


@dataclass
class APStatus:
    ap_id: str
    capacity: float
    load: float = 0.0
    radio_techs: frozenset[str] = frozenset({"wifi"})
    position: tuple[float, float] | None = None
    radius: float | None = None
    alive: bool = True

    @property
    def residual(self) -> float:
        return self.capacity - self.load

    def fits(self, demand: float) -> bool:
        return self.residual >= demand - 1e-9

    def covers(self, point: tuple[float, float] | None) -> bool:
        # unknown geometry on either side constrains nothing
        if point is None or self.position is None or self.radius is None:
            return True
        return math.dist(self.position, point) <= self.radius

    def supports(self, tech: str | None) -> bool:
        return tech is None or tech in self.radio_techs


@dataclass
class FlowRecord:
    flow_id: str
    ap_id: str
    demand: float


@dataclass
class PartitionView:
    controller: str
    ap_status: dict[str, APStatus] = field(default_factory=dict)
    open_flows: dict[str, FlowRecord] = field(default_factory=dict)


@dataclass(frozen=True)
class ViewEvent:
    kind: str  # flow-start | flow-end
    ap_id: str | None = None
    flow_id: str | None = None
    demand: float = 0.0


@dataclass
class Assignment:
    placements: dict[FlowRequest, str | None]
    utility: float

    @property
    def assigned(self) -> int:
        return sum(1 for ap in self.placements.values() if ap is not None)


def update_partition_view(view: PartitionView, event: ViewEvent) -> None:
    """Apply one flow event to the view, in place."""
    if event.kind == "flow-start":
        ap = view.ap_status.get(event.ap_id)
        if ap is None:
            raise SchedulerError(f"flow-start references unknown AP {event.ap_id}")
        if not ap.fits(event.demand):
            raise SchedulerError(
                f"flow {event.flow_id} ({event.demand} Mbps) would overload {ap.ap_id}"
            )
        ap.load += event.demand
        view.open_flows[event.flow_id] = FlowRecord(event.flow_id, event.ap_id, event.demand)
    elif event.kind == "flow-end":
        rec = view.open_flows.pop(event.flow_id, None)
        if rec is None:
            raise UnmatchedRelease(f"flow-end for {event.flow_id} without a flow-start")
        view.ap_status[rec.ap_id].load -= rec.demand
    else:
        raise ValueError(f"unknown view event kind {event.kind!r}")


def best_ap(aps, tech: str | None = None, position: tuple[float, float] | None = None) -> APStatus | None:
    """The placement rule: the AP with the most residual capacity among those
    that cover `position` and support `tech`, ties by AP id.

    Capacity is checked by the caller: if the most-residual AP cannot fit a
    demand, no candidate can.
    """
    cands = [ap for ap in aps if ap.covers(position) and ap.supports(tech)]
    return min(cands, key=lambda ap: (-ap.residual, ap.ap_id), default=None)


def _canonical(requests) -> list[FlowRequest]:
    # total order so ties never depend on input order
    return sorted(requests, key=lambda r: (-r.demand, r.md_id, r.flow_type, r.required_tech or ""))


def assign_flows_greedy(requests, view: PartitionView) -> Assignment:
    """Largest demand first; each flow goes to the `best_ap` if it fits there.

    Infeasible flows stay unassigned; the view itself is never mutated.
    """
    aps = [replace(ap) for ap in view.ap_status.values()]
    placements: dict[FlowRequest, str | None] = {}
    utility = 0.0
    for req in _canonical(requests):
        best = best_ap(aps, req.required_tech, req.origin)
        if best is not None and best.fits(req.demand):
            best.load += req.demand
            placements[req] = best.ap_id
            utility += req.demand
        else:
            placements[req] = None
    return Assignment(placements=placements, utility=utility)


def brute_force_assign(requests, view: PartitionView) -> Assignment:
    """Exhaustive oracle: maximum-utility feasible mapping, lexicographic ties.

    Guarded to small instances; raises OracleTooLarge beyond them.
    """
    reqs = _canonical(requests)
    aps = sorted(view.ap_status)
    if len(reqs) > ORACLE_MAX_REQUESTS or len(aps) > ORACLE_MAX_APS:
        raise OracleTooLarge(
            f"{len(reqs)} requests x {len(aps)} APs exceeds the enumeration guard "
            f"({ORACLE_MAX_REQUESTS} x {ORACLE_MAX_APS})"
        )

    # static feasibility (tech + coverage + capacity); residuals are pruned during search
    options: list[list[str | None]] = []
    for req in reqs:
        feas = [
            ap.ap_id for ap in (view.ap_status[a] for a in aps)
            if ap.supports(req.required_tech) and ap.covers(req.origin) and ap.capacity >= req.demand - 1e-9
        ]
        options.append([None] + feas)

    base = {a: view.ap_status[a].residual for a in aps}
    best_utility = -1.0
    best_mapping: tuple[str, ...] | None = None

    def lex(mapping: list[str | None]) -> tuple[str, ...]:
        return tuple(ap or "" for ap in mapping)

    def recurse(i: int, residuals: dict[str, float], mapping: list[str | None], utility: float):
        nonlocal best_utility, best_mapping
        if i == len(reqs):
            key = lex(mapping)
            if utility > best_utility + 1e-12 or (
                abs(utility - best_utility) <= 1e-12 and (best_mapping is None or key < best_mapping)
            ):
                best_utility = utility
                best_mapping = key
            return
        # upper bound prune: even assigning every remaining request cannot win
        remaining = sum(r.demand for r in reqs[i:])
        if utility + remaining < best_utility - 1e-12:
            return
        for choice in options[i]:
            if choice is None:
                mapping.append(None)
                recurse(i + 1, residuals, mapping, utility)
                mapping.pop()
            elif residuals[choice] >= reqs[i].demand - 1e-9:
                residuals[choice] -= reqs[i].demand
                mapping.append(choice)
                recurse(i + 1, residuals, mapping, utility + reqs[i].demand)
                mapping.pop()
                residuals[choice] += reqs[i].demand

    recurse(0, dict(base), [], 0.0)
    placements = {req: (ap if ap else None) for req, ap in zip(reqs, best_mapping or ())}
    return Assignment(placements=placements, utility=max(best_utility, 0.0))


def select_ap_for_join(md_id: str, flow_hint: FlowRequest | None, view: PartitionView) -> str:
    """The partition's `best_ap` for the MD, provided the hinted demand fits.

    Demand, technology and position (the hint's origin) come from the hint;
    with no hint nothing but the partition constrains the choice. The
    simulation no longer calls it; the traced benchmark patches it by name.
    """
    tech, position = (flow_hint.required_tech, flow_hint.origin) if flow_hint is not None else (None, None)
    ap = best_ap(view.ap_status.values(), tech, position)
    if ap is None or (flow_hint is not None and not ap.fits(flow_hint.demand)):
        raise NoApAvailable(f"no feasible AP for {md_id} in partition {view.controller}")
    return ap.ap_id
