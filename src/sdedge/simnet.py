"""The simulated network world: topology, movement, transport, failures.

One `World` owns one event engine plus the overlay ring, mobility manager,
per-partition scheduler views, and the authentication service, and drives
them from a parsed scenario. Mobiles follow their traces; coverage deltas
trigger AP association changes (Personal-AP migration or plain
re-association) and, across partitions, the controller handover protocol.
A device only ever moves to an AP that covers it, and never to the AP that
already serves it while it is connected.
An AP failure is such a delta for each device it served, so they take the
same path, after the detection delay. A handover or first registration
that fails, because its target controller is down, leaves the device
disconnected until its next move or the adoption of that controller's
partition, whichever comes first.
Transport streams are sampled on a fixed cadence, with a rate cap: a
stream delivers min(demand, path bottleneck) when connected, admitted, and
forwarded by the access gate, and zero for a recovery lag after any
re-admission (the configured TCP-recovery stand-in). A connected stream
that was not admitted, because its serving AP had no room or the AP's
controller had crashed and its partition was not yet adopted, is admitted
at the first of its sampling instants, once its gap has passed, at which
that AP fits its demand under a live controller; until then it samples
zero. A stream's samples are kept as runs, one per change of value; the
report, not the world, counts a stream's instants, from its start to its stop.
Streams due at the same instants form a chain. One sampler event per
instant visits only the streams of its chain whose sample can differ from
their last one; every other stream is parked, its run going on:
- dirty streams: an event changed an input (their start or end, an
  association change or disconnection of their device, a grant of theirs
  appearing or going, a re-admission, or the failure of their serving AP);
- streams whose recovery gap has passed, popped from a heap by the sampler;
- woken waiters: a stream left unplaced waits on its serving AP, and is
  retried only after a release there or the adoption of its partition, in
  rank order while the AP fits the smallest demand. Without either, no
  retry could succeed.
Within an instant, streams tick in rank order, as a tick of every due
stream would take them, so admissions that compete for the same room
resolve the same way. Ranks are fixed when the world is built: later
starts rank first, and streams that start together rank in declaration
order.
Coverage is kept, not recomputed: each AP has a roster of the devices whose
position lies in its disc, which `apply_move` updates on every position
change; that is the only disc test the world makes. A device is covered by
an AP that is alive and has it on its roster, and a beacon delivery visits
the AP's roster in name order instead of every device. That order is kept too,
as a tuple per AP that a move drops only when it adds the device to that
roster or takes it off, so an unchanged roster is the same tuple. A
delivery is one batch (`AuthnService.deliver`): the whole roster hears the
key, then each recipient re-authenticates as needed, in name order, and a
repeated denial is logged without a wallet scan; a delivery to the same
tuple re-stamps the previous one's wallet entry, and a wave in which no
input of a decision changed replays the previous wave's log rows (see
`authn`). Beacons come in synchronized waves: one `beacon` event per wave
visits the live grouped APs in name order and schedules the next, and one
`key` event, `wireless_latency` later, has each of them still alive deliver
its key, in that order, with no change of serving AP between. That one
handler is the fact the replay leans on; a failure in it names the wave, not
the AP. Mode None, which reads no key, wallet or grant, schedules no
rotation, beacon or key delivery.
Every time in the world is integer ns (see `engine`), `authn`'s too: the
parser gives declared times in ns, and `World.__init__` converts `Params`
once; a handover's gap is summed in ns and printed in seconds. No event is
scheduled past the horizon, where it would never run (`World._schedule`),
so a run leaves none pending.
A packet-in workload offers one packet-in per AP per period, each served
at its controller's single server: a D/D/1 queue per controller. One
arrival event serves its own instant's APs, and then every later instant
of its quiet stretch, up to the next pending event or the end of the
running `run_until`, in closed form per controller (`serve_stretch`); it
schedules the first instant after the stretch once, while that is inside
the horizon and some AP is alive. A handler failure there names the
stretch's first instant, not the AP. Moves are batched the same way: the
moves of one instant are one md-move event, and a failure there names the
instant. A `roam` is drawn here, not at parse: its instants up to the
horizon, a `range` of ns, once, and per device one array of points, so no
object is made per waypoint. An instant's event moves the roams' devices
in name order, merged by name with the scenario's waypoints, which a
parsed scenario holds in (instant, device) order and one built in code in
any order.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter, deque
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from heapq import heappop, heappush, merge
from operator import attrgetter, itemgetter

from .authn import AuthnService, LocationGroup
from .engine import EventEngine, ns
from .errors import HandoverFailure, NotAMember, UsageError
from .mobility import MobilityManager
from .report import HandoverLog, MetricsReport, Throughput
from .ring import OverlayRing
from .scenario import Params, RoamDecl, Scenario, StreamDecl, WaypointDecl, ring_keys
from .scheduler import APStatus, PartitionView, ViewEvent, best_ap, update_partition_view


@dataclass(eq=False)
class StreamState:
    decl: StreamDecl
    stop: int  # its end or the horizon, whichever is earlier: its last allowed instant
    rank: int = 0  # its place in the tick order of an instant, set once by `World.__init__`
    started: bool = False
    ended: bool = False
    placed_on: str | None = None  # the AP its flow holds room on
    gap_until: int = 0
    gate_blocked: bool = False
    chain: _Chain | None = None  # the instants it is still due at
    runs: list[tuple[int, float]] = field(default_factory=list)  # (first instant, Mbps) per change, from its start
    waiting_on: str | None = None  # the AP it waits on for room

    @property
    def name(self) -> str:
        return self.decl.name


@dataclass(eq=False)
class _Chain:
    """The streams due at one sequence of instants, each `sample_period`
    after the one before it."""

    # heap of (last allowed instant, name, stream), one entry per stream
    stops: list[tuple[int, str, StreamState]] = field(default_factory=list)
    dirty: set[StreamState] = field(default_factory=set)  # to tick at the next instant
    woken: set[str] = field(default_factory=set)  # APs whose waiters retry at the next instant


_RANK = attrgetter("rank")
_START = attrgetter("decl.start")
_MD = itemgetter(0)


class _RoamPaths:
    """One roam, drawn: its devices in name order, and per device one array
    of its points, x then y per instant of the roam."""

    def __init__(self, roam: RoamDecl, layout_seed: int, count: int):
        self.mds = sorted(roam.mds)
        self.paths = [array("d", [v for xy in roam.points(layout_seed, md, count) for v in xy]) for md in self.mds]

    def moves(self, k: int) -> Iterator[tuple[str, float, float]]:
        """(device, x, y) at the roam's k-th instant, in device name order."""
        i = 2 * k
        for md, path in zip(self.mds, self.paths):
            yield md, path[i], path[i + 1]


def serve_stretch(busy: int, t: int, k: int, m: int, period: int, service: int,
                  horizon: int) -> tuple[int, int]:
    """One single server over `m` instants `t, t + period, ...`, none past
    `horizon`, with `k >= 1` arrivals at each, in integer ns: `(n, busy)` as
    serving arrival by arrival gives them, where an arrival at `u` is served,
    at max(busy, u) + service, iff that is by the horizon.

    An instant served in full takes busy time b to max(b, u) + k * service,
    Lindley's recursion with the constant increment k * service - period.
    So after j >= 1 full instants b_j = max(max(busy, t) + j * k * service,
    t + (j - 1) * period + k * service), as the server was last idle before
    the first instant or the j-th. That only grows: the first f instants are
    served in full, the next one (horizon - max(b_f, u_f)) // service < k
    arrivals, and every later one none. With service 0 every one is full.
    """
    ks = k * service
    start = max(busy, t)
    f = min(m, max(0, (horizon - t - ks) // period + 1))
    if ks:
        f = min(f, (horizon - start) // ks)
    n = f * k
    if f:
        busy = max(start + f * ks, t + (f - 1) * period + ks)
    if f < m:  # so service > 0
        start = max(busy, t + f * period)
        partial = (horizon - start) // service
        if partial:
            busy, n = start + partial * service, n + partial
    return n, busy


@dataclass
class MDState:
    name: str
    position: tuple[float, float] | None = None
    connected: bool = False


class World:
    """Deterministic simulation of one scenario run."""

    def __init__(self, scenario: Scenario, params: Params | None = None):
        self.scenario = scenario
        self.params = params if params is not None else scenario.params
        p = self.params
        self.engine = EventEngine()

        # --- controllers & overlay -------------------------------------
        declared = scenario.controllers
        problem = p.controllers_problem(len(declared))
        if problem:
            raise UsageError(problem)
        active = declared[: p.controllers] if p.controllers else declared
        keys, problems = ring_keys(active, p.m)
        if problems:
            raise UsageError("; ".join(f"{scenario.name}:{line}: {msg}" for line, msg in problems))
        # every time in the world is ns: the declarations' from the parser, the parameters' from here
        self.horizon, self._sample_period = ns(p.duration), ns(p.sample_period)
        self._rotation_period, self._regrant_grace = ns(p.rotation_period), ns(p.regrant_grace)
        self._recovery_lag, self._detection_delay = ns(p.recovery_lag), ns(p.detection_delay)
        self._beacon_period, self._wireless_latency = ns(p.beacon_period), ns(p.wireless_latency)
        self._reassociation_delay, self._pap_migration_delay = ns(p.reassociation_delay), ns(p.pap_migration_delay)
        w = scenario.workload
        if w is not None and (problem := w.period_problem(self.horizon)):
            raise UsageError(f"{scenario.name}:{w.line}: {problem}")
        self.ring = OverlayRing(m=p.m, replication=p.r)
        self.cid_of: dict[str, int] = keys
        self.name_of: dict[int, str] = {cid: name for name, cid in keys.items()}
        for cid in keys.values():
            self.ring.join(cid)
        self.ring.lookup_hops.clear()  # the report counts the run's lookups, not the joins'

        self.mobility = MobilityManager(self.ring, link_latency=ns(p.link_latency))

        # --- partitions --------------------------------------------------
        self.partition_of: dict[str, str] = {}
        if p.controllers:
            names = [c.name for c in active]
            for i, ap in enumerate(scenario.aps):
                self.partition_of[ap.name] = names[i % len(names)]
        else:
            for ap in scenario.aps:
                self.partition_of[ap.name] = ap.partition

        # one APStatus per AP, shared by `aps` and the owning partition view
        self.aps: dict[str, APStatus] = {}
        self.views: dict[str, PartitionView] = {c.name: PartitionView(controller=c.name) for c in active}
        for decl in scenario.aps:
            ap = APStatus(
                decl.name, capacity=decl.capacity, radio_techs=frozenset(decl.techs),
                position=(decl.x, decl.y), radius=decl.radius,
            )
            self.aps[decl.name] = ap
            self.views[self.partition_of[decl.name]].ap_status[decl.name] = ap

        # --- links / paths ------------------------------------------------
        self.adjacency: dict[str, list[tuple[str, float, float]]] = {}
        for link in scenario.links:
            self.adjacency.setdefault(link.a, []).append((link.b, link.rate, link.latency))
            self.adjacency.setdefault(link.b, []).append((link.a, link.rate, link.latency))
        self._bottleneck_cache: dict[tuple[str, str], float] = {}

        # --- authentication ------------------------------------------------
        self.authn = AuthnService(mode=p.mode, key_freshness=ns(p.key_freshness))
        for g in scenario.groups:
            self.authn.register_group(LocationGroup(g.name, frozenset(g.members)))
        self._grouped = sorted(self.authn.group_of)  # the APs that beacon, in name order

        # --- device & stream state -------------------------------------------
        self.mds: dict[str, MDState] = {
            m.name: MDState(m.name, position=(m.x, m.y) if m.x is not None else None)
            for m in scenario.mds
        }
        self._md_order = sorted(self.mds)  # the MD set never changes
        # AP -> devices whose position lies in its disc, dead or alive;
        # kept by `_update_roster` on every position change
        self.disc_roster: dict[str, set[str]] = {a: set() for a in self.aps}
        self._recipients: dict[str, tuple[str, ...]] = {}  # AP -> its roster in name order, while unchanged
        for state in self.mds.values():
            self._update_roster(state.name, state.position)
        self.streams: dict[str, StreamState] = {
            s.name: StreamState(s, self.horizon if s.end is None else min(s.end, self.horizon))
            for s in scenario.streams
        }
        # the tick order: later starts first, and a stable sort keeps ties in declaration order
        for rank, st in enumerate(sorted(self.streams.values(), key=_START, reverse=True)):
            st.rank = rank
        self._md_streams: dict[str, list[StreamState]] = {}  # device -> its streams, by name
        for st in sorted(self.streams.values(), key=lambda s: s.name):
            self._md_streams.setdefault(st.decl.md, []).append(st)
        # the sampler's state: see `_sample`
        self._due: dict[int, _Chain] = {}  # sample instant -> the chain due then
        self._waiters: dict[str, set[StreamState]] = {}  # AP -> its waiters, once it has had one
        self._gaps: list[tuple[int, str]] = []  # heap of (gap end, name) of streams sampled in a gap
        self._min_demand = min((s.demand for s in scenario.streams), default=0.0)

        # --- metrics ------------------------------------------------------------
        self.handover_rows = HandoverLog()
        self.packet_in: dict[str, int] = {c.name: 0 for c in active}
        self.record_losses: list[str] = []
        self._pi_busy: dict[str, int] = {c.name: 0 for c in active}  # in ns
        self._crashed: set[str] = set()  # controllers that crashed, adopted or not

        self._bootstrap()
        self._schedule_all()

    # ------------------------------------------------------------------ wiring

    def _update_roster(self, md: str, position: tuple[float, float] | None) -> None:
        """Record `md` at `position` in the roster of every AP: the one disc test.
        A roster that gains or loses `md` drops its recipients tuple."""
        roster, recipients = self.disc_roster, self._recipients
        for ap_name, ap in self.aps.items():
            members = roster[ap_name]
            if md in members:
                if position is None or not ap.covers(position):
                    members.discard(md)
                    recipients.pop(ap_name, None)
            elif position is not None and ap.covers(position):
                members.add(md)
                recipients.pop(ap_name, None)

    def _recipients_of(self, ap_name: str) -> tuple[str, ...]:
        """`ap_name`'s roster in name order, one tuple while the roster is unchanged."""
        kept = self._recipients.get(ap_name)
        if kept is None:
            kept = self._recipients[ap_name] = tuple(sorted(self.disc_roster[ap_name]))
        return kept

    def _covers(self, md: str, ap_name: str) -> bool:
        return self.aps[ap_name].alive and md in self.disc_roster[ap_name]

    def coverage_set(self, md: str) -> list[str]:
        return sorted(a for a in self.aps if self._covers(md, a))

    def bottleneck(self, ap_name: str, dst: str) -> float:
        """min(AP capacity, link rates) along the AP-to-destination path."""
        key = (ap_name, dst)
        cached = self._bottleneck_cache.get(key)
        if cached is not None:
            return cached
        best: dict[str, float] = {ap_name: math.inf}
        queue = deque([ap_name])
        while queue:
            node = queue.popleft()
            for nxt, rate, _lat in self.adjacency.get(node, []):
                width = min(best[node], rate)
                if width > best.get(nxt, 0.0):
                    best[nxt] = width
                    queue.append(nxt)
        rate = best.get(dst, 0.0)
        rate = min(rate, self.aps[ap_name].capacity)
        self._bottleneck_cache[key] = rate
        return rate

    # ------------------------------------------------------------------ bootstrap

    def _bootstrap(self) -> None:
        for md in self._md_order:
            state = self.mds[md]
            ap = best_ap([self.aps[a] for a in self.coverage_set(md)])
            if ap is None:
                continue
            self.mobility.establish_association(md, ap.ap_id)
            self.mobility.register_md(md, self.cid_of[self.partition_of[ap.ap_id]])
            state.connected = True

    def _schedule(self, at: int, kind: str, fn: Callable[[], None], note: str) -> None:
        """The world's one horizon rule: an event past the horizon would never
        run, so it is not scheduled."""
        if at <= self.horizon:
            self.engine.schedule(at, kind, fn, note)

    def _schedule_all(self) -> None:
        if self.authn.active and self._grouped:  # mode None reads no key, wallet or grant
            self._schedule(0, "timer", self._rotate_all, "rotate")
            self._schedule(0, "beacon", self._beacon_wave, "beacon")
        # every move is scheduled here, together, so no other event can fall
        # between two moves of one instant: they are one event
        for t, (wps, roams) in sorted(self._moves_by_instant().items()):
            self._schedule(t, "md-move", lambda w=wps, r=roams: self._apply_moves(w, r), "move")
        for st in self.streams.values():
            self._schedule(st.decl.start, "flow-start", lambda s=st: self._flow_start(s), f"start:{st.name}")
            if st.decl.end is not None:
                self._schedule(st.decl.end, "flow-end", lambda s=st: self._flow_end(s), f"end:{st.name}")
        for f in self.scenario.failures:
            self._schedule(f.at, "failure", lambda fd=f: self.inject_failure(fd.kind, fd.name), f"fail:{f.name}")
        w = self.scenario.workload
        if w is not None and w.rate_per_ap > 0 and w.start <= w.horizon(self.horizon):  # else it serves nothing
            self._schedule(w.start, "message-delivery", self._packet_in_arrivals(), "packetin")

    # ------------------------------------------------------------------ beacons & keys

    def _rotate_all(self) -> None:
        now = self.engine.now
        for gid in sorted(self.authn.groups):
            group = self.authn.groups[gid]
            down = {ap for ap in group.members if not self.aps[ap].alive}
            self.authn.rotate_group_keys(gid, now, down_aps=down)
        self._schedule(now + self._regrant_grace, "timer", lambda: self._expire_grants(now), "grant-expiry")
        self._schedule(now + self._rotation_period, "timer", self._rotate_all, "rotate")

    def _expire_grants(self, rotated_by: int) -> None:
        for md, _gid in self.authn.expire_stale_grants(rotated_by):
            self._mark(self._md_streams.get(md, ()))

    def _beacon_wave(self) -> None:
        """One synchronized beacon wave: each live grouped AP beacons now, in
        name order, and delivers its key one `wireless_latency` later, in one
        event. Each holds a key: the rotation at t=0 runs before the first
        wave, and no key is taken back. The next wave comes one
        `beacon_period` later, while some grouped AP is alive."""
        now = self.engine.now
        live = [a for a in self._grouped if self.aps[a].alive]
        if live:
            self._schedule(now + self._wireless_latency, "message-delivery", lambda: self._deliver_wave(live), "key")
            self._schedule(now + self._beacon_period, "beacon", self._beacon_wave, "beacon")

    def _deliver_wave(self, live: list[str]) -> None:
        """A wave's key deliveries, one event: each of `live` still alive
        delivers to its roster, in name order, and no serving AP changes."""
        for ap_name in live:
            if self.aps[ap_name].alive:
                self._deliver_key(ap_name, self._recipients_of(ap_name))

    def _deliver_key(self, ap_name: str, recipients: tuple[str, ...]) -> None:
        """`ap_name`'s key reaches `recipients`, its roster in name order, as
        one batch: all hear it, then each re-authenticates off its wallet, in
        order, when it is served by a grouped AP and holds no grant of that
        group's current epoch. A decision reads only its own device's wallet,
        so hearing first decides as hearing and deciding device by device."""
        delivered = self.authn.deliver(ap_name, recipients, self.mobility.association_ap, self.engine.now)
        for md, flipped, granted in delivered:
            if flipped:  # the gate flips
                self._mark(self._md_streams.get(md, ()))
            if granted:
                self._readmit_streams(md)

    def _readmit_streams(self, md: str) -> None:
        """A grant after a gate block costs the transport recovery lag."""
        now = self.engine.now
        for st in self._md_streams.get(md, ()):
            if st.gate_blocked:
                self._mark((st,))
                st.gap_until = max(st.gap_until, now + self._recovery_lag)
                st.gate_blocked = False

    # ------------------------------------------------------------------ movement

    def _moves_by_instant(self) -> dict[int, tuple[list[WaypointDecl], list[tuple[_RoamPaths, int]]]]:
        """Instant -> its waypoints in list order, and each roam due then with
        the index of that instant among the roam's. A roam's instants, up to
        the horizon, are computed once for all its devices, and its points
        for those instants, a prefix of the same draws, into one array per
        device, from the layout seed the scenario was parsed with: like the
        `mds` it placed, a `--set layout_seed=` moves no roam."""
        moves: dict[int, tuple[list[WaypointDecl], list[tuple[_RoamPaths, int]]]] = {}
        for wp in self.scenario.waypoints:
            moves.setdefault(wp.t, ([], []))[0].append(wp)
        for roam in self.scenario.roams:
            instants = roam.instants(self.horizon)
            paths = _RoamPaths(roam, self.scenario.params.layout_seed, len(instants))
            for k, t in enumerate(instants):
                moves.setdefault(t, ([], []))[1].append((paths, k))
        return moves

    def _apply_moves(self, wps: list[WaypointDecl], roams: list[tuple[_RoamPaths, int]]) -> None:
        """The moves of one instant: its waypoints in list order, merged by
        device name with each roam's devices, which are in name order."""
        sources: list[Iterable[tuple[str, float, float]]] = [r.moves(k) for r, k in roams]
        if wps:
            sources.append((wp.md, wp.x, wp.y) for wp in wps)
        for md, x, y in merge(*sources, key=_MD):
            self.apply_move(md, x, y)

    def apply_move(self, md: str, x: float, y: float) -> None:
        state = self.mds[md]
        state.position = (x, y)
        self._update_roster(md, state.position)

        # presence proof breaks as soon as any member AP's coverage is gone
        authn = self.authn
        if authn.active:
            for gid, group in authn.groups.items():
                if (md, gid) in authn.grants and any(not self._covers(md, ap) for ap in group.members):
                    authn.revoke(md, gid)
                    self._mark(self._md_streams.get(md, ()))

        self._reattach(md, reason="move")

    def _reattach(self, md: str, reason: str) -> None:
        """Keep the serving AP while it covers `md`, else move to its `best_ap`
        over every covering AP, in any partition, or disconnect it."""
        state = self.mds[md]
        serving = self.mobility.association_ap.get(md)
        if serving is not None and state.connected and self._covers(md, serving):
            return  # still inside the serving AP's disc: nothing to do
        covering = [self.aps[a] for a in self.coverage_set(md)]
        ap = best_ap(covering, self._lead_tech(md))
        if ap is None:
            self._disconnect(md)
            return
        self._associate(md, ap.ap_id, reason)

    def _running(self, md: str) -> list[StreamState]:
        return [st for st in self._md_streams.get(md, ()) if st.started and not st.ended]

    def _lead_tech(self, md: str) -> str | None:
        """The technology of `md`'s largest running stream, ties by name, which its AP must support."""
        lead = min(self._running(md), key=lambda st: (-st.decl.demand, st.name), default=None)
        return lead.decl.tech if lead is not None else None

    def _associate(self, md: str, new_ap: str, reason: str) -> None:
        """Attach `md` to `new_ap`, which `_reattach` chose among the APs
        covering it, and which is not its AP while it is connected."""
        now = self.engine.now
        state = self.mds[md]
        old_ap = self.mobility.association_ap.get(md)
        self._mark(self._md_streams.get(md, ()))
        new_ctrl = self.partition_of[new_ap]
        old_ctrl = self.partition_of.get(old_ap)

        registered = md in self.mobility.registered
        outcome = None
        try:
            if not registered:
                self.mobility.register_md(md, self.cid_of[new_ctrl])
            elif old_ctrl is not None and old_ctrl != new_ctrl:
                outcome = self.mobility.handover(md, self.cid_of[new_ctrl])
        except (HandoverFailure, NotAMember):
            # the target controller is down, or the session is out of reach:
            # mobility state stays as it was, and the device's next move retries
            self._disconnect(md)
            return
        if registered and self.params.personal_ap_enabled and old_ap is not None:
            self.mobility.personal_ap_migrate(md, old_ap, new_ap)
            kind = "pap-migrate"
            gap = self._pap_migration_delay
        else:  # a fresh association lists the flows already running
            assoc = self.mobility.establish_association(md, new_ap)
            assoc.flow_status.update(st.name for st in self._running(md))
            kind = "reassociate" if registered else "associate"
            gap = self._reassociation_delay
        state.connected = True

        total = gap + (outcome.latency if outcome else 0)
        for st in self._md_streams.get(md, ()):  # each flow moves to the new AP, after a gap
            st.gap_until = max(st.gap_until, now + total)
            self._unplace(st)
            self._place_flow(st, new_ap)
        self.handover_rows.append(now, md, reason if reason == "ap-recovery" else kind, old_ap, new_ap,
                                  old_ctrl, new_ctrl, total / 10**9, outcome.messages if outcome else 0)

    def _disconnect(self, md: str) -> None:
        state = self.mds[md]
        if not state.connected:
            return
        self._mark(self._md_streams.get(md, ()))
        state.connected = False
        for st in self._md_streams.get(md, ()):
            self._unplace(st)

    # ------------------------------------------------------------------ flows

    def _flow_start(self, st: StreamState) -> None:
        st.started = True
        md = st.decl.md
        assoc = self.mobility.associations.get(md)
        if assoc is not None:
            assoc.flow_status.add(st.name)
        serving = self.mobility.association_ap.get(md)
        if serving is not None and self.mds[md].connected:
            self._place_flow(st, serving)
        # the first sample is taken now; the chain of the next instant carries it on
        nxt = self.engine.now + self._sample_period
        if nxt <= st.stop:
            chain = st.chain = self._chain_at(nxt)
            heappush(chain.stops, (st.stop, st.name, st))
        self._tick(st)

    def _flow_end(self, st: StreamState) -> None:
        st.ended = True
        self._mark((st,))
        md = st.decl.md
        self._unplace(st)
        assoc = self.mobility.associations.get(md)
        if assoc is not None:
            assoc.flow_status.discard(st.name)

    def _admits(self, ap_name: str, demand: float) -> bool:
        """Admission control: a flow rides the association if it fits and the
        AP's controller is up; a crashed controller admits nothing until its
        partition is adopted."""
        return self.partition_of[ap_name] not in self._crashed and self.aps[ap_name].fits(demand)

    def _place_flow(self, st: StreamState, ap_name: str) -> None:
        if st.placed_on is not None or not st.started or st.ended or not self._admits(ap_name, st.decl.demand):
            return
        controller = self.partition_of[ap_name]
        update_partition_view(
            self.views[controller], ViewEvent("flow-start", ap_id=ap_name, flow_id=st.name, demand=st.decl.demand)
        )
        st.placed_on = ap_name
        self.packet_in[controller] = self.packet_in.get(controller, 0) + 1

    def _unplace(self, st: StreamState) -> None:
        """Release the flow's room, and wake the streams waiting for room there."""
        ap_name = st.placed_on
        if ap_name is None:
            return
        update_partition_view(self.views[self.partition_of[ap_name]], ViewEvent("flow-end", flow_id=st.name))
        st.placed_on = None
        self._wake(ap_name)

    # ------------------------------------------------------------------ transport

    def sample_of(self, st: StreamState) -> tuple[float, str]:
        """The sample `st` takes now, without side effects, and why: "off", "gated",
        "gap", "wait" (no room or no live controller), "admit" or "placed"."""
        decl = st.decl
        if not st.started or st.ended:
            return 0.0, "off"
        serving = self.mobility.association_ap.get(decl.md)
        ap = self.aps.get(serving)
        if ap is None or not ap.alive or not self.mds[decl.md].connected:
            return 0.0, "off"
        if self.authn.active and self.authn.gate_traffic(serving, decl.md) == "drop":
            return 0.0, "gated"
        if self.engine.now < st.gap_until:
            return 0.0, "gap"
        why = "placed"
        if st.placed_on is None:
            if not self._admits(serving, decl.demand):
                return 0.0, "wait"
            why = "admit"
        return min(decl.demand, self.bottleneck(serving, decl.dst)), why

    def _tick(self, st: StreamState) -> None:
        """Sample `st` at this instant, and park it by its reason."""
        self._unwait(st)
        value, why = self.sample_of(st)
        md = st.decl.md
        if why == "admit":
            self._place_flow(st, self.mobility.association_ap[md])
        elif why == "wait":
            self._wait(st, self.mobility.association_ap[md])
        elif why == "gated":
            st.gate_blocked = True
        elif why == "gap":
            heappush(self._gaps, (st.gap_until, st.name))
        if not st.runs or value != st.runs[-1][1]:
            st.runs.append((self.engine.now, value))

    def _mark(self, streams: Iterable[StreamState]) -> None:
        """An input of each of `streams` changes now: tick it at its chain's
        next instant. Until then its run goes on; nothing is counted."""
        for st in streams:
            if st.chain is not None:
                self._unwait(st)
                st.chain.dirty.add(st)

    def _wait(self, st: StreamState, ap_name: str) -> None:
        """`st` waits for room on `ap_name`."""
        st.waiting_on = ap_name
        self._waiters.setdefault(ap_name, set()).add(st)

    def _unwait(self, st: StreamState) -> None:
        """`st` waits for room no longer."""
        if st.waiting_on is not None:
            self._waiters[st.waiting_on].discard(st)
            st.waiting_on = None

    def _wake(self, ap_name: str) -> None:
        """Room, or a live controller, came to `ap_name`: its waiters retry at their next instant."""
        if self._waiters.get(ap_name):
            for chain in self._due.values():
                chain.woken.add(ap_name)

    def _woken(self, ap_name: str, chain: _Chain) -> Iterator[StreamState]:
        """The waiters of `chain` on `ap_name`, in rank order, while the AP fits the smallest demand."""
        ap = self.aps[ap_name]
        for st in sorted(self._waiters[ap_name], key=_RANK):  # ranks are distinct: one order
            if not ap.fits(self._min_demand):
                return  # ticks only take room: no later waiter fits either
            if st.chain is chain:
                yield st

    def _chain_at(self, at: int) -> _Chain:
        """The chain due at `at`; a new one schedules that instant's sampler event."""
        chain = self._due.get(at)
        if chain is None:
            chain = self._due[at] = _Chain()
            self._schedule(at, "timer", lambda: self._sample(at), "tick")
        return chain

    def _merge(self, a: _Chain, b: _Chain) -> None:
        """Chains `a` and `b` are due at the same instant, so one from then on:
        `a` takes `b`'s streams, their stops, and what they are due to tick."""
        for entry in b.stops:
            entry[2].chain = a
            heappush(a.stops, entry)
        a.dirty |= b.dirty
        a.woken |= b.woken

    def _sample(self, at: int) -> None:
        """The one sampler event of an instant: tick the chain's dirty streams and
        woken waiters in rank order, then carry the chain on to its next instant."""
        chain = self._due.pop(at)
        gaps = self._gaps
        while gaps and gaps[0][0] <= at:
            self._mark((self.streams[heappop(gaps)[1]],))
        order: Iterable[StreamState] = sorted(chain.dirty, key=_RANK)
        chain.dirty.clear()
        if chain.woken:
            order = merge(order, *[self._woken(a, chain) for a in sorted(chain.woken)], key=_RANK)
            chain.woken.clear()
        for st in order:
            self._tick(st)
        nxt = at + self._sample_period
        stops = chain.stops
        while stops and stops[0][0] < nxt:
            st = heappop(stops)[2]
            self._unwait(st)
            st.chain = None
        if stops:
            self._merge(chain, self._chain_at(nxt))  # streams that started since may have made it
            self._due[nxt] = chain

    # ------------------------------------------------------------------ failures

    def inject_failure(self, kind: str, name: str) -> None:
        now = self.engine.now
        delay = self._detection_delay
        if kind == "controller":
            cid = self.cid_of.get(name)
            if cid is None or not self.ring.is_live(cid):
                return  # unknown-by-override or already failed: no-op
            self.ring.crash(cid)
            self._crashed.add(name)
            self._schedule(now + delay, "failure", lambda: self._recover_controller(name, cid), f"recover:{name}")
        elif kind == "ap":
            ap = self.aps.get(name)
            if ap is None or not ap.alive:
                return
            ap.alive = False
            serving_of = self.mobility.association_ap
            self._mark([st for md, a in serving_of.items() if a == name for st in self._md_streams.get(md, ())])
            self._schedule(now + delay, "failure", lambda: self._recover_ap(name), f"recover:{name}")
        else:
            raise NotAMember(f"cannot fail a {kind!r}")

    def _recover_controller(self, name: str, cid: int) -> None:
        """The adopter takes the dead controller's partition: its APs, and its
        view wholesale, open flows included. The view merge keeps one rule for
        releases: a placed flow's record is in the view of its AP's current
        controller."""
        report = self.mobility.recover_controller_failure(cid)
        self.record_losses.extend(report.lost)
        if report.adopter is None:
            return
        adopter_name = self.name_of[report.adopter]
        dead_view = self.views.pop(name)
        target = self.views[adopter_name]
        target.ap_status.update(dead_view.ap_status)
        target.open_flows.update(dead_view.open_flows)
        for ap_name in dead_view.ap_status:
            self.partition_of[ap_name] = adopter_name
            self._wake(ap_name)  # its waiters may be admitted by a live controller now
        self.cid_of.pop(name, None)
        # devices a failed handover or registration cut off can attach again
        for md in self._md_order:
            if not self.mds[md].connected:
                self._reattach(md, reason="adoption")

    def _recover_ap(self, name: str) -> None:
        """A failed AP no longer covers anyone: its devices take the move path."""
        for md in self.mobility.recover_ap_failure(name):
            self._reattach(md, reason="ap-recovery")

    # ------------------------------------------------------------------ packet-in workload

    def _packet_in_arrivals(self) -> Callable[[], None]:
        """The handler of a packet-in arrival instant, built once.

        Every AP offers one packet-in per period from the workload's start,
        each served at its AP's current controller, a single server (see
        `serve_stretch`). A crashed controller serves nothing: arrivals for
        it are lost until its partition is adopted. The start, period
        `1/rate_per_ap`, service time and horizon are whole ns, as every
        instant. The arrival event serves its own instant (an AP that failed
        since the instant was scheduled is still served there, and at none
        after), and then every later instant of its quiet stretch
        (`EventEngine.quiet_until`) in closed form: between events nothing
        but the arrivals writes `partition_of`, `_crashed`, AP liveness or
        `_pi_busy`, and an AP's arrival touches only its own controller. It
        schedules the first instant after the stretch iff that is inside the
        horizon and some AP is still alive. Each stretch runs to the next
        pending event, so there is at most one arrival event per other event,
        besides the first. A handler failure names the first instant of its
        stretch, not an AP.
        """
        w = self.scenario.workload
        horizon, period, service = w.horizon(self.horizon), w.period, w.service_time
        t, due = w.start, sorted(self.aps)

        def arrivals() -> None:
            nonlocal t, due
            eng, aps, partition_of, crashed = self.engine, self.aps, self.partition_of, self._crashed
            busy_of, served = self._pi_busy, self.packet_in
            load = Counter(partition_of[a] for a in due if partition_of[a] not in crashed)
            due = [a for a in due if aps[a].alive]
            live = Counter(partition_of[a] for a in due if partition_of[a] not in crashed)
            # this instant with the APs due at it, then the quiet ones after it with those still alive
            stretch = [(load, 1)]
            if (m := (min(eng.quiet_until(), horizon) - t) // period) > 0:
                stretch.append((live, m))
            for load, m in stretch:
                for c, k in load.items():
                    n, busy_of[c] = serve_stretch(busy_of[c], t, k, m, period, service, horizon)
                    served[c] += n
                t += m * period
            if t <= horizon and due:
                self._schedule(t, "message-delivery", arrivals, "packetin")

        return arrivals

    # ------------------------------------------------------------------ run & report

    def run(self) -> MetricsReport:
        self.engine.run_until(self.horizon)
        return self.record_metrics()

    def record_metrics(self) -> MetricsReport:
        streams = [(st.name, st.runs[0][0], st.stop, st.runs[:]) for st in self.streams.values() if st.runs]
        return MetricsReport(
            scenario=self.scenario.name,
            seed=self.params.seed,
            mode=self.params.mode,
            personal_ap=self.params.personal_ap_enabled,
            duration=self.params.duration,
            throughput=Throughput(self._sample_period, streams),
            handovers=self.handover_rows,
            packet_in=dict(sorted(self.packet_in.items())),
            lookup_hops=dict(sorted(self.ring.lookup_hops.items())),
            auth_events=self.authn.auth_log,
            record_losses=list(self.record_losses),
        )
