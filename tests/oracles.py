"""Reference computations and checking worlds that only the tests need."""

from __future__ import annotations

import hashlib
from collections import Counter

from sdedge.simnet import World


def trace_digest(trace: list[tuple[int, int, str, str]]) -> str:
    """Stable fingerprint of an engine's recorded trace, (ns, seq, kind, note)
    per event (determinism checks)."""
    h = hashlib.sha256()
    for time_, seq, kind, note in trace:
        h.update(f"{time_!r}|{seq}|{kind}|{note}\n".encode())
    return h.hexdigest()


class CapacityCheckedWorld(World):
    """Asserts after every sampler event that no AP carries more than its capacity."""

    def _sample(self, at):
        super()._sample(at)
        for ap in self.aps.values():
            assert ap.load <= ap.capacity + 1e-9, (at, ap.ap_id, ap.load)


class RosterCheckedWorld(World):
    """Asserts after every move and at the end of the run that each AP's
    roster holds exactly the devices whose position lies in its disc, and
    that each kept recipients tuple is its AP's roster in name order; and on
    every association that its AP covers the device and is not the AP of a
    device still connected."""

    def check_roster(self):
        for ap_name, ap in self.aps.items():
            for md, state in self.mds.items():
                inside = state.position is not None and ap.covers(state.position)
                assert (md in self.disc_roster[ap_name]) == inside, (self.engine.now, ap_name, md)
        for ap_name, kept in self._recipients.items():
            assert kept == tuple(sorted(self.disc_roster[ap_name])), (self.engine.now, ap_name)

    def apply_move(self, md, x, y):
        super().apply_move(md, x, y)
        self.check_roster()

    def _associate(self, md, new_ap, reason):
        assert self._covers(md, new_ap), (self.engine.now, md, new_ap)
        connected_at = self.mobility.association_ap.get(md) if self.mds[md].connected else None
        assert new_ap != connected_at, (self.engine.now, md, new_ap)
        super()._associate(md, new_ap, reason)

    def run(self):
        report = super().run()
        self.check_roster()
        return report


class PacketInGuard(dict):
    """Packet-in counts that fail on a count for a controller that has
    crashed and whose partition is not yet adopted (its view still exists)."""

    def __init__(self, world, counts):
        super().__init__(counts)
        self.world = world

    def __setitem__(self, controller, value):
        world = self.world
        assert not (controller in world._crashed and controller in world.views), (world.engine.now, controller)
        super().__setitem__(controller, value)


class PacketInCheckedWorld(World):
    """Asserts on every packet-in, from an arrival or a flow setup, that its
    controller is not crashed and awaiting adoption."""

    def _schedule_all(self):
        self.packet_in = PacketInGuard(self, self.packet_in)
        super()._schedule_all()


class SampleCheckedWorld(World):
    """A dense oracle of the sampler. After every sampler event, each stream
    due then that was not ticked would sample its run's value and could not
    be admitted. At the end, the report has a row per stream for its start
    and for every sampler event whose chain still held it."""

    def _schedule_all(self):
        self.ticked, self.samples = set(), Counter()  # stream -> instants it was due at
        super()._schedule_all()

    def _tick(self, st):
        super()._tick(st)
        self.ticked.add(st.name)

    def _flow_start(self, st):
        super()._flow_start(st)
        self.samples[st.name] += 1

    def _sample(self, at):
        due = [st for _, _, st in self._due[at].stops]
        self.ticked.clear()
        super()._sample(at)
        for st in due:
            if st.name not in self.ticked:
                value, why = self.sample_of(st)
                last = st.runs[-1][1]
                assert value == last and why != "admit", (at, st.name, value, why, last)
            self.samples[st.name] += 1

    def run(self):
        report = super().run()
        assert Counter(sid for _, sid, _ in report.throughput) == self.samples
        return report


class SupervisionCheckedWorld(World):
    """Asserts after every adoption that each registered device's supervisory
    record is servable, and names as its current and previous controller
    only live ones or crashed ones still awaiting adoption. (Only live ones
    would be too strict: crashes can overlap.)"""

    def _recover_controller(self, name, cid):
        super()._recover_controller(name, cid)
        nodes = self.ring.nodes  # an adoption deletes the adopted node
        for md in self.mobility.registered:
            rec = self.mobility.get_supervisory(md)
            assert rec.current in nodes and rec.previous in (None, *nodes), (self.engine.now, md, rec)


class WaiterCheckedWorld(World):
    """Asserts on every wake of a chain's waiters on an AP that their ranks,
    fixed when the world is built, are distinct, so that sorting the AP's
    set of waiters by rank gives them in one order."""

    def _woken(self, ap_name, chain):
        ranks = [st.rank for st in self._waiters[ap_name] if st.chain is chain]
        assert len(ranks) == len(set(ranks)), (self.engine.now, ap_name, ranks)
        return super()._woken(ap_name, chain)


class CheckedWorld(
    CapacityCheckedWorld, RosterCheckedWorld, PacketInCheckedWorld, SampleCheckedWorld, SupervisionCheckedWorld,
    WaiterCheckedWorld,
):
    """The capacity, roster, packet-in, dense-sample, supervision and waiter checks."""
