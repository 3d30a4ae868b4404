import random

import pytest

from sdedge.errors import (
    AlreadyRegistered,
    HandoverFailure,
    NoApAvailable,
    NotAssociated,
    RoutingFailure,
    UnknownMobile,
)
from sdedge.mobility import MobilityManager, mac_of
from sdedge.ring import OverlayRing, RingView, hash_id

# pinned: hash_id("M7", 5) == 4, which sits on C(10)'s arc of the ring {3, 10, 16}
MD = "M7"


def cluster(ids=(3, 10, 16), m=5, r=2):
    ring = OverlayRing(m=m, replication=r)
    for i in ids:
        ring.join(i)
    return ring, MobilityManager(ring)


# --- registration -----------------------------------------------------------

def test_registration_places_record_at_supervisor():
    assert hash_id(MD, 5) == 4
    ring, mgr = cluster()
    rec = mgr.register_md(MD, first_controller=16)
    assert rec.previous is None and rec.current == 16
    assert MD in ring.node(10).store  # owner of key 4


def test_register_then_locate_returns_first_controller():
    _, mgr = cluster()
    mgr.register_md(MD, first_controller=16)
    assert mgr.get_supervisory(MD).current == 16


def test_duplicate_registration_rejected():
    _, mgr = cluster()
    mgr.register_md(MD, 16)
    with pytest.raises(AlreadyRegistered):
        mgr.register_md(MD, 3)


def test_300_registrations_all_stored_at_oracle_owner():
    rng = random.Random(6)
    ring = OverlayRing(m=16, replication=2)
    ids = sorted(rng.sample(range(1 << 16), 2))
    for i in ids:
        ring.join(i)
    mgr = MobilityManager(ring)
    oracle = RingView(ids)
    for i in range(300):
        md = f"md-{i:04d}"
        mgr.register_md(md, first_controller=ids[i % 2])
        owner = oracle.owner(hash_id(md, 16))
        assert md in ring.node(owner).store


# --- supervisor location ----------------------------------------------------

def test_locate_supervisor_from_any_controller():
    ring, mgr = cluster()
    mgr.register_md(MD, 16)
    key = mgr.registered[MD]
    assert ring.route_with_fallback(3, key)[0] == 10
    assert ring.route_with_fallback(16, key)[0] == 10
    assert ring.route_with_fallback(10, key)[0] == 10


def test_locate_is_start_independent_for_many_mds():
    rng = random.Random(44)
    ring = OverlayRing(m=10, replication=2)
    ids = sorted(rng.sample(range(1 << 10), 6))
    for i in ids:
        ring.join(i)
    for i in range(50):
        md = f"dev{i}"
        answers = {ring.route_with_fallback(start, ring.hash_id(md))[0] for start in ids}
        assert len(answers) == 1
        assert answers.pop() == RingView(ids).owner(hash_id(md, 10))


def test_read_of_unregistered_mobile():
    _, mgr = cluster()
    with pytest.raises(UnknownMobile):
        mgr.get_supervisory("ghost")


# --- handover ------------------------------------------------------------------

def test_handover_follows_the_four_step_protocol():
    ring, mgr = cluster()
    mgr.register_md(MD, 16)

    out = mgr.handover(MD, new_controller=3)
    assert out.previous == 16 and out.new == 3
    assert not out.noop
    assert out.messages > 0 and out.latency == pytest.approx(out.messages * mgr.link_latency)

    rec = mgr.get_supervisory(MD)
    assert rec.previous == 16 and rec.current == 3
    # the previous controller retired its copy; the new one is authoritative
    assert MD not in ring.node(16).control.get("sessions", {})
    assert MD in ring.node(3).control["sessions"]


def test_handover_to_current_controller_is_noop():
    _, mgr = cluster()
    mgr.register_md(MD, 16)
    out = mgr.handover(MD, 16)
    assert out.noop
    assert mgr.get_supervisory(MD).previous is None  # record untouched


def test_handover_chain_keeps_depth_one_history():
    ring, mgr = cluster(ids=(3, 10, 16, 24))
    mgr.register_md(MD, 16)
    mgr.handover(MD, 3)
    out = mgr.handover(MD, 24)
    assert out.previous == 3
    rec = mgr.get_supervisory(MD)
    assert rec.previous == 3 and rec.current == 24
    assert MD in ring.node(24).control["sessions"]


def test_handover_fetches_session_from_replica_when_previous_died():
    ring, mgr = cluster()
    mgr.register_md(MD, 16)
    ring.crash(16)
    out = mgr.handover(MD, 3)
    assert out.session_from_replica
    assert mgr.get_supervisory(MD).current == 3


def test_handover_fails_beyond_replication():
    ring, mgr = cluster(ids=(3, 10, 16, 24), r=1)
    mgr.register_md(MD, 16)
    ring.crash(16)  # previous controller
    ring.crash(24)  # its only replica holder
    with pytest.raises(HandoverFailure):
        mgr.handover(MD, 3)


# --- personal AP protocol ---------------------------------------------------------

def test_migration_changes_only_the_ap_mac():
    _, mgr = cluster()
    rec = mgr.establish_association(MD, "AP1")
    rec.frame_seq = 41
    rec.flow_status = {"F1", "F2"}
    before = rec.md_visible()
    out = mgr.personal_ap_migrate(MD, "AP1", "AP3")
    assert out is rec
    assert out.ap_mac == mac_of("AP3")
    assert out.md_visible() == before
    assert out.frame_seq == 41 and out.flow_status == {"F1", "F2"}


def test_migration_to_same_ap_is_identity():
    _, mgr = cluster()
    rec = mgr.establish_association(MD, "AP1")
    snapshot = (rec.ap_mac, rec.md_visible())
    out = mgr.personal_ap_migrate(MD, "AP1", "AP1")
    assert (out.ap_mac, out.md_visible()) == snapshot


def test_migration_without_association():
    _, mgr = cluster()
    with pytest.raises(NotAssociated):
        mgr.personal_ap_migrate(MD, "AP1", "AP2")


def test_plain_reassociation_is_visible_to_the_md():
    _, mgr = cluster()
    first = mgr.establish_association(MD, "AP1")
    second = mgr.establish_association(MD, "AP3")
    assert second.association_id != first.association_id
    assert second.security_keys != first.security_keys


# --- controller failure recovery ----------------------------------------------------

def test_crash_recovery_keeps_handover_working():
    ring, mgr = cluster()
    mgr.register_md(MD, 16)  # record at C(10)
    ring.crash(10)
    report = mgr.recover_controller_failure(10)
    assert report.adopter == 16
    assert report.recovered_records == 1
    assert report.lost == []
    assert mgr.get_supervisory(MD).current == 16
    out = mgr.handover(MD, 3)
    assert out.previous == 16 and mgr.get_supervisory(MD).current == 3


def test_recovery_of_empty_controller():
    ring, mgr = cluster()
    ring.crash(3)  # owns no records here
    report = mgr.recover_controller_failure(3)
    assert report.recovered_records == 0 and report.lost == []


def test_loss_is_reported_when_owner_and_all_replicas_die():
    # r=1: the record's only replica is at the owner's successor, so killing
    # both adjacent nodes makes the loss real; the report must say so
    ring, mgr = cluster(ids=(3, 10, 16), r=1)
    mgr.register_md(MD, 16)        # record at 10, replicated only at 16
    ring.crash(10)
    ring.crash(16)
    report = mgr.recover_controller_failure(10)
    assert report.lost == [MD]
    report2 = mgr.recover_controller_failure(16)
    assert MD not in report2.lost  # already accounted, not silently duplicated


def test_two_adjacent_crashes_with_r2_lose_nothing():
    ring, mgr = cluster(ids=(3, 10, 16, 24), r=2)
    mgr.register_md(MD, 16)  # record at 10, replicas at 16 and 24
    ring.crash(10)
    ring.crash(16)
    r1 = mgr.recover_controller_failure(10)
    r2 = mgr.recover_controller_failure(16)
    assert r1.lost == [] and r2.lost == []
    assert mgr.get_supervisory(MD) is not None


def test_overlapping_crashes_recovered_out_of_order_leave_no_stale_record():
    ring, mgr = cluster(ids=(3, 10, 16, 24), r=2)
    mgr.register_md(MD, 16)  # record at 10 (bundles at 16 and 24), session at 16
    ring.crash(10)
    ring.crash(16)
    report = mgr.recover_controller_failure(16)  # while 10 is still down
    assert report.adopter == 24 and report.lost == []
    # the record is still held only in 10's bundle, and now names 16's adopter
    assert mgr.get_supervisory(MD).current == 24
    out = mgr.handover(MD, 3)
    assert out.previous == 24 and out.session_from_replica is False
    mgr.recover_controller_failure(10)
    rec = mgr.get_supervisory(MD)
    assert (rec.previous, rec.current) == (24, 3)
    assert mgr.session_of(MD).partition == 3


def test_handover_inside_the_detection_window_survives_adoption():
    ring, mgr = cluster(ids=(3, 10, 16, 24), r=2)
    mgr.register_md(MD, 10)  # record and session both at C(10), bundles at 16 and 24
    ring.crash(10)
    out = mgr.handover(MD, 3)  # supervisor 16 serves both from C(10)'s bundle
    assert out.session_from_replica and out.previous == 10

    def bundles():
        return [(nid, src, b) for nid in ring.live_ids() for src, b in ring.node(nid).replica_store.items()]

    # the writes addressed to the crashed owner landed in its bundles
    crashed = [b for _, src, b in bundles() if src == 10]
    assert len(crashed) == 2
    assert all(b.records[MD].value.current == 3 for b in crashed)
    assert all(MD not in b.control.get("sessions", {}) for b in crashed)

    report = mgr.recover_controller_failure(10)
    assert report.adopter == 16
    rec = ring.node(16).store[MD].value
    assert (rec.previous, rec.current) == (16, 3)
    holders = [b for _, _, b in bundles() if MD in b.records]
    assert holders and all(b.records[MD].value == rec for b in holders)
    assert [nid for nid in ring.live_ids() if MD in ring.node(nid).control.get("sessions", {})] == [3]
    assert mgr.session_of(MD).partition == 3
    assert all(src == 3 for _, src, b in bundles() if MD in b.control.get("sessions", {}))


# --- replica bundles ------------------------------------------------------------------

def assert_bundles_mirror_owners(ring):
    """Each live owner's bundle on each live target equals a whole copy of it."""
    for owner in ring.live_ids():
        node = ring.node(owner)
        targets = [sid for sid in node.successor_list if ring.is_live(sid) and sid != owner]
        for target in targets[: ring.replication]:
            bundle = ring.node(target).replica_store[owner]
            assert bundle.records == node.store, (owner, target)
            assert bundle.control == node.control, (owner, target)


def test_replica_bundles_mirror_their_owners_after_every_op():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    md, ctrl = st.integers(0, 7), st.integers(0, 7)
    op = st.one_of(
        st.tuples(st.just("register"), md, ctrl),
        st.tuples(st.just("handover"), md, ctrl),
        st.tuples(st.just("put"), st.integers(0, 9), st.integers(0, 63)),
        # crash, then recover now or after the next op
        st.tuples(st.just("crash"), ctrl, st.booleans()),
        st.tuples(st.just("join"), st.integers(0, 63), st.just(0)),
    )

    @hypothesis.settings(max_examples=50, deadline=None)
    @hypothesis.given(
        ids=st.sets(st.integers(0, 63), min_size=2, max_size=5),
        r=st.integers(1, 3),
        ops=st.lists(op, max_size=30),
    )
    def check(ids, r, ops):
        ring = OverlayRing(m=6, replication=r)
        for i in sorted(ids):
            ring.join(i)
        mgr = MobilityManager(ring)
        assert_bundles_mirror_owners(ring)
        crashed = None
        for kind, a, b in ops:
            live = ring.live_ids()
            if kind == "register":
                if f"d{a}" not in mgr.registered:
                    mgr.register_md(f"d{a}", live[b % len(live)])
            elif kind == "handover":
                try:
                    mgr.handover(f"d{a}", live[b % len(live)])
                except (HandoverFailure, UnknownMobile):
                    pass
            elif kind == "put":
                ring.put_record(f"k{a}", (a, b), key=b)
            elif kind == "crash":
                if crashed is None and len(live) > 2:
                    crashed = live[a % len(live)]
                    ring.crash(crashed)
                    if b:
                        assert_bundles_mirror_owners(ring)
                        continue
            elif kind == "join" and a not in ring.nodes:
                try:
                    ring.join(a)
                except RoutingFailure:
                    pass
            if crashed is not None:
                assert_bundles_mirror_owners(ring)
                mgr.recover_controller_failure(crashed)
                crashed = None
            assert_bundles_mirror_owners(ring)

    check()


def test_writes_never_copy_a_whole_store(monkeypatch):
    ring = OverlayRing(m=16, replication=2)
    for i in (1000, 20000, 40000, 60000):
        ring.join(i)
    mgr = MobilityManager(ring)
    for i in range(500):
        mgr.register_md(f"md-{i:04d}", first_controller=(1000, 20000, 40000, 60000)[i % 4])
    assert len({rec.name for _, rec in ring.stored_records()}) >= 500

    calls = []
    full_copy = OverlayRing.replicate_to_successors
    monkeypatch.setattr(
        OverlayRing, "replicate_to_successors", lambda self, nid: calls.append(nid) or full_copy(self, nid)
    )
    ring.put_record("extra", "payload")
    mgr.register_md("md-new", first_controller=20000)
    out = mgr.handover("md-0000", new_controller=40000)
    assert not out.noop
    assert calls == []
    assert_bundles_mirror_owners(ring)
