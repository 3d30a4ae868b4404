import random
from pathlib import Path

import pytest

from sdedge.errors import MembershipConflict, NotAMember, RingError, RoutingFailure
from sdedge.ring import OverlayRing, RingView, hash_id, in_arc, in_open_arc

FIXTURES = Path(__file__).parent / "fixtures"


def make_ring(ids, m=5, replication=2):
    ring = OverlayRing(m=m, replication=replication)
    for i in ids:
        ring.join(i)
    return ring


# --- hashing -------------------------------------------------------------

def test_hash_is_deterministic():
    assert hash_id("M1", 5) == hash_id("M1", 5)
    assert hash_id("M1", 16) == hash_id("M1", 16)


def test_hash_pins_match_fixture():
    for line in (FIXTURES / "hash_pins.tsv").read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        m, ident, key = line.split("\t")
        assert hash_id(ident, int(m)) == int(key), f"pin drifted for {ident} (m={m})"


def test_hash_rejects_empty_identifier():
    with pytest.raises(ValueError):
        hash_id("", 16)


def test_hash_collision_rate_m16():
    ids = [f"md-{i:04d}" for i in range(1000)]
    keys = [hash_id(s, 16) for s in ids]
    counts = {}
    for k in keys:
        counts[k] = counts.get(k, 0) + 1
    colliding_pairs = sum(v * (v - 1) // 2 for v in counts.values())
    total_pairs = 1000 * 999 // 2
    assert colliding_pairs / total_pairs <= 0.01


# --- interval arithmetic ---------------------------------------------------

def test_arc_membership():
    assert in_arc(3, 10, 4)
    assert in_arc(3, 10, 10)
    assert not in_arc(3, 10, 3)
    assert in_arc(16, 3, 20)   # wraparound
    assert in_arc(16, 3, 1)
    assert not in_arc(16, 3, 10)
    assert in_arc(7, 7, 0)     # full circle
    assert not in_open_arc(3, 10, 10)
    assert in_open_arc(7, 7, 9)
    assert not in_open_arc(7, 7, 7)


# --- lookup ---------------------------------------------------------------

def test_find_successor_examples():
    ring = make_ring([3, 10, 16])
    # brute-force oracle: first id >= 12 clockwise is 16
    assert RingView([3, 10, 16]).owner(12) == 16
    owner, _ = ring.find_successor(3, 12)
    assert owner == 16
    # a node owns its own id
    assert ring.find_successor(3, 10)[0] == 10
    # sole successor
    solo = make_ring([7])
    assert solo.find_successor(7, 23) == (7, 0)


def test_every_lookup_counts_its_hops():
    ring = make_ring([3, 10, 16, 24])
    ring.lookup_hops.clear()  # the joins routed too
    hops = [ring.route_with_fallback(3, key)[1] for key in range(32)]
    assert ring.lookup_hops == {h: hops.count(h) for h in set(hops)}
    assert len(ring.lookup_hops) > 1  # short and long routes both


def test_find_successor_matches_oracle_from_every_start():
    rng = random.Random(99)
    m = 6
    ids = sorted(rng.sample(range(1 << m), 9))
    ring = make_ring(ids, m=m)
    oracle = RingView(ids)
    for key in range(1 << m):
        want = oracle.owner(key)
        for start in ids:
            got, _ = ring.find_successor(start, key)
            assert got == want


def test_closest_preceding_finger_examples():
    ring = make_ring([3, 10, 16])
    # fingers of node 3 (m=5) target 4,5,7,11,19 -> successors 10,10,10,16,3;
    # the latest entry inside (3, 12) is 10
    assert ring.closest_preceding_finger(ring.node(3), 12) == 10
    # key immediately after the node id: nothing precedes it
    assert ring.closest_preceding_finger(ring.node(3), 4) == 3


def test_closest_preceding_finger_never_passes_key():
    rng = random.Random(4)
    m = 10
    ids = sorted(rng.sample(range(1 << m), 64))
    ring = make_ring(ids, m=m)
    for _ in range(500):
        nid = rng.choice(ids)
        key = rng.randrange(1 << m)
        fid = ring.closest_preceding_finger(ring.node(nid), key)
        assert fid == nid or in_open_arc(nid, key, fid)


def test_finger_tables_are_converged():
    rng = random.Random(7)
    m = 8
    ids = sorted(rng.sample(range(1 << m), 16))
    ring = make_ring(ids, m=m)
    oracle = RingView(ids)
    for nid in ids:
        node = ring.node(nid)
        for j in range(m):
            assert node.fingers[j] == oracle.owner((nid + (1 << j)) % (1 << m))


def test_mean_hops_within_chord_bound():
    import math
    rng = random.Random(12)
    for n in (16, 64):
        m = 16
        ids = sorted(rng.sample(range(1 << m), n))
        ring = make_ring(ids, m=m)
        total = 0
        lookups = 2000
        for _ in range(lookups):
            start = rng.choice(ids)
            key = rng.randrange(1 << m)
            _, hops = ring.find_successor(start, key)
            total += hops
        assert total / lookups <= math.log2(n)


# --- membership ------------------------------------------------------------

def test_join_links_and_migrates_records():
    ring = make_ring([3, 16])
    ring.put_record("a", "rec-a", key=5)    # owned by 16 before the join
    ring.put_record("b", "rec-b", key=12)
    ring.put_record("c", "rec-c", key=20)   # in (16, 3]: wraps to node 3
    ring.join(10)
    n10 = ring.node(10)
    assert n10.successor == 16 and n10.predecessor == 3
    assert ring.node(16).predecessor == 10
    assert ring.node(3).successor == 10
    assert set(n10.store) == {"a"}          # keys in (3, 10] move over
    assert set(ring.node(16).store) == {"b"}
    assert set(ring.node(3).store) == {"c"}


def test_join_empty_ring_self_loops():
    ring = OverlayRing(m=5)
    node = ring.join(9)
    assert node.successor == 9 and node.predecessor == 9


def test_join_duplicate_id_rejected():
    ring = make_ring([3, 16])
    with pytest.raises(MembershipConflict):
        ring.join(16)


def test_random_joins_agree_with_oracle():
    rng = random.Random(5)
    m = 10
    ring = OverlayRing(m=m)
    ids: list[int] = []
    pool = list(range(1 << m))
    rng.shuffle(pool)
    for i in range(100):
        ring.join(pool[i])
        ids.append(pool[i])
    oracle = RingView(ids)
    for key in rng.sample(range(1 << m), 200):
        assert ring.owner_of(key) == oracle.owner(key)


def test_leave_moves_records_to_successor():
    ring = make_ring([3, 10, 16])
    ring.put_record("x", 1, key=14)  # in (10, 16], owned by 16
    ring.leave(16)
    assert ring.live_ids() == [3, 10]
    assert ring.node(3).predecessor == 10
    assert ring.node(10).successor == 3
    assert "x" in ring.node(3).store  # (10, 16] now wraps to 3


def test_leave_sole_node():
    ring = make_ring([7])
    ring.leave(7)
    assert ring.live_ids() == []


def test_leave_sole_node_with_records_refused():
    ring = make_ring([7])
    ring.put_record("x", 1, key=3)
    with pytest.raises(RingError):
        ring.leave(7)


def test_leave_unknown_id():
    ring = make_ring([3, 10])
    with pytest.raises(NotAMember):
        ring.leave(22)


def test_churn_preserves_records_and_ownership():
    rng = random.Random(21)
    m = 10
    ring = OverlayRing(m=m)
    members: list[int] = []
    stored: dict[str, int] = {}
    for i in range(8):
        nid = rng.randrange(1 << m)
        while nid in ring.nodes:
            nid = rng.randrange(1 << m)
        ring.join(nid)
        members.append(nid)
    for step in range(100):
        if members and rng.random() < 0.5 and len(members) > 1:
            nid = members.pop(rng.randrange(len(members)))
            ring.leave(nid)
        else:
            nid = rng.randrange(1 << m)
            while nid in ring.nodes:
                nid = rng.randrange(1 << m)
            ring.join(nid)
            members.append(nid)
        name = f"rec-{step}"
        key = rng.randrange(1 << m)
        ring.put_record(name, step, key=key)
        stored[name] = key
        # ring property: successor walk visits each live node exactly once
        cycle = ring.successor_cycle()
        assert sorted(cycle) == ring.live_ids()
        oracle = RingView(members)
        for nm, k in stored.items():
            rec = ring.get_record(nm, key=k)
            assert rec is not None and rec.value is not None
            assert ring.owner_of(k) == oracle.owner(k)
    assert {rec.name for _, rec in ring.stored_records()} == set(stored)


# --- fallback routing -------------------------------------------------------

def test_route_with_fallback_around_failed_finger():
    ring = make_ring([3, 10, 16, 24])
    ring.crash(16)
    owner, hops = ring.route_with_fallback(3, 23)
    assert owner == 24  # oracle over live ids {3, 10, 24}
    assert ring.find_successor(3, 23) == (24, hops)  # one lookup under both names


def test_fallback_sweep_single_failure_32_nodes():
    rng = random.Random(8)
    m = 10
    ids = sorted(rng.sample(range(1 << m), 32))
    ring = make_ring(ids, m=m)
    dead = rng.choice(ids)
    ring.crash(dead)
    live = [i for i in ids if i != dead]
    oracle = RingView(live)
    for key in range(0, 1 << m, 7):
        for start in live[::5]:
            owner, _ = ring.route_with_fallback(start, key)
            assert owner == oracle.owner(key)


def test_fallback_all_routes_dead():
    # more failures than the replication factor covers: node 3's whole
    # successor list (10, 16) is dead, as is its remaining finger target
    ring = make_ring([3, 10, 16, 24], replication=2)
    for dead in (10, 16, 24):
        ring.crash(dead)
    with pytest.raises(RoutingFailure):
        ring.route_with_fallback(3, 12)
    # within the replication factor the lookup survives: one dead node's keys
    # resolve to the next live one
    ring2 = make_ring([3, 10, 16], replication=2)
    ring2.crash(10)
    owner, _ = ring2.route_with_fallback(3, 5)  # 5 was owned by the dead 10
    assert owner == 16
    owner, _ = ring2.route_with_fallback(16, 2)
    assert owner == 3


# --- replication -------------------------------------------------------------

def test_replicate_to_both_successors():
    ring = make_ring([3, 10, 16], replication=2)
    ring.put_record("m", "payload", key=2)  # owned by 3
    receipts, partial = ring.replicate_to_successors(3)
    assert not partial
    assert {r.target for r in receipts} == {10, 16}
    assert "m" in ring.node(10).replica_store[3].records
    assert "m" in ring.node(16).replica_store[3].records


def test_replicate_empty_store():
    ring = make_ring([3, 10, 16])
    receipts, partial = ring.replicate_to_successors(10)
    assert all(r.record_count == 0 for r in receipts)
    assert not partial


def test_replication_partial_when_too_few_successors():
    ring = make_ring([3, 10], replication=2)
    _, partial = ring.replicate_to_successors(3)
    assert partial


def test_crash_then_serve_from_successor():
    ring = make_ring([3, 10, 16], replication=2)
    ring.put_record("m", "payload", key=2)  # at node 3
    ring.crash(3)
    adopter, recovered, _ = ring.adopt_failed(3)
    assert adopter == 10
    assert "m" in recovered
    rec = ring.get_record("m", key=2)
    assert rec is not None and rec.value == "payload"


def test_single_crash_leaves_all_records_retrievable():
    rng = random.Random(31)
    m = 10
    ids = sorted(rng.sample(range(1 << m), 8))
    ring = make_ring(ids, m=m, replication=2)
    keys = {}
    for i in range(60):
        k = rng.randrange(1 << m)
        ring.put_record(f"r{i}", i, key=k)
        keys[f"r{i}"] = k
    dead = rng.choice(ids)
    ring.crash(dead)
    ring.adopt_failed(dead)
    for name, k in keys.items():
        rec = ring.get_record(name, key=k)
        assert rec is not None and rec.value is not None
