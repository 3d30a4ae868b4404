"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the assignment-quality ratio table.
"""

import math
import random
import time

import pytest

from sdedge.errors import ScenarioError, UnknownMobile
from sdedge.mobility import MobilityManager
from sdedge.report import render_csv, render_json
from sdedge.ring import OverlayRing, RingView, hash_id
from sdedge.scenario import apply_overrides, bundled_scenario_path, parse_scenario, parse_scenario_text
from sdedge.scheduler import (
    APStatus,
    FlowRequest,
    PartitionView,
    assign_flows_greedy,
    brute_force_assign,
)
from sdedge.simnet import World

from textdiff import first_difference

SAMPLE = 0.1


def run_bundled(name, **overrides):
    sc = parse_scenario(bundled_scenario_path(name))
    params = apply_overrides(sc.params, {k: str(v) for k, v in overrides.items()})
    world = World(sc, params)
    report = world.run()
    return world, report


def build_ring(ids, m, r=2):
    ring = OverlayRing(m=m, replication=r)
    for i in ids:
        ring.join(i)
    return ring


def sample_ids(rng, m, n):
    return sorted(rng.sample(range(1 << m), n))


# ---------------------------------------------------------------------- A1

def test_a1_location_auth_timeline_shape():
    t0 = time.time()
    series = {}
    for mode in ("None", "LEDGE-LA", "LEDGE-PAP"):
        _, report = run_bundled("fig6", mode=mode)
        series[mode] = report.series("F1")

    for mode, s in series.items():
        by_t = dict(s)
        assert by_t[22.0] == 8.0, f"{mode}: stream not at full rate before the exit"
        # drop to zero at t=22.1 within one sample
        drop = next(t for t, v in s if t > 21.95 and v == 0.0)
        assert 22.0 <= drop <= 22.2, f"{mode}: drop at {drop}"

    # mode None: full rate within the reassociation delay after AP3 association
    none_recover = next(t for t, v in series["None"] if t >= 22.1 and v == 8.0)
    assert none_recover <= 22.1 + 0.5 + 2 * SAMPLE

    # LA and PAP stay at zero across the whole absence window
    for mode in ("LEDGE-LA", "LEDGE-PAP"):
        for t, v in series[mode]:
            if 22.1 <= t <= 35.9:
                assert v == 0.0, f"{mode}: leaked {v} Mbps at t={t}"
        first = next(t for t, v in series[mode] if t >= 35.9 and v > 0)
        assert abs(first - (35.9 + 4.0)) <= 0.2, f"{mode}: recovered at {first}"

    assert series["LEDGE-LA"] == series["LEDGE-PAP"], "LA and PAP series must be pointwise equal"
    elapsed = time.time() - t0
    assert elapsed < 5.0
    print(f"\n[A1] PASS timeline shape: drop@22.1, None fast-recovery, LA/PAP zero then "
          f"first nonzero @{first:.1f}s, pointwise equal ({elapsed:.2f}s)")


# ---------------------------------------------------------------------- A2

def test_a2_packet_in_scales_linearly():
    t0 = time.time()
    counts = []
    for n in (1, 2, 3, 4):
        _, report = run_bundled("fig5c", controllers=n)
        total = sum(report.packet_in.values())
        counts.append((n, total / report.duration))
    slope = sum(n * y for n, y in counts) / sum(n * n for n, _ in counts)
    worst = max(abs(y - slope * n) / (slope * n) for n, y in counts)
    assert worst <= 0.10, f"max relative deviation {worst:.3f} from line through origin"
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(f"[A2] PASS linear scalability: rates={[round(y) for _, y in counts]}/s, "
          f"slope={slope:.1f}, max dev={worst:.4f} ({elapsed:.2f}s)")


# ---------------------------------------------------------------------- A3

def test_a3_personal_ap_beats_plain_reassociation():
    t0 = time.time()
    results = {}
    for pap in ("off", "on"):
        _, report = run_bundled("fig5", personal_ap=pap)
        switches = [h for h in report.handovers if h["kind"] in ("reassociate", "pap-migrate")]
        assert switches, "fig5 must produce AP switches"
        results[pap] = {
            "delay": sum(h["latency"] for h in switches) / len(switches),
            "delivered": report.delivered_mbit(),
        }
    assert results["on"]["delay"] < results["off"]["delay"], "Personal AP must lower handover delay"
    assert results["on"]["delivered"] >= results["off"]["delivered"]
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"[A3] PASS ordering: delay on={results['on']['delay']:.4f}s < off={results['off']['delay']:.4f}s; "
          f"delivered on={results['on']['delivered']:.0f} >= off={results['off']['delivered']:.0f} Mbit "
          f"({elapsed:.2f}s)")


# ---------------------------------------------------------------------- A4

def test_a4_lookup_matches_oracle_exhaustively():
    t0 = time.time()
    m = 10
    rng = random.Random(4040)
    for n in (1, 2, 5, 16, 32):
        ids = sample_ids(rng, m, n)
        ring = build_ring(ids, m)
        oracle = RingView(ids)
        for key in range(1 << m):
            want = oracle.owner(key)
            for start in ids:
                got, _ = ring.find_successor(start, key)
                assert got == want, f"N={n} start={start} key={key}: {got} != {want}"
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(f"[A4] PASS overlay oracle: exhaustive agreement for N in (1,2,5,16,32), m=10 ({elapsed:.2f}s)")


# ---------------------------------------------------------------------- A5

def test_a5_mean_hops_bounded_by_log2_n():
    t0 = time.time()
    m, n = 16, 64
    rng = random.Random(5050)
    ids = sample_ids(rng, m, n)
    ring = build_ring(ids, m)
    total = 0
    lookups = 10_000
    for _ in range(lookups):
        start = ids[rng.randrange(n)]
        key = rng.randrange(1 << m)
        _, hops = ring.find_successor(start, key)
        total += hops
    mean = total / lookups
    assert mean <= math.log2(n), f"mean hops {mean:.2f} > log2({n})"
    elapsed = time.time() - t0
    assert elapsed < 5.0
    print(f"[A5] PASS hop bound: mean {mean:.2f} <= {math.log2(n):.0f} over {lookups} lookups ({elapsed:.2f}s)")


# ---------------------------------------------------------------------- A6

def test_a6_churn_with_writes_loses_nothing():
    rng = random.Random(6060)
    m = 10
    ring = OverlayRing(m=m, replication=2)
    mgr = MobilityManager(ring)
    members: list[int] = []
    for _ in range(6):
        nid = rng.randrange(1 << m)
        while nid in ring.nodes:
            nid = rng.randrange(1 << m)
        ring.join(nid)
        members.append(nid)

    writes = 0
    for step in range(100):
        if rng.random() < 0.5 and len(members) > 2:
            victim = members.pop(rng.randrange(len(members)))
            ring.leave(victim)
        else:
            nid = rng.randrange(1 << m)
            while nid in ring.nodes:
                nid = rng.randrange(1 << m)
            ring.join(nid)
            members.append(nid)
        for _ in range(5):
            md = f"dev-{writes:04d}"
            mgr.register_md(md, first_controller=members[rng.randrange(len(members))])
            writes += 1
        # ring property after every step
        assert sorted(ring.successor_cycle()) == ring.live_ids()

    assert writes == 500
    oracle = RingView(members)
    for md, key in mgr.registered.items():
        holder = oracle.owner(key)
        assert md in ring.node(holder).store, f"{md} not at its oracle owner {holder}"
    assert len({rec.name for _, rec in ring.stored_records()}) == 500
    print(f"[A6] PASS churn safety: 100 membership ops + 500 writes, zero loss, oracle-equal ownership")


# ---------------------------------------------------------------------- A7

def _handover_workload(mgr, rng, members, mds, count):
    ok = 0
    for _ in range(count):
        md = mds[rng.randrange(len(mds))]
        target = members[rng.randrange(len(members))]
        mgr.handover(md, target)
        ok += 1
    return ok


def test_a7_failure_recovery_and_explicit_loss_reporting():
    rng = random.Random(7070)
    m = 10

    # single crash among 8 with r=2, mid-workload
    ids = sample_ids(rng, m, 8)
    ring = build_ring(ids, m, r=2)
    mgr = MobilityManager(ring)
    mds = [f"dev{i}" for i in range(60)]
    for i, md in enumerate(mds):
        mgr.register_md(md, first_controller=ids[i % len(ids)])
    live = list(ids)
    _handover_workload(mgr, rng, live, mds, 75)
    victim = live.pop(rng.randrange(len(live)))
    ring.crash(victim)
    report = mgr.recover_controller_failure(victim)
    assert report.lost == [], f"single crash with r=2 lost {report.lost}"
    for md in mds:
        assert mgr.get_supervisory(md) is not None
    assert _handover_workload(mgr, rng, live, mds, 75) == 75

    # two adjacent crashes with r=2: still no loss, and reports are explicit
    ids2 = sample_ids(rng, m, 8)
    ring2 = build_ring(ids2, m, r=2)
    mgr2 = MobilityManager(ring2)
    for i, md in enumerate(mds):
        mgr2.register_md(md, first_controller=ids2[i % len(ids2)])
    i = rng.randrange(len(ids2))
    a, b = ids2[i], ids2[(i + 1) % len(ids2)]
    ring2.crash(a)
    ring2.crash(b)
    reports = [mgr2.recover_controller_failure(a), mgr2.recover_controller_failure(b)]
    assert all(r.lost == [] for r in reports)
    for md in mds:
        assert mgr2.get_supervisory(md) is not None

    # r=1 makes the same adjacent pair a genuine loss; every casualty is named
    ids3 = sample_ids(rng, m, 8)
    ring3 = build_ring(ids3, m, r=1)
    mgr3 = MobilityManager(ring3)
    for i, md in enumerate(mds):
        mgr3.register_md(md, first_controller=ids3[i % len(ids3)])
    owners = {md: RingView(ids3).owner(key) for md, key in mgr3.registered.items()}
    # crash an owner that actually holds records plus its only replica holder
    loaded = next(o for o in ids3 if any(v == o for v in owners.values()))
    succ = ids3[(ids3.index(loaded) + 1) % len(ids3)]
    ring3.crash(loaded)
    ring3.crash(succ)
    lost = set(mgr3.recover_controller_failure(loaded).lost)
    lost |= set(mgr3.recover_controller_failure(succ).lost)
    assert lost, "constructed loss did not materialize"
    for md in mds:
        if md in lost:
            with pytest.raises(UnknownMobile):
                mgr3.get_supervisory(md)
        else:
            assert mgr3.get_supervisory(md) is not None
    print(f"[A7] PASS failure recovery: single crash fully recovered, adjacent r=2 lossless, "
          f"r=1 loss of {len(lost)} records reported, never silent")


# ---------------------------------------------------------------------- A8

def _gap_corpus(seed=20240811, n=200):
    rng = random.Random(seed)
    for _ in range(n):
        n_aps = rng.randint(1, 4)
        n_req = rng.randint(1, 6)
        pool = ["wifi", "wimax", "bluetooth"]
        aps = [
            APStatus(f"AP{a+1}", capacity=float(rng.randint(4, 12)),
                     radio_techs=frozenset(rng.sample(pool, rng.randint(1, 3))))
            for a in range(n_aps)
        ]
        view = PartitionView(controller="C", ap_status={ap.ap_id: ap for ap in aps})
        reqs = [
            FlowRequest(f"M{j}", "flow", float(rng.randint(1, 8)),
                        rng.choice(["wifi", "wifi", "wifi", "wimax", "bluetooth"]))
            for j in range(n_req)
        ]
        yield view, reqs


def test_a8_greedy_quality_against_oracle():
    t0 = time.time()
    ratios = []
    rows = []
    for i, (view, reqs) in enumerate(_gap_corpus()):
        greedy = assign_flows_greedy(reqs, view)
        oracle = brute_force_assign(reqs, view)
        # feasibility: capacity and technology respected
        loads: dict[str, float] = {}
        for req, ap_id in greedy.placements.items():
            if ap_id is None:
                continue
            ap = view.ap_status[ap_id]
            assert req.required_tech in ap.radio_techs
            loads[ap_id] = loads.get(ap_id, 0.0) + req.demand
        for ap_id, load in loads.items():
            assert load <= view.ap_status[ap_id].capacity + 1e-9
        assert greedy.utility <= oracle.utility + 1e-9
        ratio = 1.0 if oracle.utility == 0 else greedy.utility / oracle.utility
        ratios.append(ratio)
        rows.append((i, len(reqs), len(view.ap_status), greedy.utility, oracle.utility, ratio))

    mean = sum(ratios) / len(ratios)
    low = min(ratios)
    assert len(ratios) == 200
    assert mean >= 0.9, f"mean ratio {mean:.4f} < 0.9"
    assert low >= 0.5, f"min ratio {low:.4f} < 0.5"
    elapsed = time.time() - t0
    assert elapsed < 20.0
    print("[A8] greedy/oracle utility ratios (instances below 1.0):")
    print("  idx reqs aps greedy oracle ratio")
    for i, nr, na, g, o, r in rows:
        if r < 1.0:
            print(f"  {i:3d} {nr:4d} {na:3d} {g:6.1f} {o:6.1f} {r:.3f}")
    print(f"[A8] PASS assignment quality: mean={mean:.4f} min={low:.2f} over 200 pinned instances "
          f"({elapsed:.2f}s)")


# ---------------------------------------------------------------------- A9

AUTH_ARENA = """
[params]
m = 8
duration = 12.0
mode = LEDGE-LA
seed = {seed}
rotation_period = 5.0

[topology]
controller C1
switch SW1
ap AP1 pos=0,0 radius=13 capacity=11 techs=wifi partition=C1
ap AP2 pos=20,0 radius=13 capacity=11 techs=wifi partition=C1
ap AP3 pos=10,17 radius=13 capacity=11 techs=wifi partition=C1
md M1 pos={x0},{y0}
link AP1 SW1 latency=0.001 rate=100
link AP2 SW1 latency=0.001 rate=100
link AP3 SW1 latency=0.001 rate=100
link SW1 C1 latency=0.001 rate=100

[groups]
group G1 members=AP1,AP2,AP3

[traces]
{moves}
"""

INSIDE = [(10.0, 6.0), (9.0, 7.0), (11.0, 5.5), (10.5, 6.5)]
OUTSIDE = [(10.0, 28.0), (-10.0, -8.0), (30.0, -6.0), (60.0, 40.0)]


def _auth_world(seed):
    rng = random.Random(seed)
    pts = []
    t = 0.7
    while t < 11.5:
        pool = INSIDE if rng.random() < 0.55 else OUTSIDE
        x, y = pool[rng.randrange(len(pool))]
        pts.append((round(t, 3), x, y))
        t += 0.7
    x0, y0 = (INSIDE if rng.random() < 0.5 else OUTSIDE)[0]
    moves = "\n".join(f"move M1 {t} {x},{y} staying" for t, x, y in pts)
    sc = parse_scenario_text(AUTH_ARENA.format(seed=seed, x0=x0, y0=y0, moves=moves), f"auth{seed}")
    world = World(sc)
    deliveries = []  # (t, md, ap, epoch) per key a beacon delivered, per recipient
    hear = world.authn.hear

    def recording_hear(ap, recipients, now):
        key = hear(ap, recipients, now)
        if key is not None:
            deliveries.extend((now / 10**9, md, ap, key.epoch) for md in recipients)
        return key

    world.authn.hear = recording_hear
    world.run()
    return world, [(0.0, x0, y0)] + pts, deliveries


def _covered_all(world, x, y):
    return all(
        math.dist(world.aps[ap].position, (x, y)) <= world.aps[ap].radius
        for ap in ("AP1", "AP2", "AP3")
    )


def test_a9_authentication_properties():
    t0 = time.time()
    freshness = 0.05
    grants_total = denies_total = 0
    for seed in range(50):
        world, pts, deliveries = _auth_world(seed)  # only in-coverage MDs receive
        duration = world.params.duration
        rotation = world.params.rotation_period
        grants = [d for d in world.authn.auth_log if d.granted]
        denies = [d for d in world.authn.auth_log if not d.granted]
        grants_total += len(grants)
        denies_total += len(denies)

        # soundness: each grant is backed by a fresh same-epoch delivery per member AP
        for g in grants:
            for ap in ("AP1", "AP2", "AP3"):
                backing = [
                    t for (t, md, dap, epoch) in deliveries
                    if md == g.md_id and dap == ap and epoch == g.epoch
                    and g.at - freshness - 1e-9 <= t <= g.at + 1e-9
                ]
                assert backing, f"seed {seed}: grant at {g.at} lacks a fresh {ap} receipt"

        # rotation safety: grants only ever carry the epoch current at grant time
        for g in grants:
            current = int(g.at // rotation) + 1
            assert g.epoch == current, f"seed {seed}: grant at {g.at} used epoch {g.epoch} != {current}"

        # completeness: fresh entry into the area, long enough dwell, no
        # rotation inside the grant window -> a grant appears promptly
        spans = []
        for i, (t, x, y) in enumerate(pts):
            end = pts[i + 1][0] if i + 1 < len(pts) else duration
            spans.append((t, end, _covered_all(world, x, y)))
        window = 0.2
        for i, (t, end, inside) in enumerate(spans):
            if not inside or (i > 0 and spans[i - 1][2]):
                continue  # not a fresh entry
            if end - t < 0.3:
                continue  # too short to qualify
            if any(abs(t - k * rotation) < window for k in range(0, int(duration / rotation) + 2)) or \
               int(t // rotation) != int((t + window) // rotation):
                continue  # rotation straddles the window
            hit = [g for g in grants if t <= g.at <= t + window]
            assert hit, f"seed {seed}: no grant within {window}s of entering the area at t={t}"

    elapsed = time.time() - t0
    print(f"[A9] PASS authentication properties: soundness, completeness, rotation safety over 50 "
          f"seeded traces ({grants_total} grants / {denies_total} denies audited, {elapsed:.2f}s)")


# ---------------------------------------------------------------------- A10

def test_a10_metrics_files_are_byte_identical():
    t0 = time.time()
    cases = [
        ("fig6", {"mode": "None"}),
        ("fig6", {"mode": "LEDGE-LA"}),
        ("fig6", {"mode": "LEDGE-PAP"}),
        ("fig5c", {"controllers": 2}),
        ("fig5", {"personal_ap": "on"}),
        ("fig2", {}),
    ]
    for name, overrides in cases:
        _, r1 = run_bundled(name, **overrides)
        _, r2 = run_bundled(name, **overrides)
        assert first_difference(render_csv(r1), render_csv(r2)) is None, f"{name} {overrides}: csv drifted"
        assert first_difference(render_json(r1), render_json(r2)) is None, f"{name} {overrides}: json drifted"
    elapsed = time.time() - t0
    print(f"[A10] PASS determinism: {len(cases)} scenario runs byte-identical on repeat ({elapsed:.2f}s)")
