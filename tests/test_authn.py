import gc
import tracemalloc
from collections import Counter

import pytest

from sdedge.authn import (
    DENY_MISSING,
    DENY_STALE,
    DENY_UNKNOWN_GROUP,
    MODE_LA,
    MODE_NONE,
    MODE_PAP,
    AuthnService,
    Grant,
    LocationGroup,
)


def make_service(mode=MODE_LA, freshness=0.25):
    svc = AuthnService(mode=mode, key_freshness=freshness)
    svc.register_group(LocationGroup("G1", frozenset({"AP1", "AP2", "AP3"})))
    return svc


def collect_all(svc, md, now):
    for ap in ("AP1", "AP2", "AP3"):
        svc.receive_beacon(md, ap, now)


def test_rotation_yields_one_fresh_key_per_member():
    svc = make_service()
    keys = svc.rotate_group_keys("G1", now=0.0)
    assert len(keys) == 3
    assert len({k.epoch for k in keys}) == 1
    assert len({k.key_id for k in keys}) == 3
    assert {k.ap for k in keys} == {"AP1", "AP2", "AP3"}


def test_two_rotations_advance_epoch_and_retire_old_keys():
    svc = make_service()
    first = svc.rotate_group_keys("G1", now=0.0)
    svc.rotate_group_keys("G1", now=10.0)
    assert svc.epochs["G1"] == 2
    held_ids = {svc.current_key(ap).key_id for ap in ("AP1", "AP2", "AP3")}
    assert held_ids.isdisjoint({k.key_id for k in first})


def test_group_requires_two_members():
    with pytest.raises(ValueError):
        LocationGroup("G", frozenset({"AP1"}))


def test_full_fresh_wallet_grants():
    svc = make_service()
    svc.rotate_group_keys("G1", now=0.0)
    collect_all(svc, "M1", now=0.1)
    decision = svc.authenticate("M1", "G1", now=0.2)
    assert decision.granted
    assert svc.gate_traffic("AP1", "M1") == "forward"


def test_missing_key_denied():
    svc = make_service()
    svc.rotate_group_keys("G1", now=0.0)
    svc.receive_beacon("M1", "AP1", 0.1)
    svc.receive_beacon("M1", "AP2", 0.1)
    decision = svc.authenticate("M1", "G1", now=0.2)
    assert not decision.granted and decision.reason == DENY_MISSING


def test_stale_epoch_denied_after_rotation():
    svc = make_service()
    svc.rotate_group_keys("G1", now=0.0)
    collect_all(svc, "M1", now=0.1)
    svc.rotate_group_keys("G1", now=0.15)
    decision = svc.authenticate("M1", "G1", now=0.2)
    assert not decision.granted and decision.reason == DENY_STALE


def test_old_receipt_no_longer_proves_presence():
    svc = make_service(freshness=0.25)
    svc.rotate_group_keys("G1", now=0.0)
    collect_all(svc, "M1", now=0.1)
    decision = svc.authenticate("M1", "G1", now=1.0)
    assert not decision.granted and decision.reason == DENY_MISSING


def test_denial_revokes_standing_grant():
    svc = make_service()
    svc.rotate_group_keys("G1", now=0.0)
    collect_all(svc, "M1", now=0.1)
    assert svc.authenticate("M1", "G1", now=0.2).granted
    svc.rotate_group_keys("G1", now=0.3)
    assert not svc.authenticate("M1", "G1", now=0.35).granted
    assert svc.gate_traffic("AP2", "M1") == "drop"


def test_unknown_group():
    svc = make_service()
    decision = svc.authenticate("M1", "G9", now=0.0)
    assert not decision.granted and decision.reason == DENY_UNKNOWN_GROUP


def test_grant_expiry_after_missed_rotation():
    svc = make_service()
    svc.rotate_group_keys("G1", now=0.0)
    collect_all(svc, "M1", 0.1)
    svc.authenticate("M1", "G1", 0.2)
    svc.rotate_group_keys("G1", now=10.0)
    assert svc.is_granted("M1", "G1")  # grace: not yet revoked
    assert svc.expire_stale_grants(rotated_by=0.0) == []  # the grace after the epoch-1 rotation
    assert svc.expire_stale_grants(rotated_by=10.0) == [("M1", "G1")]
    assert not svc.is_granted("M1", "G1")


def test_gate_mode_none_always_forwards():
    svc = make_service(mode=MODE_NONE)
    assert svc.gate_traffic("AP1", "M1") == "forward"


def test_gate_ungrouped_ap_forwards():
    svc = make_service()
    assert svc.gate_traffic("AP9", "M1") == "forward"


def test_default_window_accepts_same_wave_receipts_only():
    # group beacons land in one synchronized wave; an in-area device always
    # presents age-zero receipts while a departed one holds last-wave ones
    svc = AuthnService(mode=MODE_LA)
    svc.register_group(LocationGroup("G1", frozenset({"AP1", "AP2", "AP3"})))
    svc.rotate_group_keys("G1", now=0.0)
    collect_all(svc, "M1", now=0.105)
    assert svc.authenticate("M1", "G1", now=0.105).granted
    # one beacon period later without fresh receipts: presence proof expired
    assert not svc.authenticate("M1", "G1", now=0.205).granted


def test_key_delivery_deferred_for_down_ap():
    svc = make_service()
    keys = svc.rotate_group_keys("G1", now=0.0, down_aps={"AP2"})
    assert len(keys) == 3
    assert svc.current_key("AP2") is None


def test_hearing_a_delivery_is_receive_beacon_per_recipient_with_one_shared_entry():
    batch, single = make_service(), make_service()
    for svc in (batch, single):
        svc.rotate_group_keys("G1", now=0.0)
        svc.receive_beacon("M2", "AP1", 0.1)  # an epoch-1 entry
        svc.rotate_group_keys("G1", now=1.0)
    key = batch.hear("AP1", ["M1", "M2", "M3"], 1.2)
    assert key.epoch == 2
    assert [single.receive_beacon(md, "AP1", 1.2) for md in ("M1", "M2", "M3")] == [key] * 3
    assert batch.wallets == single.wallets
    assert batch.wallets["M1"]["AP1"] is batch.wallets["M2"]["AP1"] is batch.wallets["M3"]["AP1"]
    assert batch.hear("AP9", ["M4"], 1.2) is None and "M4" not in batch.wallets


def test_no_wallet_holds_a_later_epoch_than_its_ap_installed():
    """`hear` and `receive_beacon` store an AP's installed key whatever the
    wallet holds, which is exact because an AP's installed epoch never falls:
    only `rotate_group_keys` installs a key, at its group's next epoch, and a
    down AP keeps its older key."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    aps = ("AP1", "AP2", "AP3", "AP4", "AP5")
    mds = ("M1", "M2", "M3")
    rosters = (("M1",), ("M1", "M2"), ("M2", "M3"), mds)  # reused tuples, so that deliveries re-stamp
    step = st.one_of(
        st.tuples(st.just("rotate"), st.sampled_from(["G1", "G2"]), st.frozensets(st.sampled_from(aps))),
        st.tuples(st.just("hear"), st.sampled_from(aps), st.sampled_from(rosters)),
        st.tuples(st.just("receive"), st.sampled_from(aps), st.sampled_from(mds)),
    )

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.lists(step, max_size=30))
    def check(steps):
        svc = make_service()
        svc.register_group(LocationGroup("G2", frozenset({"AP4", "AP5"})))
        installed = {}
        for now, (op, arg, who) in enumerate(steps):
            if op == "rotate":
                svc.rotate_group_keys(arg, float(now), down_aps=who)
            elif op == "hear":
                svc.hear(arg, who, float(now))
            else:
                svc.receive_beacon(who, arg, float(now))
            for ap, key in svc.ap_keys.items():
                assert key.epoch >= installed.get(ap, 0), (ap, key)
                installed[ap] = key.epoch
            for held in svc.wallets.values():
                for ap, entry in held.items():
                    assert entry.key.epoch <= svc.ap_keys[ap].epoch, (ap, entry)

    check()


def test_a_repeated_denial_is_its_logged_row_until_its_missing_key_arrives():
    svc = make_service(freshness=0.25)
    svc.rotate_group_keys("G1", now=0.0)
    scans = []
    authenticate = svc.authenticate

    def scan(md, gid, now):
        scans.append(now)
        return authenticate(md, gid, now)

    svc.authenticate = scan
    serving = {"M1": "AP1", "M2": "AP9"}  # AP9 is in no group

    def wave(ap, now):
        svc.hear(ap, ["M1", "M2"], now)
        return svc.reauthenticate(["M1", "M2"], serving, now)

    assert wave("AP1", 0.0) == []
    assert svc.denials[("M1", "G1")] == (1, 0, "AP2")  # epoch, row, the first missing member
    assert wave("AP1", 0.1) == []  # AP2 still missing: no scan
    assert wave("AP2", 0.2) == []  # AP2 arrives: a scan finds AP3 missing
    assert svc.denials[("M1", "G1")] == (1, 0, "AP3")
    assert wave("AP1", 0.3) == []
    assert wave("AP3", 0.4) == [("M1", True, True)]  # AP1 at 0.3 and AP2 at 0.2 are fresh
    assert scans == [0.0, 0.2, 0.4]
    assert [(d.md_id, d.granted, d.reason, d.epoch, d.at) for d in svc.auth_log] == [
        ("M1", False, DENY_MISSING, 1, 0.0), ("M1", False, DENY_MISSING, 1, 0.1),
        ("M1", False, DENY_MISSING, 1, 0.2), ("M1", False, DENY_MISSING, 1, 0.3), ("M1", True, None, 1, 0.4),
    ]
    assert list(svc.auth_log.index) == [0, 0, 0, 0, 1] and svc.auth_log.grants == 1
    # after a rotation the old denial proves nothing: a scan denies, with a new witness
    svc.rotate_group_keys("G1", now=0.5)
    assert wave("AP1", 0.6) == [("M1", True, False)]  # the epoch-1 grant is revoked
    assert svc.denials[("M1", "G1")] == (2, 2, "AP2") and scans[-1] == 0.6
    # a pair that holds a grant is scanned, whatever its denials
    svc.grants[("M1", "G1")] = Grant(1, 0.4)
    assert wave("AP1", 0.7) == [("M1", True, False)]
    assert scans[-1] == 0.7 and not svc.is_granted("M1", "G1")


def test_a_cached_denial_holds_a_few_hundred_bytes():
    # one `missing-keys` denial per device: the cache holds one entry per
    # (device, group) pair, and a gated run holds about a thousand pairs
    svc = AuthnService(MODE_PAP)
    svc.register_group(LocationGroup("G1", frozenset({"AP1", "AP2"})))
    svc.rotate_group_keys("G1", 0.0)
    mds = [f"M{i:04d}" for i in range(5000)]
    gc.collect()
    tracemalloc.start()
    try:
        for md in mds:
            svc.authenticate(md, "G1", 0.0)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        assert len(svc.denials) == len(mds)
        svc.denials.clear()
        gc.collect()
        held = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held / len(mds) < 256, held / len(mds)


def test_the_decision_log_holds_a_few_bytes_per_decision():
    # 200k denials over 250 devices and 800 instants, four epochs, so 1000
    # distinct rows: a gated run's shape. A list of one object per decision
    # holds about 88 bytes each; rows plus one index each hold about 5.
    svc = AuthnService(MODE_PAP)
    svc.register_group(LocationGroup("G1", frozenset({"AP1", "AP2"})))
    mds = [f"M{i:03d}" for i in range(250)]
    instants = [round(k * 0.05 + 0.002, 9) for k in range(800)]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k, now in enumerate(instants):
            if k % 200 == 0:
                svc.rotate_group_keys("G1", now)
            for md in mds:
                svc.authenticate(md, "G1", now)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    log = svc.auth_log
    assert len(log) == 200_000 and not any(d.granted for d in log)
    assert len({(d.md_id, d.epoch) for d in log}) == 1000
    assert held / len(log) < 8, held / len(log)


RECIPIENTS = ("M1", "M2", "M3")


def counted(svc):
    """Count the service's `authenticate` and `reauthenticate` calls."""
    calls = Counter()
    for name in ("authenticate", "reauthenticate"):
        def call(*args, _method=getattr(svc, name), _name=name):
            calls[_name] += 1
            return _method(*args)
        setattr(svc, name, call)
    return calls


def three_deliveries(change=None, by_deliver=True):
    """AP1's key reaches M1-M3 at 0.0, 0.1 and 0.2, with `change(svc, serving)`
    between the second and the third; it may return a new recipients tuple.
    `by_deliver=False` runs each delivery as `hear` then `reauthenticate`."""
    svc = make_service()
    svc.rotate_group_keys("G1", now=0.0)
    calls = counted(svc)
    serving = {"M1": "AP1", "M2": "AP9", "M3": "AP2"}  # AP9 is in no group
    recipients = RECIPIENTS
    for now in (0.0, 0.1, 0.2):
        if now == 0.2 and change is not None:
            recipients = change(svc, serving) or recipients
        if by_deliver:
            svc.deliver("AP1", recipients, serving, now)
        else:
            svc.hear("AP1", recipients, now)
            svc.reauthenticate(recipients, serving, now)
    return svc, calls


def test_an_unchanged_delivery_replays_its_previous_wave():
    svc, calls = three_deliveries()
    oracle, _ = three_deliveries(by_deliver=False)
    # 0.0 scans M1 and M3, whose AP2 key is missing; 0.1 repeats both
    # denials without a scan; 0.2 replays 0.1's rows without a pass
    assert calls == {"authenticate": 2, "reauthenticate": 2}
    assert list(svc.auth_log) == list(oracle.auth_log)
    assert [(d.md_id, d.granted, d.at) for d in svc.auth_log][-2:] == [("M1", False, 0.2), ("M3", False, 0.2)]
    assert list(svc.auth_log.index) == [0, 1] * 3 and svc.auth_log.times == [0.0, 0.1, 0.2]


def grant_another(svc, serving):
    for ap in ("AP1", "AP2", "AP3"):
        svc.hear(ap, ("M4",), 0.15)
    assert svc.authenticate("M4", "G1", 0.15).granted


def revoke(svc, serving):
    svc.revoke("M4", "G1")


def rotate(svc, serving):
    svc.rotate_group_keys("G1", now=0.15)


def receive_one(svc, serving):
    svc.receive_beacon("M4", "AP3", 0.15)


def move_m3(svc, serving):
    serving["M3"] = "AP3"  # from one member to another, as a PAP migration


def copy_recipients(svc, serving):
    return tuple(sorted(RECIPIENTS))  # equal, but not the same tuple


@pytest.mark.parametrize("change", [grant_another, revoke, rotate, receive_one, move_m3, copy_recipients],
                         ids=["grant", "revoke", "rotation", "receive_beacon", "serving-ap", "recipients-tuple"])
def test_a_change_that_a_decision_reads_forces_a_full_pass(change):
    svc, calls = three_deliveries(change)
    oracle, _ = three_deliveries(change, by_deliver=False)
    assert calls["reauthenticate"] == 3
    assert [d.md_id for d in svc.auth_log if d.at == 0.2] == ["M1", "M3"]
    assert list(svc.auth_log) == list(oracle.auth_log)
    assert svc.wallets == oracle.wallets


def test_a_repeated_delivery_restamps_its_shared_entry():
    svc, oracle = make_service(), make_service()
    for s in (svc, oracle):
        s.rotate_group_keys("G1", now=0.0)
    serving = {}

    def both(recipients, now):
        svc.deliver("AP1", recipients, serving, now)
        for md in recipients:
            oracle.receive_beacon(md, "AP1", now)
        assert svc.wallets == oracle.wallets

    both(RECIPIENTS, 0.0)
    entry = svc.wallets["M1"]["AP1"]
    both(RECIPIENTS, 0.1)
    assert all(svc.wallets[md]["AP1"] is entry for md in RECIPIENTS) and entry.received_at == 0.1
    # a new tuple, or a `receive_beacon` since, writes a fresh entry
    both(RECIPIENTS + ("M4",), 0.2)
    assert entry.received_at == 0.1 and svc.wallets["M4"]["AP1"].received_at == 0.2
    entry = svc.wallets["M4"]["AP1"]
    svc.receive_beacon("M9", "AP2", 0.25)
    oracle.receive_beacon("M9", "AP2", 0.25)
    both(RECIPIENTS, 0.3)
    assert entry.received_at == 0.2 and svc.wallets["M1"]["AP1"] is not entry
