"""Location-group authentication: epoch keys, beacon wallets, access gating.

A location group is a set of APs whose coverage intersection is the
access-granted area. The controller rotates one opaque key per member AP
each epoch; APs broadcast them in beacons; a device proves presence by
holding a current-epoch key for *every* member, each heard recently
(within `key_freshness`). Possession of all keys stands in for
being inside the intersection, so the freshness window is what makes a
key stop counting once the device walks away. Group beacons fire in one
synchronized wave per period, so a device inside the area always presents
same-wave (age-zero) receipts; the default window only needs to cover
clock skew within a wave. A device outside the area fails it only while
`key_freshness` is below the beacon period: at or above it, the keys heard
one wave before it left still count.
Every time here is integer ns, the world's clock, so the window is one
exact comparison: a key heard exactly `key_freshness` ago still counts.

Grants persist between checks and are revoked by: a failed
re-authentication, a change of serving AP, or missing the
re-authentication grace window after a rotation.

A beacon delivery is one batch, `AuthnService.deliver`: `hear` gives all of
its recipients one shared `WalletEntry`, and `reauthenticate` decides, in
recipient order, each recipient that holds no grant of its serving group's
current epoch. Most of those decisions repeat a `missing-keys` denial: a
denied pair keeps its epoch, its log row and the member AP whose key was
missing or stale, and while the epoch is current and that member's key is
still missing or stale at `now`, the decision is that same row, with no
wallet scan. Any other decision scans the wallet through `authenticate`.
Every decision is logged in `auth_log`, a `report.DecisionLog`.

Most deliveries change nothing, and cost one log extend and one re-stamp:
- `hear` re-stamps its AP's latest entry, `received_at = now`, when the
  AP's key is the same object and the recipients the same tuple as in the
  AP's previous `hear`. Only `hear` writes a wallet (`receive_beacon` is a
  `hear` to one device), and only this AP's `hear` writes this AP's wallet
  slot, so each of those recipients still holds that entry: the re-stamp
  is a fresh `WalletEntry(key, now)` written to each of them.
- `deliver` replays the AP's previous wave, extending the log by its rows
  with no decision made, when `version` is what it was at that wave's
  start, the recipients are the same tuple and their serving APs are equal.
  `version` counts every write a decision reads: `authenticate` (grants,
  denials), `revoke`, each expiry, `rotate_group_keys`, `register_group`
  and `receive_beacon`. An equal version means the previous wave made no
  scan, so each of its recipients was skipped or repeated a denial:
  - skipped: its serving AP is ungrouped, or it holds a grant of the
    current epoch; both still hold;
  - repeated: it repeated a `missing-keys` denial whose named member's key
    was missing or stale. Time only ages an entry, so the key stays so
    unless that member's delivery reaches the device. In that delivery
    (exact, by induction over deliveries) the device is served as in both
    waves of this AP and holds no grant, so it is decided, and the fresh
    key sends it to a scan, which moves `version`.
  "Served as in both waves" holds because `simnet` delivers a wave in one
  event, in which every live grouped AP delivers and no serving AP changes.
  This AP delivered at both waves, so it was alive in every wave between
  (a failed AP does not return): they are consecutive, and the member's
  delivery falls in one of those two events. Writes made straight into `grants`,
  `ap_keys` or `wallets` move no `version`: they are outside this contract,
  and code that makes them calls `hear` and `reauthenticate`, not `deliver`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property

from .report import AuthDecision, DecisionLog

MODE_NONE = "None"
MODE_LA = "LEDGE-LA"
MODE_PAP = "LEDGE-PAP"
MODES = (MODE_NONE, MODE_LA, MODE_PAP)

DENY_MISSING = "missing-keys"
DENY_STALE = "stale-epoch"
DENY_UNKNOWN_GROUP = "unknown-group"


@dataclass(frozen=True)
class LocationGroup:
    group_id: str
    members: frozenset[str]

    def __post_init__(self):
        if len(self.members) < 2:
            raise ValueError(f"location group {self.group_id} needs at least 2 APs")

    @cached_property
    def ordered_members(self) -> tuple[str, ...]:
        """The members in name order, the order keys are issued and checked in."""
        return tuple(sorted(self.members))


@dataclass(frozen=True)
class BeaconKey:
    key_id: str
    ap: str
    group_id: str
    epoch: int


@dataclass(slots=True)
class WalletEntry:
    """A key as heard at `received_at`. An entry is shared by the recipients
    of its AP's latest delivery, and only that AP's next identical delivery
    re-stamps it (`AuthnService.hear`)."""

    key: BeaconKey
    received_at: int


class AuthnService:
    """Controller-side key state plus per-device wallets and grants."""

    def __init__(self, mode: str = MODE_NONE, key_freshness: int = 50_000_000):  # ns
        if mode not in MODES:
            raise ValueError(f"unknown access-control mode {mode!r}")
        self.mode = mode
        self.active = mode != MODE_NONE  # mode None grants and gates nothing
        self.key_freshness = key_freshness
        self.groups: dict[str, LocationGroup] = {}
        self.epochs: dict[str, int] = {}
        self.rotated_at: dict[str, int] = {}
        self.ap_keys: dict[str, BeaconKey] = {}
        self.group_of: dict[str, str] = {}
        self.wallets: dict[str, dict[str, WalletEntry]] = {}  # device -> latest entry per AP
        self.grants: dict[tuple[str, str], int] = {}  # (device, group) -> epoch granted
        self.auth_log = DecisionLog()
        # (device, group) -> (epoch, log row, member AP whose key was missing
        # or stale) of its latest `missing-keys` denial that named a member
        self.denials: dict[tuple[str, str], tuple[int, int, str]] = {}
        self.version = 0  # moved by every write a decision reads
        self._heard: dict[str, tuple[WalletEntry, tuple[str, ...]]] = {}  # AP -> (entry, recipients) of its latest `hear`
        # AP -> (version at its start, recipients, their serving APs, log rows) of its latest wave
        self._waves: dict[str, tuple[int, tuple[str, ...], list, array]] = {}

    # -- controller side -----------------------------------------------------

    def register_group(self, group: LocationGroup) -> None:
        for ap in group.members:
            other = self.group_of.get(ap)
            if other is not None and other != group.group_id:
                raise ValueError(f"AP {ap} already belongs to group {other}")
        self.version += 1
        self.groups[group.group_id] = group
        self.epochs.setdefault(group.group_id, 0)
        for ap in group.members:
            self.group_of[ap] = group.group_id

    def rotate_group_keys(self, group_id: str, now: int, down_aps=()) -> list[BeaconKey]:
        """Advance the epoch and hand one fresh key to every live member AP.

        Keys are issued for down APs too but never installed: a failed AP
        does not return.
        """
        group = self.groups[group_id]
        self.version += 1
        epoch = self.epochs[group_id] + 1
        self.epochs[group_id] = epoch
        self.rotated_at[group_id] = now
        down = set(down_aps)
        keys = []
        for ap in group.ordered_members:
            key = BeaconKey(key_id=f"k/{group_id}/{epoch}/{ap}", ap=ap, group_id=group_id, epoch=epoch)
            keys.append(key)
            if ap not in down:
                self.ap_keys[ap] = key
        return keys

    def current_key(self, ap: str) -> BeaconKey | None:
        return self.ap_keys.get(ap)

    # -- device side -----------------------------------------------------------

    def receive_beacon(self, md_id: str, ap: str, received_at: int) -> BeaconKey | None:
        """One device hears `ap`'s current key, outside any wave: a `hear` to
        it alone, which moves `version`."""
        self.version += 1
        return self.hear(ap, (md_id,), received_at)

    def hear(self, ap: str, recipients: tuple[str, ...], now: int) -> BeaconKey | None:
        """`ap`'s current key reaches each of `recipients`: it replaces their
        wallet entry for `ap` with one entry shared by all. Only
        `rotate_group_keys` installs a key, at a rising epoch, so no held entry
        is of a later epoch than it. A delivery of the same key to the same
        tuple as `ap`'s previous one re-stamps that one's entry instead."""
        key = self.ap_keys.get(ap)
        if key is not None:
            last = self._heard.get(ap)
            if last is not None and last[0].key is key and last[1] is recipients:
                last[0].received_at = now
                return key
            entry, wallets = WalletEntry(key, now), self.wallets
            for md in recipients:
                held = wallets.get(md)
                if held is None:
                    held = wallets[md] = {}
                held[ap] = entry
            self._heard[ap] = (entry, recipients)
        return key

    def deliver(self, ap: str, recipients: tuple[str, ...], serving_of: dict[str, str],
                now: int) -> list[tuple[str, bool, bool]]:
        """`ap`'s key reaches `recipients`, its roster in name order: `hear`,
        then `reauthenticate`, or a replay of `ap`'s previous wave when
        nothing it read has changed (see the module docstring). Returns what
        `reauthenticate` returns; a replay returns nothing."""
        self.hear(ap, recipients, now)
        if not self.active:
            return []
        serving = list(map(serving_of.get, recipients))
        log, version, last = self.auth_log, self.version, self._waves.get(ap)
        if last is not None and last[0] == version and last[1] is recipients and last[2] == serving:
            log.extend_rows(last[3], now)
            return []
        start = len(log)
        changed = self.reauthenticate(recipients, serving_of, now)
        self._waves[ap] = (version, recipients, serving, log.index[start:])
        return changed

    # -- decisions ----------------------------------------------------------------

    def authenticate(self, md_id: str, group_id: str, now: int) -> AuthDecision:
        """One decision: granted iff the wallet shows a fresh, current-epoch key per member AP.

        A denial revokes any standing grant (a failed re-authentication is
        exactly the revocation trigger after rotations). Returns the logged
        decision, its time in seconds.
        """
        self.version += 1
        group = self.groups.get(group_id)
        if group is None:
            self.auth_log.append(md_id, group_id, False, DENY_UNKNOWN_GROUP, -1, now)
            return self.auth_log.latest()

        epoch = self.epochs[group_id]
        held = self.wallets.get(md_id) or {}
        freshness = self.key_freshness
        reason = witness = None
        for ap in group.ordered_members:
            entry = held.get(ap)
            if entry is None or now - entry.received_at > freshness:
                reason, witness = DENY_MISSING, ap
                break
            if entry.key.epoch != epoch:
                reason = reason or DENY_STALE
        if reason is None and epoch == 0:
            reason = DENY_MISSING  # no keys ever distributed

        granted = reason is None
        pair = (md_id, group_id)
        if granted:
            self.grants[pair] = epoch
        else:
            self.grants.pop(pair, None)
        row = self.auth_log.append(md_id, group_id, granted, reason, epoch, now)
        if witness is not None:
            self.denials[pair] = (epoch, row, witness)
        return self.auth_log.latest()

    def reauthenticate(self, recipients: list[str], serving_of: dict[str, str],
                       now: int) -> list[tuple[str, bool, bool]]:
        """Decide, in order, each of `recipients` whose serving AP (`serving_of`)
        is grouped and that holds no grant of that group's current epoch, as
        `authenticate` would. Returns (md, gate flipped, granted) for each
        decision that flipped the gate or granted.

        A pair that holds no grant, whose latest `missing-keys` denial is of
        the current epoch, and whose member named by it is still missing or
        stale at `now`, is denied again without a scan: any missing or stale
        member gives that row, whatever the member order.
        """
        group_of, grants, epochs, denials = self.group_of, self.grants, self.epochs, self.denials
        wallets, freshness, log = self.wallets, self.key_freshness, self.auth_log
        changed, repeats = [], []  # repeats: the rows of denials not yet logged
        for md in recipients:
            gid = group_of.get(serving_of.get(md))
            if gid is None:
                continue
            pair = (md, gid)
            grant = grants.get(pair)
            epoch = epochs[gid]
            if grant is None:
                denial = denials.get(pair)
                if denial is not None and denial[0] == epoch:
                    entry = (wallets.get(md) or {}).get(denial[2])
                    if entry is None or now - entry.received_at > freshness:
                        repeats.append(denial[1])
                        continue
            elif grant == epoch:
                continue
            log.extend_rows(repeats, now)
            repeats.clear()
            granted = self.authenticate(md, gid, now).granted
            if granted or grant is not None:
                changed.append((md, granted != (grant is not None), granted))
        log.extend_rows(repeats, now)
        return changed

    def revoke(self, md_id: str, group_id: str) -> None:
        self.version += 1
        self.grants.pop((md_id, group_id), None)

    def expire_stale_grants(self, rotated_by: int) -> list[tuple[str, str]]:
        """Revoke grants whose epoch a rotation at or before `rotated_by` ended.

        This is the "missed re-authentication after rotation" rule: the
        caller runs it once the grace window after that rotation is over, on
        its own clock. Devices still in the area renew off the next beacon
        wave well inside the window and never observe a gap.
        """
        expired = []
        for (md, gid), epoch in list(self.grants.items()):
            if epoch < self.epochs.get(gid, 0) and self.rotated_at[gid] <= rotated_by:
                expired.append((md, gid))
                del self.grants[(md, gid)]
                self.version += 1
        return expired

    def is_granted(self, md_id: str, group_id: str) -> bool:
        return (md_id, group_id) in self.grants

    def gate_traffic(self, ap: str, md_id: str) -> str:
        """Per-packet gate: 'forward' or 'drop'.

        Mode None always forwards; otherwise traffic through a grouped AP
        requires a standing grant for that AP's group.
        """
        if not self.active:
            return "forward"
        group_id = self.group_of.get(ap)
        if group_id is None:
            return "forward"
        return "forward" if self.is_granted(md_id, group_id) else "drop"
