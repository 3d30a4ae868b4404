"""Consistent-hashing overlay of controllers with finger-table routing.

Controllers sit on an m-bit ring; each one owns the key arc between its
predecessor and itself. Membership changes are atomic multi-step
transactions (no background stabilization), so tables are converged after
every join/leave/recovery. Record stores and control tables are replicated
to the next `replication` distinct live successors (successor-list
replication, as in Chord and Dynamo): each write of a record or a control
entry goes to the owner and to its replica bundles, O(r) per write, and a
membership change resyncs every bundle from the owners' whole stores.

Stored values are immutable, so an owner and its bundles may share one
value but nobody changes it in place: `write_record`, `put_control` and
`pop_control` are the only ways replicated state changes. A write addressed
to a crashed owner lands in its bundles on their live holders, which is
where an adoption will later find it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any

from .errors import MembershipConflict, NotAMember, RingError, RoutingFailure

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a. Chosen for determinism across platforms, not strength."""
    h = _FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & _MASK64
    return h


def hash_id(identifier: str, m: int) -> int:
    """Map an identifier to an m-bit ring key: FNV-1a 64, XOR-folded to m bits."""
    if not identifier:
        raise ValueError("identifier must be non-empty")
    if not 1 <= m <= 64:
        raise ValueError(f"ring width m={m} out of range [1, 64]")
    h = fnv1a64(identifier.encode("utf-8"))
    mask = (1 << m) - 1
    out = 0
    while h:
        out ^= h & mask
        h >>= m
    return out


def in_arc(a: int, b: int, k: int) -> bool:
    """Clockwise membership k in (a, b]. a == b covers the whole ring."""
    if a < b:
        return a < k <= b
    return k > a or k <= b


def in_open_arc(a: int, b: int, k: int) -> bool:
    """Clockwise membership k in (a, b). a == b covers everything but a."""
    if a < b:
        return a < k < b
    if a > b:
        return k > a or k < b
    return k != a


@dataclass(frozen=True)
class StoredRecord:
    name: str
    key: int
    value: Any


@dataclass
class ReplicaBundle:
    """A successor's mirror of one owner's record store and control tables.

    Each record or control write at the owner is written here too, so the
    bundle always equals a whole copy of the owner taken at that moment;
    a join, leave or adoption rebuilds it from such a copy. Once the owner
    crashes, its bundles stand in for it: writes addressed to it land here
    until a successor adopts the nearest bundle.
    """

    records: dict[str, StoredRecord] = field(default_factory=dict)
    control: dict[str, dict] = field(default_factory=dict)


@dataclass
class ReplicationReceipt:
    source: int
    target: int
    record_count: int


@dataclass
class ControllerNode:
    id: int
    successor: int
    predecessor: int
    fingers: list[int] = field(default_factory=list)
    successor_list: list[int] = field(default_factory=list)
    store: dict[str, StoredRecord] = field(default_factory=dict)
    control: dict[str, dict] = field(default_factory=dict)
    replica_store: dict[int, ReplicaBundle] = field(default_factory=dict)
    alive: bool = True


class RingView:
    """Ownership over a plain sorted id set, by bisection: the ring's owner
    index for its live ids, and the oracle routed lookups are checked against."""

    def __init__(self, ids):
        self.ids = sorted(set(ids))

    def owner(self, key: int) -> int:
        if not self.ids:
            raise NotAMember("empty ring")
        i = bisect.bisect_left(self.ids, key)
        return self.ids[i] if i < len(self.ids) else self.ids[0]


class OverlayRing:
    """The controller overlay: membership, routing, and replicated storage."""

    def __init__(self, m: int = 16, replication: int = 2):
        if not 1 <= m <= 64:
            raise ValueError(f"ring width m={m} out of range [1, 64]")
        if replication < 1:
            raise ValueError("replication factor must be >= 1")
        self.m = m
        self.size = 1 << m
        self.replication = replication
        self.nodes: dict[int, ControllerNode] = {}
        self.lookup_hops: dict[int, int] = {}  # hops -> routed lookups that took that many

    # -- identity ---------------------------------------------------------

    def hash_id(self, identifier: str) -> int:
        return hash_id(identifier, self.m)

    def live_ids(self) -> list[int]:
        return sorted(nid for nid, n in self.nodes.items() if n.alive)

    def node(self, node_id: int) -> ControllerNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise NotAMember(f"no node {node_id}") from None

    def is_live(self, node_id: int) -> bool:
        n = self.nodes.get(node_id)
        return n is not None and n.alive

    # -- membership -------------------------------------------------------

    def join(self, new_id: int) -> ControllerNode:
        """Insert a controller: lookup its successor, link, migrate keys, repair."""
        if not 0 <= new_id < self.size:
            raise ValueError(f"id {new_id} outside [0, 2^{self.m})")
        if new_id in self.nodes:
            raise MembershipConflict(f"node {new_id} already present")

        if not self.live_ids():
            node = ControllerNode(id=new_id, successor=new_id, predecessor=new_id)
            self.nodes[new_id] = node
            self._rebuild_tables()
            return node

        bootstrap = self.live_ids()[0]
        succ_id, _ = self.route_with_fallback(bootstrap, new_id)
        succ = self.nodes[succ_id]
        pred_id = succ.predecessor
        node = ControllerNode(id=new_id, successor=succ_id, predecessor=pred_id)
        self.nodes[new_id] = node
        self.nodes[pred_id].successor = new_id
        succ.predecessor = new_id

        # keys in (pred, new_id] move from the successor to the new node
        for name in [n for n, r in succ.store.items() if in_arc(pred_id, new_id, r.key)]:
            node.store[name] = succ.store.pop(name)

        self._rebuild_tables()
        self.refresh_replication()
        return node

    def leave(self, node_id: int) -> None:
        """Graceful departure: records and control info go to the successor."""
        node = self.nodes.get(node_id)
        if node is None or not node.alive:
            raise NotAMember(f"node {node_id} is not a live member")

        live = self.live_ids()
        if len(live) == 1:
            if node.store or any(node.control.values()):
                raise RingError("sole node holds records; nowhere to migrate them")
            del self.nodes[node_id]
            return

        succ = self.nodes[node.successor]
        if not succ.alive:  # crashed neighbour not yet recovered: next live one
            succ = self.nodes[RingView(live).owner((node_id + 1) % self.size)]
        succ.store.update(node.store)
        for table, entries in node.control.items():
            succ.control.setdefault(table, {}).update(entries)
        del self.nodes[node_id]
        self._relink_and_repair()

    def crash(self, node_id: int) -> None:
        """Non-graceful failure: node stops responding, state left in place."""
        node = self.nodes.get(node_id)
        if node is None:
            raise NotAMember(f"no node {node_id}")
        node.alive = False

    def adopt_failed(self, failed_id: int) -> tuple[int | None, dict[str, StoredRecord], dict[str, dict]]:
        """Recover a crashed node: its successor absorbs the best replica bundle.

        Returns (adopter id, recovered records, recovered control tables).
        The caller decides what was *expected* and hence what was lost.
        """
        node = self.nodes.get(failed_id)
        if node is None:
            raise NotAMember(f"no node {failed_id}")
        if node.alive:
            raise RingError(f"node {failed_id} has not failed")

        live = self.live_ids()
        if not live:
            del self.nodes[failed_id]
            return None, {}, {}

        adopter = self.nodes[RingView(live).owner(failed_id % self.size)]
        recovered: dict[str, StoredRecord] = {}
        control: dict[str, dict] = {}
        bundles = self._replica_bundles(failed_id)  # nearest holder first
        if bundles:
            bundle = bundles[0]
            recovered = dict(bundle.records)
            control = {t: dict(e) for t, e in bundle.control.items()}
            adopter.store.update(recovered)
            for table, entries in control.items():
                adopter.control.setdefault(table, {}).update(entries)

        del self.nodes[failed_id]
        for n in self.nodes.values():
            n.replica_store.pop(failed_id, None)
        self._relink_and_repair()
        return adopter.id, recovered, control

    # -- routing ----------------------------------------------------------

    def closest_preceding_finger(self, node: ControllerNode, key: int) -> int:
        """Latest finger entry in (node.id, key) clockwise, or the node itself."""
        for fid in reversed(node.fingers):
            if in_open_arc(node.id, key, fid):
                return fid
        return node.id

    def route_with_fallback(self, start: int, key: int) -> tuple[int, int]:
        """Route from `start` to the owner of `key`; returns (owner, hops).

        Crashed nodes are skipped: dead fingers are passed over for earlier
        ones; when none remain the lookup advances through the successor
        list, which reaches the successor's own finger table on the next
        step. Each lookup counts its hops in `lookup_hops`.
        """
        if not 0 <= key < self.size:
            raise ValueError(f"key {key} outside [0, 2^{self.m})")
        if not self.is_live(start):
            raise NotAMember(f"start node {start} is not live")

        current = self.nodes[start]
        hops = 0
        limit = 2 * max(len(self.nodes), self.m) + 4  # routing must terminate well before this
        for _ in range(limit):
            if current.id == key:
                owner = current.id
                break
            succ_id = self._next_live_successor(current)  # None: a live finger may still route
            if succ_id is not None and in_arc(current.id, succ_id, key):
                if succ_id != current.id:
                    hops += 1
                owner = succ_id
                break
            nxt = self._next_hop(current, key)
            hops += 1
            current = self.nodes[nxt]
        else:
            raise RoutingFailure(f"lookup for key {key} from {start} did not converge")
        self.lookup_hops[hops] = self.lookup_hops.get(hops, 0) + 1
        return owner, hops

    find_successor = route_with_fallback  # Chord's name for the same lookup

    def _next_hop(self, current: ControllerNode, key: int) -> int:
        fid = self.closest_preceding_finger(current, key)
        if fid != current.id:
            if self.is_live(fid):
                return fid
            for cand in reversed(current.fingers):
                if in_open_arc(current.id, key, cand) and self.is_live(cand):
                    return cand
        # no live preceding finger: fall through to the successor list
        succ_id = self._next_live_successor(current)
        if succ_id is None:
            raise RoutingFailure(f"all successors of node {current.id} are unreachable")
        return succ_id

    def _next_live_successor(self, node: ControllerNode) -> int | None:
        for sid in node.successor_list:
            if self.is_live(sid):
                return sid
        return None

    # -- storage ----------------------------------------------------------

    def owner_of(self, key: int) -> int:
        """Current owner over live nodes (local index, no routing hops)."""
        live = self.live_ids()
        if not live:
            raise NotAMember("empty ring")
        return RingView(live).owner(key % self.size)

    def put_record(self, name: str, value: Any, key: int | None = None) -> None:
        """Store a record at the owner of its key and in the owner's replicas."""
        key = self.hash_id(name) if key is None else key
        self.write_record(self.owner_of(key), StoredRecord(name=name, key=key, value=value))

    # A crashed node's own store and control tables are out of reach: the
    # three writes below then change only its bundles on live holders.

    def write_record(self, node_id: int, record: StoredRecord) -> None:
        """Write `record` into a node's store and its replica bundles: O(r)."""
        node = self.node(node_id)
        if node.alive:
            node.store[record.name] = record
        for bundle in self._replica_bundles(node_id):
            bundle.records[record.name] = record

    def put_control(self, node_id: int, table: str, name: str, value: Any) -> None:
        """Set one control-table entry at a node and in its replica bundles."""
        node = self.node(node_id)
        if node.alive:
            node.control.setdefault(table, {})[name] = value
        for bundle in self._replica_bundles(node_id):
            bundle.control.setdefault(table, {})[name] = value

    def pop_control(self, node_id: int, table: str, name: str) -> Any:
        """Remove one control-table entry at a node and in its replica bundles.

        Returns the node's entry, or its nearest live holder's when it
        crashed, or None when there is none.
        """
        node = self.nodes.get(node_id)
        if node is None:  # adopted: its entries live on at the adopter
            return None
        popped = [b.control.get(table, {}).pop(name, None) for b in self._replica_bundles(node_id)]
        if node.alive:
            return node.control.get(table, {}).pop(name, None)
        return popped[0] if popped else None

    def _replica_targets(self, node_id: int) -> list[int]:
        """The first r live successors other than the node itself."""
        node = self.node(node_id)
        targets = [sid for sid in node.successor_list if self.is_live(sid) and sid != node_id]
        return targets[: self.replication]

    def _replica_bundles(self, node_id: int) -> list[ReplicaBundle]:
        # every live target holds a bundle: membership changes rebuild them all,
        # between changes a crash only shrinks the target set, and a crashed
        # owner's bundles stay on their holders until it is adopted
        return [self.nodes[sid].replica_store[node_id] for sid in self._replica_targets(node_id)]

    def get_record(self, name: str, key: int | None = None) -> StoredRecord | None:
        """Fetch a record from its owner, falling back to replica bundles there."""
        key = self.hash_id(name) if key is None else key
        found = self.read_record(self.owner_of(key), name)
        return found[1] if found is not None else None

    def read_record(self, node_id: int, name: str) -> tuple[int, StoredRecord] | None:
        """A node's copy of a record, from its store or else its replica
        bundles, with the node a write of that record goes to: the node
        itself, or the owner of the bundle it came from."""
        node = self.node(node_id)
        rec = node.store.get(name)
        if rec is not None:
            return node_id, rec
        for src in sorted(node.replica_store):
            rec = node.replica_store[src].records.get(name)
            if rec is not None:
                return src, rec
        return None

    def stored_records(self) -> list[tuple[int, StoredRecord]]:
        """(owner, record) for every record on the ring: a live owner's store,
        or a crashed owner's nearest replica bundle until it is adopted.
        `write_record` to that owner reaches every copy."""
        out = []
        for nid, node in sorted(self.nodes.items()):
            if node.alive:
                held = node.store
            else:
                bundles = self._replica_bundles(nid)
                held = bundles[0].records if bundles else {}
            out.extend((nid, rec) for rec in held.values())
        return out

    def replicate_to_successors(self, node_id: int) -> tuple[list[ReplicationReceipt], bool]:
        """Full resync: copy a node's whole store and control tables to its r
        live successors. Only membership changes need it; writes are O(r).

        Returns (receipts, partial): partial is True when fewer than r live
        successors exist to hold the copies.
        """
        node = self.node(node_id)
        targets = self._replica_targets(node_id)
        receipts = []
        for sid in targets:
            bundle = ReplicaBundle(
                records=dict(node.store),
                control={t: dict(e) for t, e in node.control.items()},
            )
            self.nodes[sid].replica_store[node_id] = bundle
            receipts.append(ReplicationReceipt(source=node_id, target=sid, record_count=len(bundle.records)))
        return receipts, len(targets) < self.replication

    def refresh_replication(self) -> None:
        """Drop bundles for live owners and rebuild them; keep dead owners' bundles."""
        for nid in self.live_ids():
            node = self.nodes[nid]
            node.replica_store = {
                owner: b
                for owner, b in node.replica_store.items()
                if owner in self.nodes and not self.nodes[owner].alive
            }
        for nid in self.live_ids():
            self.replicate_to_successors(nid)

    # -- structure --------------------------------------------------------

    def successor_cycle(self, start: int | None = None) -> list[int]:
        """Follow successor pointers once around; the ring property says this
        visits every live node exactly once."""
        live = self.live_ids()
        if not live:
            return []
        cur = live[0] if start is None else start
        seen = [cur]
        nxt = self.nodes[cur].successor
        while nxt != seen[0] and len(seen) <= len(self.nodes) + 1:
            seen.append(nxt)
            nxt = self.nodes[nxt].successor
        return seen

    def _relink_and_repair(self) -> None:
        live = self.live_ids()
        for i, nid in enumerate(live):
            node = self.nodes[nid]
            node.successor = live[(i + 1) % len(live)]
            node.predecessor = live[i - 1]
        self._rebuild_tables()
        self.refresh_replication()

    def _rebuild_tables(self) -> None:
        """Recompute converged finger tables and successor lists from live ids."""
        live = self.live_ids()
        if not live:
            return
        view = RingView(live)
        for i, nid in enumerate(live):
            node = self.nodes[nid]
            node.fingers = [view.owner((nid + (1 << j)) % self.size) for j in range(self.m)]
            succs: list[int] = []
            j = 1
            while len(succs) < self.replication and j <= len(live):
                cand = live[(i + j) % len(live)]
                if cand != nid and cand not in succs:
                    succs.append(cand)
                j += 1
            if not succs:
                succs = [nid]
            node.successor_list = succs
