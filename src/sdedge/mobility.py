"""Distributed mobility management over the controller overlay.

Supervisory records (who served a device before and who serves it now)
live on the ring at the owner of the device's hashed id. Sessions live at
the serving controller and travel with handovers. The handover protocol
is the four-step exchange: locate the supervisor, read the previous
controller from it, fetch the session directly from that controller, then
rewrite the supervisory record. The supervisor is bookkeeping only; it
never sits on the data path. Records and sessions are immutable values:
each step that changes one writes a new value through the ring.

Associations between a device and its AP are tracked as full state
bundles so the Personal AP protocol can reinstate them at a new AP
without the device noticing a re-association.

This layer does not place devices on APs. A failed AP only ends its
devices' coverage: `recover_ap_failure` names them, and the caller moves
them as it moves any device that left its AP's coverage.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache
from typing import Callable

from .errors import (
    AlreadyRegistered,
    HandoverFailure,
    NotAMember,
    NotAssociated,
    RoutingFailure,
    UnknownMobile,
)
from .ring import OverlayRing, RingView, StoredRecord, fnv1a64

SESSIONS = "sessions"


@cache
def mac_of(name: str) -> str:
    """Deterministic locally-administered MAC for a named node (cached: it depends on the name alone)."""
    h = fnv1a64(name.encode("utf-8"))
    octets = [(h >> (8 * i)) & 0xFF for i in range(5)]
    return "02:" + ":".join(f"{o:02x}" for o in octets)


@dataclass(frozen=True)
class SupervisoryRecord:
    md_id: str
    md_key: int
    previous: int | None
    current: int


@dataclass
class AssociationRecord:
    md_mac: str
    ap_mac: str
    association_id: int
    frame_seq: int
    security_keys: tuple[str, ...]
    flow_status: set[str] = field(default_factory=set)

    def md_visible(self) -> tuple:
        """The projection the device can observe; invariant under migration."""
        return (self.md_mac, self.association_id, self.frame_seq, self.security_keys, frozenset(self.flow_status))


@dataclass(frozen=True)
class SessionState:
    md_id: str
    partition: int


@dataclass
class HandoverOutcome:
    md_id: str
    previous: int | None
    new: int
    messages: int
    latency: int  # ns: messages * link_latency
    noop: bool = False
    session_from_replica: bool = False


@dataclass
class RecoveryReport:
    failed: int
    adopter: int | None
    recovered_records: int
    recovered_sessions: int
    lost: list[str]


class MobilityManager:
    """Registration, supervisory tracking, handover, and recovery paths."""

    def __init__(self, ring: OverlayRing, link_latency: int = 1_000_000):
        self.ring = ring
        self.link_latency = link_latency  # ns per message
        self.registered: dict[str, int] = {}          # md id -> ring key
        self.associations: dict[str, AssociationRecord] = {}
        self.association_ap: dict[str, str] = {}      # md id -> serving AP id
        self._assoc_seq = 0
        # observer(step, md_id) fired per protocol step, e.g. for trace capture
        self.step_observer: Callable[[str, str], None] | None = None

    def _step(self, step: str, md_id: str) -> None:
        if self.step_observer is not None:
            self.step_observer(step, md_id)

    # -- registration / lookup ------------------------------------------------

    def register_md(self, md_id: str, first_controller: int) -> SupervisoryRecord:
        if md_id in self.registered:
            raise AlreadyRegistered(md_id)
        if not self.ring.is_live(first_controller):
            raise NotAMember(f"controller {first_controller} is not live")
        key = self.ring.hash_id(md_id)
        record = SupervisoryRecord(md_id=md_id, md_key=key, previous=None, current=first_controller)
        self.ring.put_record(md_id, record, key=key)
        self.registered[md_id] = key
        self.ring.put_control(
            first_controller, SESSIONS, md_id, SessionState(md_id=md_id, partition=first_controller)
        )
        return record

    def get_supervisory(self, md_id: str) -> SupervisoryRecord:
        key = self.registered.get(md_id)
        if key is None:
            raise UnknownMobile(md_id)
        rec = self.ring.get_record(md_id, key=key)
        if rec is None:
            raise UnknownMobile(f"supervisory record for {md_id} is gone")
        return rec.value

    def session_of(self, md_id: str) -> SessionState | None:
        for nid in self.ring.live_ids():
            sess = self.ring.nodes[nid].control.get(SESSIONS, {}).get(md_id)
            if sess is not None:
                return sess
        return None

    # -- handover ------------------------------------------------------------------

    def handover(self, md_id: str, new_controller: int) -> HandoverOutcome:
        """Four-step handover of `md_id` into `new_controller`'s partition.

        1. locate the supervisor by hashed id, 2. read the record there,
        3. fetch the session directly from the previous controller (its
        successor replica when it is down), 4. rewrite the supervisory
        record last, so a failed fetch leaves it intact and retryable.
        """
        key = self.registered.get(md_id)
        if key is None:
            raise UnknownMobile(md_id)
        if not self.ring.is_live(new_controller):
            raise HandoverFailure(f"target controller {new_controller} is not live")

        messages = 0
        try:
            supervisor, hops = self.ring.route_with_fallback(new_controller, key)
        except RoutingFailure as exc:
            raise HandoverFailure(f"cannot reach supervisor of {md_id}: {exc}") from exc
        messages += hops
        self._step("locate-supervisor", md_id)

        found = self.ring.read_record(supervisor, md_id)
        if found is None:
            raise HandoverFailure(f"supervisory record for {md_id} lost beyond replicas")
        holder, stored = found
        record: SupervisoryRecord = stored.value
        messages += 2  # record request + response
        self._step("read-supervisor", md_id)

        previous = record.current
        if previous == new_controller:
            return HandoverOutcome(
                md_id=md_id, previous=record.previous, new=new_controller,
                messages=messages, latency=messages * self.link_latency, noop=True,
            )

        # the source retires its copy; a crashed source's bundles give theirs
        # up, so a later adoption of it cannot resurrect the session
        session = self.ring.pop_control(previous, SESSIONS, md_id)
        messages += 3  # fetch request + transfer + ack
        if session is None:
            raise HandoverFailure(f"session for {md_id} unrecoverable: {previous} and replicas are gone")
        self._step("fetch-session", md_id)

        self.ring.put_control(new_controller, SESSIONS, md_id, SessionState(md_id, new_controller))
        moved = SupervisoryRecord(md_id, key, previous, new_controller)
        self.ring.write_record(holder, StoredRecord(md_id, key, moved))
        messages += 2  # supervisor update + ack
        self._step("update-supervisor", md_id)

        return HandoverOutcome(
            md_id=md_id, previous=previous, new=new_controller,
            messages=messages, latency=messages * self.link_latency,
            session_from_replica=not self.ring.is_live(previous),
        )

    # -- personal AP protocol ----------------------------------------------------------

    def establish_association(self, md_id: str, ap_id: str) -> AssociationRecord:
        """Plain (re-)association: fresh MAC-layer state, visible to the MD."""
        self._assoc_seq += 1
        record = AssociationRecord(
            md_mac=mac_of(md_id),
            ap_mac=mac_of(ap_id),
            association_id=self._assoc_seq,
            frame_seq=0,
            security_keys=(f"sk/{md_id}/{self._assoc_seq}",),
        )
        self.associations[md_id] = record
        self.association_ap[md_id] = ap_id
        return record

    def personal_ap_migrate(self, md_id: str, ap_old: str, ap_new: str) -> AssociationRecord:
        """Reinstate the association bundle at `ap_new`; the MD keeps seeing
        its old AP (only the AP-side MAC field changes)."""
        record = self.associations.get(md_id)
        if record is None or self.association_ap.get(md_id) != ap_old:
            raise NotAssociated(f"{md_id} holds no live association at {ap_old}")
        if ap_new == ap_old:
            return record
        record.ap_mac = mac_of(ap_new)
        self.association_ap[md_id] = ap_new
        return record

    # -- failure recovery ------------------------------------------------------------------

    def recover_controller_failure(self, failed: int) -> RecoveryReport:
        """Successor adoption of a crashed controller's records and sessions.

        Lost records are enumerated explicitly by comparing against the
        registration index; silence is never an outcome.
        """
        node = self.ring.nodes.get(failed)
        if node is None:
            raise UnknownMobile(f"no controller {failed}")
        if node.alive:
            self.ring.crash(failed)

        live_plus = self.ring.live_ids() + [failed]
        owner_view = RingView(live_plus)
        suspects = {md for md, key in self.registered.items() if owner_view.owner(key) == failed}

        adopter, recovered, control = self.ring.adopt_failed(failed)
        recovered_names = set(recovered)
        # a suspect is lost only if no live node can actually serve it now;
        # with no live node left, none can
        lost = sorted(
            md for md in suspects
            if adopter is None or self.ring.get_record(md, key=self.registered[md]) is None
        )
        for md in lost:
            self.registered.pop(md, None)

        # the adopter replaces the failed controller's role: supervisory
        # records that pointed at it now point at the adopter, including
        # those another crashed owner's bundles still hold
        if adopter is not None:
            for nid, stored in self.ring.stored_records():
                rec = stored.value
                if isinstance(rec, SupervisoryRecord) and failed in (rec.current, rec.previous):
                    moved = replace(
                        rec,
                        current=adopter if rec.current == failed else rec.current,
                        previous=adopter if rec.previous == failed else rec.previous,
                    )
                    self.ring.write_record(nid, replace(stored, value=moved))
        return RecoveryReport(
            failed=failed,
            adopter=adopter,
            recovered_records=len(recovered_names & suspects),
            recovered_sessions=len(control.get(SESSIONS, {})),
            lost=lost,
        )

    def recover_ap_failure(self, failed_ap: str) -> list[str]:
        """The devices associated with a failed AP, sorted.

        Each has lost its serving AP's coverage; the caller re-places them as
        it does any device that moved out of coverage.
        """
        return sorted(md for md, ap in self.association_ap.items() if ap == failed_ap)
