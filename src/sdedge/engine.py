"""Deterministic discrete-event engine.

Events execute in (time, sequence) order; the sequence counter is assigned
at scheduling time, so equal-time events run in the order they were
scheduled. No simulated choice is random: the scenario and its parameters
fully determine the event trace, and the run's `seed` only labels it. The
engine keeps that trace, one (time, seq, kind, note) tuple per event, only
when `record_trace` is set; otherwise nothing per event.

The clock is an integer count of nanoseconds (ns), as ns-3's `Time` keeps
it: `now`, the heap keys, `at` and `t_end` are ints; errors name seconds.
`ns` converts seconds: the parser's declared times, and `World`'s `Params`.
A handler may do the work of later instants itself, without an event each,
for as long as nothing else can happen in between: `quiet_until()` gives
the last ns of its quiet stretch, just before the next pending event or at
the end of the running `run_until`. Such a handler is one trace entry per
stretch, and a failure in it names the stretch's first instant.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

from .errors import CausalityViolation, SimulationHalted

EVENT_KINDS = (
    "message-delivery",
    "beacon",
    "md-move",
    "failure",
    "flow-start",
    "flow-end",
    "timer",
)
_KINDS = frozenset(EVENT_KINDS)


def ns(seconds: float) -> int:
    """`seconds` as a whole count of ns, the clock's unit."""
    return round(seconds * 10**9)


@dataclass
class EventEngine:
    record_trace: bool = False
    now: int = 0  # ns
    executed: int = 0
    _seq: int = 0
    _t_end: int = 0  # the end of the running (or last) run_until
    _heap: list = field(default_factory=list)
    trace: list[tuple[int, int, str, str]] = field(default_factory=list)

    def schedule(self, at: int, kind: str, fn: Callable[[], None], note: str = "") -> None:
        """Enqueue `fn` to run at absolute sim-time `at` (ns)."""
        if at < self.now:
            raise CausalityViolation(f"cannot schedule {kind} at {at / 10**9} < now {self.now / 10**9}")
        if kind not in _KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        heapq.heappush(self._heap, (at, self._seq, kind, fn, note))
        self._seq += 1

    def run_until(self, t_end: int) -> int:
        """Execute every event with time <= t_end (ns) in order; clock ends at t_end."""
        if t_end < self.now:
            raise CausalityViolation(f"cannot run backwards to {t_end / 10**9} from {self.now / 10**9}")
        self._t_end = t_end
        heap, pop = self._heap, heapq.heappop
        trace = self.trace if self.record_trace else None
        count = 0
        while heap and heap[0][0] <= t_end:
            at, seq, kind, fn, note = pop(heap)
            self.now = at
            if trace is not None:
                trace.append((at, seq, kind, note))
            try:
                fn()
            except Exception as exc:
                raise SimulationHalted(
                    f"handler failed at t={at / 10**9} ({kind} {note!r}): {exc}",
                    time=at / 10**9,
                    kind=kind,
                    note=note,
                ) from exc
            count += 1
        self.now = t_end
        self.executed += count
        return count

    def quiet_until(self) -> int:
        """The last ns of the running handler's quiet stretch: just before the
        next pending event, which was scheduled first and runs first, or else
        the end of the running `run_until`. Nothing but the handler itself can
        act at an instant up to it, so it may act there without an event."""
        heap = self._heap
        if heap and heap[0][0] <= self._t_end:
            return heap[0][0] - 1
        return self._t_end
