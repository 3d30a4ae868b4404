import random

import pytest

from sdedge.engine import EventEngine
from sdedge.errors import CausalityViolation, SimulationHalted

from oracles import trace_digest


def test_events_run_in_time_order():
    eng = EventEngine()
    seen = []
    eng.schedule(2, "timer", lambda: seen.append("b"))
    eng.schedule(1, "timer", lambda: seen.append("a"))
    eng.schedule(3, "timer", lambda: seen.append("c"))
    assert eng.run_until(10) == 3
    assert seen == ["a", "b", "c"]
    assert eng.now == 10


def test_equal_time_events_run_in_scheduling_order():
    eng = EventEngine()
    seen = []
    for tag in ("first", "second", "third"):
        eng.schedule(1, "timer", lambda t=tag: seen.append(t))
    eng.run_until(1)
    assert seen == ["first", "second", "third"]


def test_event_at_current_time_runs_before_later_ones():
    eng = EventEngine()
    seen = []
    eng.schedule(5, "timer", lambda: seen.append("later"))
    eng.run_until(2)
    eng.schedule(2, "timer", lambda: seen.append("now"))
    eng.run_until(10)
    assert seen == ["now", "later"]


def test_past_scheduling_is_a_causality_violation():
    eng = EventEngine()
    eng.run_until(5 * 10**9)
    with pytest.raises(CausalityViolation, match=r"at 4\.9 < now 5\.0"):  # in seconds
        eng.schedule(4_900_000_000, "timer", lambda: None)
    with pytest.raises(CausalityViolation, match="to 4.9 from 5.0"):
        eng.run_until(4_900_000_000)


def test_unknown_event_kind_is_rejected():
    eng = EventEngine()
    with pytest.raises(ValueError, match="unknown event kind 'tick'"):
        eng.schedule(1, "tick", lambda: None)
    assert eng.run_until(2) == 0


def test_empty_queue_run_advances_clock():
    eng = EventEngine()
    assert eng.run_until(7) == 0
    assert eng.now == 7


def test_identical_seeds_give_identical_traces():
    def build_and_run(seed):
        eng = EventEngine(record_trace=True)
        rng = random.Random(seed)

        def chained(i):
            if i < 20:
                delay = rng.randint(10**7, 5 * 10**8)
                eng.schedule(eng.now + delay, "timer", lambda: chained(i + 1), note=f"step{i}")

        eng.schedule(0, "timer", lambda: chained(0), note="boot")
        eng.run_until(100 * 10**9)
        return trace_digest(eng.trace)

    assert build_and_run(42) == build_and_run(42)
    assert build_and_run(42) != build_and_run(43)


def test_handler_error_carries_event_context():
    eng = EventEngine()

    def boom():
        raise RuntimeError("kaput")

    eng.schedule(1_500_000_000, "failure", boom, note="inject")
    with pytest.raises(SimulationHalted, match=r"t=1\.5 ") as err:  # in seconds
        eng.run_until(2 * 10**9)
    assert err.value.time == 1.5
    assert err.value.kind == "failure"
    assert err.value.note == "inject"


def test_quiet_stretch_ends_at_the_next_pending_event_or_the_run_end():
    eng = EventEngine()
    seen = []

    def probe():
        seen.append((eng.now, eng.quiet_until()))

    eng.schedule(10, "timer", probe)
    eng.schedule(40, "timer", probe)  # before the timer at its own time
    eng.schedule(40, "timer", lambda: None)
    eng.schedule(40, "timer", probe)
    eng.schedule(70, "timer", probe)
    eng.run_until(25)
    assert seen == [(10, 25)]  # the run ends before the next event: its end
    eng.run_until(100)
    assert seen[1:] == [
        (40, 39),  # an event pending at its own time: no stretch
        (40, 69),  # the next event, not the run's end, bounds it: the ns before it
        (70, 100),  # nothing pending: the run's end
    ]
    eng.schedule(110, "timer", probe)
    eng.schedule(120, "timer", lambda: None)
    eng.run_until(120)
    assert seen[4:] == [(110, 119)]  # an event at the run's end runs first


def test_the_clock_and_every_heap_key_are_integer_ns():
    eng = EventEngine()
    seen, keys = [], []

    def probe():
        seen.append((eng.now, eng.quiet_until()))
        if eng.now < 3 * 10**9:
            eng.schedule(eng.now + 10**9, "timer", probe)
        keys.extend(at for at, *_ in eng._heap)

    eng.schedule(0, "timer", probe)
    eng.schedule(2_500_000_000, "timer", lambda: None)
    eng.run_until(4 * 10**9)
    assert type(eng.now) is int and eng.now == 4 * 10**9
    assert keys and all(type(at) is int for at in keys)
    # the ns before the pending event at 2.5 s, or the run's end: one int each
    assert seen == [(0, 2_499_999_999), (10**9, 2_499_999_999), (2 * 10**9, 2_499_999_999), (3 * 10**9, 4 * 10**9)]
    assert all(type(x) is int for pair in seen for x in pair)
