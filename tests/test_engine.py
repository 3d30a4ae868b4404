import random

import pytest

from sdedge.engine import EventEngine
from sdedge.errors import CausalityViolation, SimulationHalted

from oracles import trace_digest


def test_events_run_in_time_order():
    eng = EventEngine()
    seen = []
    eng.schedule(2.0, "timer", lambda: seen.append("b"))
    eng.schedule(1.0, "timer", lambda: seen.append("a"))
    eng.schedule(3.0, "timer", lambda: seen.append("c"))
    assert eng.run_until(10.0) == 3
    assert seen == ["a", "b", "c"]
    assert eng.now == 10.0


def test_equal_time_events_run_in_scheduling_order():
    eng = EventEngine()
    seen = []
    for tag in ("first", "second", "third"):
        eng.schedule(1.0, "timer", lambda t=tag: seen.append(t))
    eng.run_until(1.0)
    assert seen == ["first", "second", "third"]


def test_event_at_current_time_runs_before_later_ones():
    eng = EventEngine()
    seen = []
    eng.schedule(5.0, "timer", lambda: seen.append("later"))
    eng.run_until(2.0)
    eng.schedule(2.0, "timer", lambda: seen.append("now"))
    eng.run_until(10.0)
    assert seen == ["now", "later"]


def test_past_scheduling_is_a_causality_violation():
    eng = EventEngine()
    eng.run_until(5.0)
    with pytest.raises(CausalityViolation):
        eng.schedule(4.9, "timer", lambda: None)


def test_unknown_event_kind_is_rejected():
    eng = EventEngine()
    with pytest.raises(ValueError, match="unknown event kind 'tick'"):
        eng.schedule(1.0, "tick", lambda: None)
    assert eng.run_until(2.0) == 0


def test_empty_queue_run_advances_clock():
    eng = EventEngine()
    assert eng.run_until(7.5) == 0
    assert eng.now == 7.5


def test_identical_seeds_give_identical_traces():
    def build_and_run(seed):
        eng = EventEngine(record_trace=True)
        rng = random.Random(seed)

        def chained(i):
            if i < 20:
                delay = rng.uniform(0.01, 0.5)
                eng.schedule(eng.now + delay, "timer", lambda: chained(i + 1), note=f"step{i}")

        eng.schedule(0.0, "timer", lambda: chained(0), note="boot")
        eng.run_until(100.0)
        return trace_digest(eng.trace)

    assert build_and_run(42) == build_and_run(42)
    assert build_and_run(42) != build_and_run(43)


def test_handler_error_carries_event_context():
    eng = EventEngine()

    def boom():
        raise RuntimeError("kaput")

    eng.schedule(1.5, "failure", boom, note="inject")
    with pytest.raises(SimulationHalted) as err:
        eng.run_until(2.0)
    assert err.value.time == 1.5
    assert err.value.kind == "failure"
    assert err.value.note == "inject"


def test_quiet_stretch_ends_at_the_next_pending_event_or_the_run_end():
    eng = EventEngine()
    seen = []

    def probe():
        seen.append((eng.now, eng.quiet_until()))

    eng.schedule(1.0, "timer", probe)
    eng.schedule(4.0, "timer", probe)  # before the timer at its own time
    eng.schedule(4.0, "timer", lambda: None)
    eng.schedule(4.0, "timer", probe)
    eng.schedule(7.0, "timer", probe)
    eng.run_until(2.5)
    assert seen == [(1.0, (2.5, True))]  # the run ends before the next event: its end, inclusive
    eng.run_until(10.0)
    assert seen[1:] == [
        (4.0, (4.0, False)),  # an event pending at its own time: no stretch
        (4.0, (7.0, False)),  # the next event, not the run's end, bounds it, exclusive
        (7.0, (10.0, True)),  # nothing pending: the run's end, inclusive
    ]
    eng.schedule(11.0, "timer", probe)
    eng.schedule(12.0, "timer", lambda: None)
    eng.run_until(12.0)
    assert seen[4:] == [(11.0, (12.0, False))]  # an event at the run's end runs first
