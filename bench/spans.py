"""In-memory span recorder for the traced run, and the per-layer metrics it yields.

The recorder wraps the simulator's public entry points from outside: class
methods are replaced on the class, module functions in every `sdedge` module
that binds them. A wrapper on `EventEngine.schedule` also wraps each handler,
naming its span by event kind and note prefix (`handler.timer.tick`). Spans
nest on a stack, so a span's self time is its duration minus its children's.
Nothing is written while the run goes: per name the recorder keeps only a
count, a total and a self time, plus a few tallies taken from call results.
"""

from __future__ import annotations

import sys
from time import perf_counter

from sdedge import authn, engine, mobility, report, ring, scheduler, simnet

VIEW_EVENT_KINDS = ("md-join", "md-leave", "flow-start", "flow-end")


class SpanRecorder:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [count, total_s, self_s]
        self.tally: dict[str, float] = {}
        self._stack: list[float] = []  # child time accumulated per open span
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def wrap(self, name, fn, on_result=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - child
                if stack:
                    stack[-1] += dur
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def add(self, key: str, amount: float = 1) -> None:
        self.tally[key] = self.tally.get(key, 0) + amount

    def count(self, name: str) -> int:
        return self.stats.get(name, (0,))[0]

    def total(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def handler_stats(self, kind: str = "", prefix: str | None = None) -> tuple[int, float]:
        """(count, total) over handler spans, optionally of one kind and note prefix."""
        head = "handler." + (f"{kind}." if kind else "")
        if prefix is not None:
            return self.count(head + prefix), self.total(head + prefix)
        n, total = 0, 0.0
        for name, (c, t, _) in self.stats.items():
            if name.startswith(head):
                n += c
                total += t
        return n, total

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_method(self, cls, attr, name, on_result=None) -> None:
        self._set(cls, attr, self.wrap(name, getattr(cls, attr), on_result))

    def patch_function(self, module, attr, name, on_result=None) -> None:
        """Wrap a module function everywhere it is bound inside the package."""
        orig = getattr(module, attr)
        traced = self.wrap(name, orig, on_result)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "sdedge" and getattr(mod, attr, None) is orig:
                self._set(mod, attr, traced)

    def install(self) -> None:
        timed_schedule = self.wrap("engine.schedule", engine.EventEngine.schedule)
        wrap = self.wrap

        def schedule(eng, at, kind, fn, note=""):
            handler = wrap(f"handler.{kind}.{note.partition(':')[0]}", fn)
            return timed_schedule(eng, at, kind, handler, note)

        self._set(engine.EventEngine, "schedule", schedule)
        self.patch_method(engine.EventEngine, "run_until", "engine.run_until")

        self.patch_method(simnet.World, "__init__", "simnet.build")
        self.patch_method(simnet.World, "apply_move", "simnet.apply_move")
        self.patch_method(simnet.World, "coverage_set", "simnet.coverage_set")
        self.patch_method(simnet.World, "record_metrics", "report.record_metrics")

        def copied(args, result):
            self.add("ring.records_copied", sum(r.record_count for r in result[0]))

        def hops(args, result):
            self.add("ring.hops", result[1])

        R = ring.OverlayRing
        self.patch_method(R, "replicate_to_successors", "ring.replicate", copied)
        self.patch_method(R, "put_record", "ring.put")
        self.patch_method(R, "get_record", "ring.get")
        self.patch_method(R, "route_with_fallback", "ring.lookup", hops)
        self.patch_method(R, "find_successor", "ring.lookup", hops)
        self.patch_method(R, "refresh_replication", "ring.refresh")
        self.patch_method(R, "adopt_failed", "ring.adopt")

        M = mobility.MobilityManager
        self.patch_method(M, "handover", "mobility.handover")
        self.patch_method(M, "register_md", "mobility.register")
        self.patch_method(M, "establish_association", "mobility.establish_association")
        self.patch_method(M, "personal_ap_migrate", "mobility.personal_ap_migrate")
        self.patch_method(M, "session_of", "mobility.session_of")
        self.patch_method(M, "recover_controller_failure", "mobility.recover")
        self.patch_method(M, "recover_ap_failure", "mobility.recover")

        def view_kind(args, result):
            self.add(f"scheduler.view_updates.{args[1].kind}")

        self.patch_function(scheduler, "update_partition_view", "scheduler.update_partition_view", view_kind)
        self.patch_function(scheduler, "select_ap_for_join", "scheduler.select_ap_for_join")

        def granted(args, result):
            self.add("authn.grants", 1 if result.granted else 0)

        A = authn.AuthnService
        self.patch_method(A, "authenticate", "authn.authenticate", granted)
        self.patch_method(A, "receive_beacon", "authn.receive_beacon")
        self.patch_method(A, "gate_traffic", "authn.gate_traffic")

        self.patch_function(report, "render_json", "report.render_json")
        self.patch_function(report, "render_csv", "report.render_csv")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def rate_metrics(events: int, rows: int, run_s: float) -> dict[str, tuple[float, str]]:
    """Rates over an untraced `run_s`, so that tracing does not inflate them."""
    return {
        "engine.events_per_s": (_ratio(events, run_s), "1/s"),
        "simnet.us_per_sample": (_ratio(run_s * 1e6, rows), "us"),
    }


def layer_metrics(rec: SpanRecorder, world, report_, sizes: dict[str, int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run as {name: (value, unit)}.

    A ratio whose base is 0 reads 0.
    """
    m: dict[str, tuple[float, str]] = {}
    s, n = "s", "count"

    m["scenario.parse_s"] = (rec.total("scenario.parse"), s)
    m["scenario.waypoints"] = (len(world.scenario.waypoints), n)

    ticks, tick_s = rec.handler_stats("timer", "tick")
    moves = rec.count("simnet.apply_move")
    beacons, beacon_s = rec.handler_stats("message-delivery", "key")
    packetins, packetin_s = rec.handler_stats("message-delivery", "packetin")
    _, failure_s = rec.handler_stats("failure")
    rows = len(report_.throughput)
    m["simnet.build_s"] = (rec.total("simnet.build"), s)
    m["simnet.ticks"] = (ticks, n)
    m["simnet.tick_s"] = (tick_s, s)
    m["simnet.moves"] = (moves, n)
    m["simnet.move_s"] = (rec.self_time("simnet.apply_move"), s)
    m["simnet.coverage_calls"] = (rec.count("simnet.coverage_set"), n)
    m["simnet.coverage_s"] = (rec.total("simnet.coverage_set"), s)
    m["simnet.beacon_deliveries"] = (beacons, n)
    m["simnet.beacon_delivery_s"] = (beacon_s, s)
    m["simnet.beacon_hit_ratio"] = (
        _ratio(rec.count("authn.receive_beacon"), beacons * len(world.mds)), "ratio")
    m["simnet.packetins"] = (packetins, n)
    m["simnet.packetin_s"] = (packetin_s, s)
    m["simnet.failure_s"] = (failure_s, s)

    m["engine.events"] = (rec.handler_stats()[0], n)
    for kind in engine.EVENT_KINDS:
        m[f"engine.events.{kind}"] = (rec.handler_stats(kind)[0], n)
    m["engine.schedule_calls"] = (rec.count("engine.schedule"), n)
    m["engine.schedule_s"] = (rec.self_time("engine.schedule"), s)
    m["engine.dispatch_s"] = (rec.self_time("engine.run_until"), s)
    m["engine.trace_len"] = (len(world.engine.trace), n)

    replications = rec.count("ring.replicate")
    copied = rec.tally.get("ring.records_copied", 0)
    lookups = rec.count("ring.lookup")
    m["ring.replications"] = (replications, n)
    m["ring.replication_s"] = (rec.total("ring.replicate"), s)
    m["ring.records_copied"] = (copied, n)
    m["ring.copy_amplification"] = (_ratio(copied, replications), "records/call")
    m["ring.puts"] = (rec.count("ring.put"), n)
    m["ring.put_s"] = (rec.total("ring.put"), s)
    m["ring.lookups"] = (lookups, n)
    m["ring.lookup_s"] = (rec.total("ring.lookup"), s)
    m["ring.mean_hops"] = (_ratio(rec.tally.get("ring.hops", 0), lookups), "hops")
    m["ring.gets"] = (rec.count("ring.get"), n)
    m["ring.get_s"] = (rec.total("ring.get"), s)
    m["ring.refreshes"] = (rec.count("ring.refresh"), n)
    m["ring.refresh_s"] = (rec.total("ring.refresh"), s)
    m["ring.adopt_s"] = (rec.total("ring.adopt"), s)

    m["mobility.handovers"] = (rec.count("mobility.handover"), n)
    m["mobility.handover_s"] = (rec.self_time("mobility.handover"), s)
    m["mobility.registers"] = (rec.count("mobility.register"), n)
    m["mobility.register_s"] = (rec.total("mobility.register"), s)
    m["mobility.reassociations"] = (rec.count("mobility.establish_association"), n)
    m["mobility.pap_migrations"] = (rec.count("mobility.personal_ap_migrate"), n)
    m["mobility.session_lookups"] = (rec.count("mobility.session_of"), n)
    m["mobility.session_lookup_s"] = (rec.total("mobility.session_of"), s)
    m["mobility.recover_s"] = (rec.total("mobility.recover"), s)

    m["scheduler.view_updates"] = (rec.count("scheduler.update_partition_view"), n)
    for kind in VIEW_EVENT_KINDS:
        m[f"scheduler.view_updates.{kind}"] = (rec.tally.get(f"scheduler.view_updates.{kind}", 0), n)
    m["scheduler.view_update_s"] = (rec.total("scheduler.update_partition_view"), s)
    m["scheduler.select_ap_calls"] = (rec.count("scheduler.select_ap_for_join"), n)
    m["scheduler.select_ap_s"] = (rec.total("scheduler.select_ap_for_join"), s)

    decisions = rec.count("authn.authenticate")
    m["authn.decisions"] = (decisions, n)
    m["authn.grant_ratio"] = (_ratio(rec.tally.get("authn.grants", 0), decisions), "ratio")
    m["authn.authenticate_s"] = (rec.total("authn.authenticate"), s)
    m["authn.receives"] = (rec.count("authn.receive_beacon"), n)
    m["authn.receive_s"] = (rec.total("authn.receive_beacon"), s)
    m["authn.gate_calls"] = (rec.count("authn.gate_traffic"), n)
    m["authn.gate_s"] = (rec.total("authn.gate_traffic"), s)
    m["authn.log_len"] = (len(world.authn.auth_log), n)

    m["report.record_metrics_s"] = (rec.total("report.record_metrics"), s)
    m["report.render_json_s"] = (rec.total("report.render_json"), s)
    m["report.json_bytes"] = (sizes["json"], "B")
    m["report.render_csv_s"] = (rec.total("report.render_csv"), s)
    m["report.csv_bytes"] = (sizes["csv"], "B")
    m["report.throughput_rows"] = (rows, n)
    m["report.auth_events"] = (len(report_.auth_events), n)
    m["trace.spans"] = (sum(c for c, _, _ in rec.stats.values()), n)
    return m
