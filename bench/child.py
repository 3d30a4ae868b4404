"""One whole benchmark run in a fresh process, so `ru_maxrss` is that run's alone.

    python3 bench/child.py --workload NAME --seed N --out-dir DIR [--traced]

Drives the simulator only through its public API: parse_scenario_text,
apply_overrides, World(...), World.run() and report.emit. Prints one JSON
line: the run's timings, its simulated-time fingerprint and the problems
the output check found. A run that raises prints `"ok": false` and its
error, and exits 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sdedge.report import emit  # noqa: E402
from sdedge.scenario import apply_overrides, parse_scenario_text  # noqa: E402
from sdedge.simnet import World  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def build_world(name: str, text: str, overrides: dict[str, str], parse=parse_scenario_text) -> World:
    """Set-up as a user does it: parse the text, apply the overrides, build the World."""
    scenario = parse(text, name=name)
    return World(scenario, apply_overrides(scenario.params, overrides))


def _emit(report, out_dir: Path) -> tuple[Path, Path]:
    return emit(report, "json", out_dir / "report.json"), emit(report, "csv", out_dir / "report.csv")


def check_output(doc: dict, csv_text: str, demand: dict[str, float]) -> list[str]:
    """Invariants every emitted report must hold; returns the violations found."""
    problems = []
    rows = doc["throughput"]
    for i, (t, sid, mbps) in enumerate(rows):
        if sid not in demand or not 0.0 <= mbps <= demand[sid]:
            problems.append(f"throughput row {i} {t!r},{sid},{mbps!r} outside [0, demand]")
            break
        if i and (rows[i - 1][0], rows[i - 1][1]) > (t, sid):
            problems.append(f"throughput row {i} out of (t, stream) order")
            break
    if doc["summary"]["handover_count"] != len(doc["handovers"]):
        problems.append("summary.handover_count != len(handovers)")
    csv_rows = csv_text.splitlines()[2:]  # after a comment line and a header line
    if len(csv_rows) != len(rows):
        problems.append(f"CSV has {len(csv_rows)} rows, JSON {len(rows)}")
    for i, (line, (t, sid, mbps)) in enumerate(zip(csv_rows, rows)):
        ct, csid, cmbps = line.split(",")
        if (float(ct), csid, float(cmbps)) != (t, sid, mbps):
            problems.append(f"CSV row {i} {line!r} differs from JSON row {[t, sid, mbps]!r}")
            break
    return problems


def _finish(paths: tuple[Path, Path], events: int, demand: dict[str, float]) -> tuple[dict, int, list[str]]:
    """Fingerprint and check the emitted files; returns (fingerprint, rows, problems)."""
    json_bytes, csv_bytes = (p.read_bytes() for p in paths)
    doc = json.loads(json_bytes)
    summary = doc["summary"]
    fingerprint = {
        "json_sha256": hashlib.sha256(json_bytes).hexdigest(),
        "csv_sha256": hashlib.sha256(csv_bytes).hexdigest(),
        "events": events,
        "handovers": summary["handover_count"],
        "lookups": summary["lookup_count"],
        "auth_decisions": len(doc["auth_events"]),
        "records_lost": summary["records_lost"],
    }
    return fingerprint, len(doc["throughput"]), check_output(doc, csv_bytes.decode(), demand)


def _demand(world: World) -> dict[str, float]:
    return {st.name: st.decl.demand for st in world.streams.values()}


def timed_run(name: str, seed: int, out_dir: Path) -> dict:
    text, overrides = workloads.generate(name, seed)
    t0 = perf_counter()
    world = build_world(name, text, overrides)
    t1 = perf_counter()
    report = world.run()
    t2 = perf_counter()
    paths = _emit(report, out_dir)
    t3 = perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    events, demand = world.engine.executed, _demand(world)
    del world, report  # the check below parses the JSON; free the run's memory first
    gc.collect()
    fingerprint, rows, problems = _finish(paths, events, demand)
    return {
        "setup_s": t1 - t0, "run_s": t2 - t1, "emit_s": t3 - t2, "wall_s": t3 - t0,
        "peak_rss_mb": peak_rss_mb,
        "fingerprint": fingerprint, "rows": rows, "problems": problems,
    }


def traced_run(name: str, seed: int, out_dir: Path) -> dict:
    text, overrides = workloads.generate(name, seed)
    rec = spans.SpanRecorder()
    rec.install()
    try:
        t0 = perf_counter()
        world = build_world(name, text, overrides, parse=rec.wrap("scenario.parse", parse_scenario_text))
        t1 = perf_counter()
        report = world.run()
        t2 = perf_counter()
        paths = _emit(report, out_dir)
        t3 = perf_counter()
    finally:
        rec.uninstall()
    sizes = {p.suffix[1:]: p.stat().st_size for p in paths}
    layers = spans.layer_metrics(rec, world, report, sizes)
    events, demand = world.engine.executed, _demand(world)
    del world, report
    gc.collect()
    fingerprint, rows, problems = _finish(paths, events, demand)
    return {
        "wall_s": t3 - t0, "run_s": t2 - t1, "layers": layers,
        "fingerprint": fingerprint, "rows": rows, "problems": problems,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out-dir", type=Path, required=True)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)
    run = traced_run if args.traced else timed_run
    try:
        result = run(args.workload, args.seed, args.out_dir)
    except Exception as exc:  # any raise is a failed run, reported to the parent
        traceback.print_exc()
        print(json.dumps({"ok": False, "error": f"{type(exc).__name__}: {exc}"}))
        return 1
    result["ok"] = not result["problems"]
    print(json.dumps(result))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
