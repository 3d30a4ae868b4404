"""The traced benchmark run (`bench/run_bench.py --trace 1`) patches simulator
names by attribute. This runs its span recorder over fig2 and over an AP
failure, so that a rename or a removed entry point fails here rather than in
the benchmark."""

from __future__ import annotations

import json
import sys
from pathlib import Path

from sdedge import report as report_module
from sdedge import simnet
from sdedge.scenario import bundled_scenario_path, parse_scenario, parse_scenario_text

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import spans  # noqa: E402
from test_simnet import AP_FAIL  # noqa: E402


def traced_layers(scenario):
    rec = spans.SpanRecorder()
    rec.install()
    try:
        world = simnet.World(scenario)
        report = world.run()
        sizes = {"json": len(report_module.render_json(report)), "csv": len(report_module.render_csv(report))}
    finally:
        rec.uninstall()
    return spans.layer_metrics(rec, world, report, sizes)


def test_span_recorder_traces_a_run_and_restores_the_package():
    apply_move = simnet.World.apply_move
    layers = traced_layers(parse_scenario(bundled_scenario_path("fig2")))
    assert simnet.World.apply_move is apply_move

    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(layers) <= declared
    for name in ("simnet.build_s", "engine.events", "simnet.moves", "scheduler.view_updates",
                 "report.render_json_s"):
        assert layers[name][0] > 0, name
    # stream F1 is sampled by `handler.timer.tick` spans, and the joins replicate:
    # a sampler event under another note would read 0 here, not fail the benchmark
    assert layers["simnet.ticks"][0] > 0
    assert layers["simnet.tick_s"][0] > 0
    assert layers["ring.replications"][0] >= 1


def test_span_recorder_times_ap_failure_recovery():
    layers = traced_layers(parse_scenario_text(AP_FAIL, "apfail"))
    assert layers["mobility.recover_s"][0] > 0
