"""Opt-in scaling probe: does the cost per event stay flat as the population grows?

    python3 bench/scaling.py

Runs the roam-3k generator at each mobile count, one after another in this
process, and prints `engine.events_per_s` and `simnet.us_per_sample` for
each, from the host time of one untraced World.run(). The flatness target is
events per second within 20% from 300 to 3000 mobiles. Not part of the
gated benchmark; see NOTES.md for why events/s is not an end-to-end metric.
"""

from __future__ import annotations

import gc
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from child import build_world  # noqa: E402

MOBILES = (300, 1000, 3000)
SEED = 1


def probe(mobiles: int) -> dict[str, tuple[float, str]]:
    text, overrides = workloads.roam(SEED, mobiles)
    world = build_world(f"roam-{mobiles}", text, overrides)
    t0 = perf_counter()
    report = world.run()
    run_s = perf_counter() - t0
    return spans.rate_metrics(world.engine.executed, len(report.throughput), run_s)


def main() -> int:
    rates = []
    for mobiles in MOBILES:
        m = probe(mobiles)
        gc.collect()
        rates.append(m["engine.events_per_s"][0])
        print(f"mobiles={mobiles:5d}  " + "  ".join(f"{k}={v:.2f} {u}" for k, (v, u) in m.items()), flush=True)
    print(f"events_per_s at {MOBILES[-1]} / at {MOBILES[0]} mobiles: {rates[-1] / rates[0]:.3f} "
          "(target: 0.8 to 1.2)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
