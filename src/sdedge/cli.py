"""Command-line entry point: validate scenarios, run them, emit metrics.

    sdedge run fig6.scenario --set mode=LEDGE-LA --out out.csv --format csv
    sdedge validate my.scenario
    sdedge batch scenarios/ --out-dir results/

Scenario arguments resolve as paths first, then as bundled scenario names.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ScenarioError, SdedgeError, UsageError
from .report import FORMATS, MetricsReport, emit
from .scenario import Params, Scenario, apply_overrides, parse_scenario, resolve_scenario
from .simnet import World

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _parse_overrides(pairs: list[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        out[key.strip()] = value.strip()
    return out


def load_scenario(spec: str, seed: int | None, sets: list[str]) -> tuple[Scenario, Params]:
    scenario = parse_scenario(resolve_scenario(spec))
    overrides = _parse_overrides(sets)
    if seed is not None:
        overrides["seed"] = str(seed)
    return scenario, apply_overrides(scenario.params, overrides)


def run_one(spec: str, seed: int | None, sets: list[str]) -> MetricsReport:
    scenario, params = load_scenario(spec, seed, sets)
    return World(scenario, params).run()


def cmd_run(args: argparse.Namespace) -> int:
    report = run_one(args.scenario, args.seed, args.set or [])
    if args.out:
        path = emit(report, args.format, args.out)
        print(f"{report.scenario}: wrote {args.format} report to {path}")
    summary = report.summary()
    print(
        f"{report.scenario}: mode={report.mode} seed={report.seed} "
        f"delivered={summary['delivered_mbit_total']:.3f} Mbit "
        f"handovers={summary['handover_count']} "
        f"packet_in={summary['packet_in_total']} "
        f"grants={summary['auth_grants']} denies={summary['auth_denies']} "
        f"lost={summary['records_lost']}"
    )
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    scenario = parse_scenario(resolve_scenario(args.scenario))
    print(
        f"{scenario.name}: ok ({len(scenario.controllers)} controllers, "
        f"{len(scenario.aps)} APs, {len(scenario.mds)} MDs, {len(scenario.streams)} streams)"
    )
    return EXIT_OK


def cmd_batch(args: argparse.Namespace) -> int:
    directory = Path(args.directory)
    files = sorted(directory.glob("*.scenario"))
    if not files:
        print(f"no *.scenario files under {directory}", file=sys.stderr)
        return EXIT_FAILURE
    out_dir = Path(args.out_dir) if args.out_dir else None
    status = EXIT_OK
    for path in files:
        try:
            report = run_one(str(path), args.seed, args.set or [])
        except UsageError:
            raise  # the command line's fault, not the file's: one usage error, exit 2
        except SdedgeError as err:
            print(f"{path.name}: FAILED: {err}", file=sys.stderr)
            status = EXIT_FAILURE
            continue
        line = f"{path.name}: delivered={report.summary()['delivered_mbit_total']:.3f} Mbit"
        if out_dir is not None:
            target = out_dir / f"{path.stem}.{args.format}"
            emit(report, args.format, target)
            line += f" -> {target}"
        print(line)
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdedge",
        description="Discrete-event simulator of a distributed SDN edge controller cluster",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and print/emit its metrics")
    run_p.add_argument("scenario", help="scenario file path or bundled name (fig2, fig5, fig5c, fig6)")
    run_p.add_argument("--seed", type=int, default=None, help="label the run (no simulated choice is random)")
    run_p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a parameter")
    run_p.add_argument("--out", default=None, help="write the report to this path")
    run_p.add_argument("--format", choices=FORMATS, default="csv")
    run_p.set_defaults(fn=cmd_run)

    val_p = sub.add_parser("validate", help="parse and validate a scenario, reporting every error")
    val_p.add_argument("scenario")
    val_p.set_defaults(fn=cmd_validate)

    batch_p = sub.add_parser("batch", help="run every *.scenario in a directory")
    batch_p.add_argument("directory")
    batch_p.add_argument("--seed", type=int, default=None)
    batch_p.add_argument("--set", action="append", metavar="KEY=VALUE")
    batch_p.add_argument("--out-dir", default=None)
    batch_p.add_argument("--format", choices=FORMATS, default="csv")
    batch_p.set_defaults(fn=cmd_batch)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ScenarioError as err:
        for line, col, msg in err.errors:
            print(f"{args.scenario}:{line}:{col}: {msg}", file=sys.stderr)
        return EXIT_FAILURE
    except SdedgeError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
