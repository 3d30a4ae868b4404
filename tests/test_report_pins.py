"""Golden report pins: sha256 of render_json / render_csv for fixed runs.

Each bundled scenario runs under every access-control mode with Personal AP
forced on and off. fig5 with a third controller also runs three failure
cases: `fig5-failures` crashes controller CB and then AP2, whose devices
recover inside their own partition; `fig5-xpart` deals the APs over three
controllers and crashes AP2, whose devices recover onto neighbouring APs of
other partitions, with a handover. Both run with mode None and Personal AP
off, and with LEDGE-PAP and Personal AP on. `fig5-gated` has the crashes of
`fig5-failures` plus location group G1 over AP3-AP6, so beacons and
re-authentication run across both failures; it runs with LEDGE-PAP only.
A change that moves a pin on purpose says why in CHANGES.md and rewrites the
fixture with

    PYTHONPATH=src python tests/test_report_pins.py > tests/fixtures/report_pins.tsv
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from sdedge.authn import MODES
from sdedge.report import render_csv, render_json
from sdedge.scenario import apply_overrides, bundled_scenario_path, parse_scenario_text
from sdedge.simnet import World

PINS = Path(__file__).parent / "fixtures" / "report_pins.tsv"
SCENARIOS = ("fig2", "fig5", "fig5c", "fig6")
FAILURE_RUNS = (("None", "off"), ("LEDGE-PAP", "on"))
GROUP_G1 = "[groups]\ngroup G1 members=AP3,AP4,AP5,AP6\n\n"


# failure case -> ([groups] section, [failures] section, overrides, (mode, personal_ap) runs)
FAILURE_CASES = {
    "fig5-failures": ("", "fail controller CB at=9.3\nfail ap AP2 at=13.3\n", {}, FAILURE_RUNS),
    "fig5-xpart": ("", "fail ap AP2 at=13.3\n", {"controllers": "3"}, FAILURE_RUNS),
    "fig5-gated": (GROUP_G1, "fail controller CB at=9.3\nfail ap AP2 at=13.3\n", {}, (("LEDGE-PAP", "on"),)),
}


def _failure_text(groups: str, failures: str) -> str:
    text = bundled_scenario_path("fig5").read_text()
    text = text.replace("controller CB\n", "controller CB\ncontroller CC\n", 1)
    text = text.replace("[flows]\n", groups + "[flows]\n", 1)
    return text + "\n[failures]\n" + failures


def cases() -> list[tuple[str, str, str]]:
    out = [(sc, mode, pap) for sc in SCENARIOS for mode in MODES for pap in ("on", "off")]
    return out + [(sc, mode, pap) for sc, case in FAILURE_CASES.items() for mode, pap in case[3]]


def digests(scenario: str, mode: str, personal_ap: str) -> tuple[str, str]:
    overrides = {"mode": mode, "personal_ap": personal_ap}
    if scenario in FAILURE_CASES:
        groups, failures, extra, _runs = FAILURE_CASES[scenario]
        text = _failure_text(groups, failures)
        overrides.update(extra)
    else:
        text = bundled_scenario_path(scenario).read_text()
    sc = parse_scenario_text(text, name=scenario)
    params = apply_overrides(sc.params, overrides)
    report = World(sc, params).run()
    return (
        hashlib.sha256(render_json(report).encode()).hexdigest(),
        hashlib.sha256(render_csv(report).encode()).hexdigest(),
    )


def _load_pins() -> dict[tuple[str, str, str], tuple[str, str]]:
    pins = {}
    for line in PINS.read_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        scenario, mode, pap, json_sha, csv_sha = line.split("\t")
        pins[(scenario, mode, pap)] = (json_sha, csv_sha)
    return pins


@pytest.mark.parametrize("case", cases(), ids=lambda c: "/".join(c))
def test_report_matches_pin(case):
    pinned = _load_pins().get(case)
    assert pinned is not None, f"no pin for {case}"
    assert digests(*case) == pinned


if __name__ == "__main__":
    print("# sha256 of render_json and render_csv per run; regenerate with tests/test_report_pins.py")
    print("# columns: scenario <TAB> mode <TAB> personal_ap <TAB> json_sha256 <TAB> csv_sha256")
    for case in cases():
        print("\t".join((*case, *digests(*case))))
