"""Seeded scenario generators for the benchmark workloads.

Each generator edits a bundled scenario's text and returns it with the
`--set`-style overrides a user would pass. The workload seed becomes both
`seed` and `layout_seed` of the text, so one seed fixes every generated
waypoint and every engine draw. The simulator is imported only when a text
is generated, so the workload names are known without it. Why each workload exists, and which layers
it loads or bypasses, is in NOTES.md beside this file.
"""

from __future__ import annotations

import re


def _edit(text: str, pattern: str, repl: str) -> str:
    """Replace exactly one regex match; a bundled file that drifted fails loudly."""
    new, n = re.subn(pattern, repl, text, flags=re.MULTILINE)
    if n != 1:
        raise ValueError(f"workload edit {pattern!r} matched {n} times, expected 1")
    return new


def _seeded(name: str, seed: int) -> str:
    from sdedge.scenario import bundled_scenario_path

    text = bundled_scenario_path(name).read_text()
    text = _edit(text, r"^seed = \d+$", f"seed = {seed}")
    if re.search(r"^layout_seed = ", text, flags=re.MULTILINE):
        return _edit(text, r"^layout_seed = \d+$", f"layout_seed = {seed}")
    return _edit(text, r"^seed = .*$", f"seed = {seed}\nlayout_seed = {seed}")


def roam(seed: int, mobiles: int = 3000) -> tuple[str, dict[str, str]]:
    """fig5 geometry (8 APs, 2 controllers) scaled to `mobiles` roaming devices."""
    text = _edit(_seeded("fig5", seed), r"^mds M 300 ", f"mds M {mobiles} ")
    return text, {"mode": "None", "personal_ap": "off", "duration": "20.0"}


def gated_churn(seed: int) -> tuple[str, dict[str, str]]:
    """fig5 at 1000 mobiles over 4 controllers, one location group, two crashes."""
    text = _edit(_seeded("fig5", seed), r"^mds M 300 ", "mds M 1000 ")
    text = _edit(text, r"^controller CB$", "controller CB\ncontroller CC\ncontroller CD")
    for ap, ctrl in (("AP3", "CB"), ("AP4", "CB"), ("AP5", "CC"), ("AP6", "CC"), ("AP7", "CD"), ("AP8", "CD")):
        text = _edit(text, rf"^(ap {ap} .* partition=)C\w$", rf"\g<1>{ctrl}")
    text = _edit(
        text,
        r"^(link SW2 CB .*)$",
        "\\1\nlink SW1 CC latency=0.001 rate=1000\nlink SW2 CD latency=0.001 rate=1000",
    )
    text = _edit(text, r"^\[flows\]$", "[groups]\ngroup G1 members=AP3,AP4,AP5,AP6\n\n[flows]")
    text += "\n[failures]\nfail controller CD at=9.3\nfail ap AP2 at=13.3\n"
    return text, {"mode": "LEDGE-PAP", "personal_ap": "auto"}


def packetin(seed: int) -> tuple[str, dict[str, str]]:
    """fig5c's saturated Packet-In load on 4 controllers for 120 s."""
    return _seeded("fig5c", seed), {"controllers": "4", "duration": "120"}


WORKLOADS = {
    "roam-3k": roam,
    "gated-churn-1k": gated_churn,
    "packetin-4c": packetin,
}


def generate(name: str, seed: int) -> tuple[str, dict[str, str]]:
    return WORKLOADS[name](seed)


def validate(name: str, seed: int) -> None:
    """Parse the generated text and apply its overrides; raises on any error."""
    from sdedge.scenario import apply_overrides, parse_scenario_text

    text, overrides = generate(name, seed)
    apply_overrides(parse_scenario_text(text, name=name).params, overrides)
