"""Declarative scenario files: parsing, validation, generation, writing.

The format is line-oriented and diff-friendly: named sections in square
brackets, one directive per line, `key=value` arguments. Each directive is
read through its row of the table `_DIRECTIVES`: its section, usage line,
positional and `key=value` arguments with the converters that hold their
domains, and the `_Parser` method that builds it. The generators `mds`
and `flows` expand at parse time using `layout_seed` into concrete
entities. A `roam` line stays a declaration, a `RoamDecl` with its matched
MDs, `until` and `area` resolved; `World` draws its waypoints, also from
`layout_seed`, and the parser computes a roam's instants only to check
them against another trace on the same MD. Each declared time becomes
whole ns once, by `_time`; `Params` stay in seconds. Writing a scenario out,
times in seconds, and re-parsing it is structurally lossless. The run seed
never influences layout; overriding it cannot silently reshape the topology.
"""

from __future__ import annotations

import fnmatch
import math
import random
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, fields, replace
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

from .authn import MODES
from .engine import ns
from .errors import ScenarioError, UsageError
from .ring import fnv1a64, hash_id

if TYPE_CHECKING:
    from importlib.resources.abc import Traversable

SECTIONS = ("params", "topology", "groups", "flows", "traces", "failures", "workload")
PERSONAL_AP_CHOICES = ("auto", "on", "off")
MD_STATUSES = ("joining", "leaving", "staying")  # parsed and validated; no decision reads it


def _moves_clock(period: int, horizon: int) -> bool:
    """Whether a `period` moves the clock, as a report prints it, at `horizon`
    (both in whole ns): (h + p) / 10**9 > h / 10**9, so p >= 1 ns."""
    return (horizon + period) / 10**9 > horizon / 10**9


@dataclass(frozen=True)
class Params:
    m: int = 16
    r: int = 2
    seed: int = 0                  # labels the run in its report; no simulated choice is random
    layout_seed: int = 1
    duration: float = 10.0
    mode: str = "None"
    personal_ap: str = "auto"
    controllers: int = 0           # 0 = use all declared
    beacon_period: float = 0.1
    rotation_period: float = 10.0
    recovery_lag: float = 4.0
    reassociation_delay: float = 0.5
    pap_migration_delay: float = 0.02
    key_freshness: float = 0.05
    regrant_grace: float = 0.3
    link_latency: float = 0.001
    wireless_latency: float = 0.005
    sample_period: float = 0.1
    detection_delay: float = 0.0

    @property
    def personal_ap_enabled(self) -> bool:
        if self.personal_ap == "auto":
            return self.mode == "LEDGE-PAP"
        return self.personal_ap == "on"

    def validate(self) -> list[tuple[str, str]]:
        """Range problems as (field, message), shared by scenario files and
        `--set` overrides. Every float is finite, in ns too; the horizon and the
        three periods are positive, and every other float is >= 0. Each period
        must move the clock at the horizon, or its events would repeat one instant."""
        problems = []
        horizon = ns(self.duration) if math.isfinite(self.duration * 10**9) else None
        for name in _FLOAT_PARAMS:
            value, positive = getattr(self, name), name in _POSITIVE_PARAMS
            if not (math.isfinite(value * 10**9) and (value > 0 if positive else value >= 0)):
                problems.append((name, f"{name} must be {'positive' if positive else '>= 0'} and finite"))
            elif name in _PERIODS and horizon is not None and not _moves_clock(ns(value), horizon):
                problems.append((name, f"{name} does not advance the clock at duration={self.duration} "
                                       "(instants are whole ns)"))
        if not 2 <= self.m <= 32:
            problems.append(("m", f"ring width m={self.m} outside [2, 32]"))
        if self.r < 1:
            problems.append(("r", "replication factor r must be >= 1"))
        if self.controllers < 0:
            problems.append(("controllers", "controllers must be >= 0 (0 = all declared)"))
        return problems

    def controllers_problem(self, declared: int) -> str | None:
        """`controllers` picks among the declared controllers, so it may not
        exceed their count. The parser checks a file's own value; `World`
        checks the parameters it is given, overrides included."""
        if self.controllers > declared:
            return f"controllers={self.controllers} but only {declared} declared"
        return None


_PARAM_TYPES = {f.name: f.type for f in fields(Params)}
_INT_PARAMS = {f.name for f in fields(Params) if f.type == "int"}
_FLOAT_PARAMS = tuple(f.name for f in fields(Params) if f.type == "float")
_PERIODS = ("sample_period", "beacon_period", "rotation_period")
_POSITIVE_PARAMS = ("duration", *_PERIODS)


@dataclass(frozen=True, slots=True)
class _Directive:
    """A declaration's line in its scenario file: 0 when it was built in code."""

    line: int = field(default=0, compare=False, repr=False, kw_only=True)


@dataclass(frozen=True, slots=True)
class ControllerDecl(_Directive):
    name: str
    key: int | None = None


@dataclass(frozen=True, slots=True)
class SwitchDecl(_Directive):
    name: str


@dataclass(frozen=True, slots=True)
class APDecl(_Directive):
    name: str
    x: float
    y: float
    radius: float
    capacity: float
    techs: tuple[str, ...]
    partition: str


@dataclass(frozen=True, slots=True)
class MDDecl(_Directive):
    name: str
    x: float | None = None
    y: float | None = None


@dataclass(frozen=True, slots=True)
class LinkDecl(_Directive):
    a: str
    b: str
    latency: float
    rate: float


@dataclass(frozen=True, slots=True)
class GroupDecl(_Directive):
    name: str
    members: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class StreamDecl(_Directive):
    name: str
    md: str
    dst: str
    flow_type: str
    demand: float
    tech: str
    start: int  # ns, as every declared time
    end: int | None = None


@dataclass(frozen=True, slots=True)
class WaypointDecl(_Directive):
    md: str
    t: int
    x: float
    y: float
    status: str = "staying"


@dataclass(frozen=True, slots=True)
class RoamDecl(_Directive):
    """Each of `mds` moves at every one of `instants()` to a point of `area`,
    drawn by `points` from `layout_seed`: one declaration, not one waypoint
    per device and instant."""

    pattern: str
    mds: tuple[str, ...]  # the MDs `pattern` matched, in declaration order
    interval: int
    until: int
    area: tuple[float, float, float, float]

    def instants(self, horizon: int | None = None) -> range:
        """Every multiple of `interval` from `interval` up to `until`, or up to
        `horizon` if that is earlier; the parser rejects an interval that does
        not move the clock at `until`."""
        last = self.until if horizon is None else min(self.until, horizon)
        return range(self.interval, last + 1, self.interval)

    def points(self, layout_seed: int, md: str, count: int) -> Iterator[tuple[float, float]]:
        """`md`'s point (x, y) at each of the first `count` instants, each
        coordinate rounded to 1e-3."""
        rand = _layout_rng(layout_seed, f"roam:{md}").random
        x0, y0, x1, y1 = self.area
        dx, dy = x1 - x0, y1 - y0  # `uniform(a, b)` is a + (b - a) * random(), as documented
        for _ in range(count):
            yield round(x0 + dx * rand(), 3), round(y0 + dy * rand(), 3)


@dataclass(frozen=True, slots=True)
class FailureDecl(_Directive):
    kind: str  # controller | ap
    name: str
    at: int


@dataclass(frozen=True, slots=True)
class WorkloadDecl(_Directive):
    rate_per_ap: float
    service_time: int
    start: int = 0
    until: int | None = None

    @property
    def period(self) -> int:  # 1/rate_per_ap in ns, for a rate_per_ap > 0 that `period_problem` passes
        return ns(1 / self.rate_per_ap)

    def horizon(self, duration: int) -> int:
        """The last instant an arrival may be served at; `duration` in ns."""
        return min(self.until, duration) if self.until is not None else duration

    def period_problem(self, duration: int) -> str | None:
        """Arrival instants are a period apart up to the horizon, so the
        period must move the clock there. The parser checks a file's own
        `duration`; `World` checks the one it is given."""
        horizon = self.horizon(duration)
        if self.rate_per_ap > 0 and not (10**9 / self.rate_per_ap < math.inf and _moves_clock(self.period, horizon)):
            return (f"packetin rate_per_ap={self.rate_per_ap!r} does not advance the clock at "
                    f"t={horizon / 10**9} (instants are whole ns)")
        return None


@dataclass
class Scenario:
    name: str = field(compare=False, default="scenario")
    params: Params = field(default_factory=Params)
    controllers: list[ControllerDecl] = field(default_factory=list)
    switches: list[SwitchDecl] = field(default_factory=list)
    aps: list[APDecl] = field(default_factory=list)
    mds: list[MDDecl] = field(default_factory=list)
    links: list[LinkDecl] = field(default_factory=list)
    groups: list[GroupDecl] = field(default_factory=list)
    streams: list[StreamDecl] = field(default_factory=list)
    waypoints: list[WaypointDecl] = field(default_factory=list)
    failures: list[FailureDecl] = field(default_factory=list)
    workload: WorkloadDecl | None = None
    roams: list[RoamDecl] = field(default_factory=list)  # `waypoints` holds the explicit moves only


def ring_keys(controllers: list[ControllerDecl], m: int) -> tuple[dict[str, int], list[tuple[int, str]]]:
    """Each controller's key on the m-bit ring, declared or hashed from its
    name, and the problems that keep one off it, as (line, message). The
    parser checks a file's own `m`; `World` checks the `m` it is given."""
    keys: dict[str, int] = {}
    problems = []
    taken: dict[int, str] = {}
    for c in controllers:
        key = c.key if c.key is not None else hash_id(c.name, m)
        if not 0 <= key < 1 << m:
            problems.append((c.line, f"controller {c.name} key {key} outside [0, 2^{m})"))
        elif key in taken:
            problems.append((c.line, f"controller {c.name} collides with {taken[key]} at key {key}"))
        else:
            keys[c.name], taken[key] = key, c.name
    return keys, problems


def _layout_rng(layout_seed: int, tag: str) -> random.Random:
    return random.Random(((layout_seed & 0xFFFFFFFF) << 32) ^ (fnv1a64(tag.encode()) & 0xFFFFFFFF))


class _LineError(Exception):
    """A directive line that does not fit its row's grammar."""


class _Parser:
    def __init__(self, text: str, name: str):
        self.lines = text.splitlines()
        self.errors: list[tuple[int, int, str]] = []
        self.scenario = Scenario(name=name)
        # raw directives per section, with line numbers
        self.raw: dict[str, list[tuple[int, str]]] = {s: [] for s in SECTIONS}
        self.param_lines: dict[str, int] = {}  # parameter -> line that set it
        self.flagged: set[str] = set()  # parameters out of range

    def fail(self, line_no: int, msg: str, col: int = 1) -> None:
        self.errors.append((line_no, col, msg))

    # -- lexing --------------------------------------------------------------

    def split_sections(self) -> None:
        section = None
        for i, raw in enumerate(self.lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip()
                if section not in SECTIONS:
                    self.fail(i, f"unknown section [{section}]")
                    section = None
                continue
            if section is None:
                self.fail(i, f"directive outside any section: {line!r}")
                continue
            self.raw[section].append((i, line))

    # -- sections --------------------------------------------------------------

    def parse_params(self) -> None:
        values: dict[str, object] = {}
        for line_no, line in self.raw["params"]:
            if "=" not in line:
                self.fail(line_no, f"expected key = value, got {line!r}")
                continue
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in _PARAM_TYPES:
                self.fail(line_no, f"unknown parameter {key!r}")
                continue
            try:
                values[key] = _convert_param(key, val)
            except ValueError as exc:
                self.fail(line_no, str(exc))
            self.param_lines[key] = line_no
        self.scenario.params = Params(**values)  # each key is a field, each value converted
        for name, problem in self.scenario.params.validate():
            self.fail(self.param_lines.get(name, 0), problem)
            self.flagged.add(name)

    def parse_section(self, section: str) -> None:
        """Each line is `HEAD POSITIONAL... key=value...`, read by its head's
        `_DIRECTIVES` row. A line with an error is reported and skipped, at
        its first error, before its builder runs."""
        for line_no, line in self.raw[section]:
            head, *tokens = line.split()
            row = _DIRECTIVES.get(head)
            if row is None or row.section != section:
                self.fail(line_no, f"unknown {section} directive {head!r}")
                continue
            n = len(row.positional)
            if len(tokens) < n - row.optional_positional or (len(tokens) > n and not (row.required or row.optional)):
                self.fail(line_no, f"expected: {row.usage}")
                continue
            try:
                args = []
                for (name, conv), text in zip(row.positional, tokens):
                    args.append(conv(text))
                keys = {}
                for tok in tokens[n:]:
                    name, eq, text = tok.partition("=")
                    if not eq:
                        raise _LineError(f"expected key=value, got {tok!r}")
                    conv = row.required.get(name) or row.optional.get(name)
                    if conv is None:
                        raise _LineError(f"unknown argument {name!r}")
                    keys[name] = conv(text)
                if not row.required.keys() <= keys.keys():
                    raise _LineError(f"missing argument(s): {', '.join(k for k in row.required if k not in keys)}")
            except ValueError:  # from a converter
                self.fail(line_no, f"bad value for {name}: {text!r}")
                continue
            except _LineError as exc:
                self.fail(line_no, str(exc))
                continue
            row.build(self, line_no, *args, **keys)

    # -- builders: one per directive, called with its converted arguments -------

    def add_controller(self, line: int, name: str, key: int | None = None) -> None:
        self.scenario.controllers.append(ControllerDecl(name, key, line=line))

    def add_switch(self, line: int, name: str) -> None:
        self.scenario.switches.append(SwitchDecl(name, line=line))

    def add_ap(self, line: int, name: str, pos: tuple[float, float], radius: float, capacity: float,
               techs: tuple[str, ...], partition: str) -> None:
        self.scenario.aps.append(APDecl(name, *pos, radius, capacity, techs, partition, line=line))

    def add_md(self, line: int, name: str, pos: tuple[float | None, float | None] = (None, None)) -> None:
        self.scenario.mds.append(MDDecl(name, *pos, line=line))

    def add_mds(self, line: int, prefix: str, count: int, area: tuple[float, float, float, float]) -> None:
        sc = self.scenario
        x0, y0, x1, y1 = area
        width = max(3, len(str(count)))
        for i in range(1, count + 1):
            name = f"{prefix}{i:0{width}d}"
            rng = _layout_rng(sc.params.layout_seed, f"md:{name}")
            sc.mds.append(MDDecl(name, round(rng.uniform(x0, x1), 3), round(rng.uniform(y0, y1), 3), line=line))

    def add_link(self, line: int, a: str, b: str, latency: float, rate: float) -> None:
        self.scenario.links.append(LinkDecl(a, b, latency, rate, line=line))

    def add_group(self, line: int, name: str, members: tuple[str, ...]) -> None:
        self.scenario.groups.append(GroupDecl(name, members, line=line))

    def add_flow(self, line: int, name: str, md: str, dst: str, type: str, demand: float, tech: str,
                 start: int, end: int | None = None) -> None:
        self.scenario.streams.append(StreamDecl(name, md, dst, type, demand, tech, start, end, line=line))

    def add_flows(self, line: int, prefix: str, md: str, dst: str, type: str, demand: float, tech: str,
                  start: int, end: int | None = None) -> None:
        matched = [m.name for m in self.scenario.mds if fnmatch.fnmatchcase(m.name, md)]
        if not matched:
            self.fail(line, f"flows pattern {md!r} matches no MD")
        for name in matched:
            self.add_flow(line, f"{prefix}-{name}", name, dst, type, demand, tech, start, end)

    def add_move(self, line: int, md: str, t: int, pos: tuple[float, float], status: str = "staying") -> None:
        if status not in MD_STATUSES:
            self.fail(line, f"unknown MD status {status!r}")
            return
        self.scenario.waypoints.append(WaypointDecl(md, t, *pos, status, line=line))

    def add_roam(self, line: int, pattern: str, interval: int, until: int | None = None,
                 area: tuple[float, float, float, float] | None = None) -> None:
        sc = self.scenario
        if area is None and sc.aps:  # the bounding box of the APs' discs
            area = (min(a.x - a.radius for a in sc.aps), min(a.y - a.radius for a in sc.aps),
                    max(a.x + a.radius for a in sc.aps), max(a.y + a.radius for a in sc.aps))
        if area is None:
            self.fail(line, "roam needs area= (no APs to infer one from)")
            return
        if until is None and "duration" in self.flagged:
            return  # reported at its own line, and not whole ns
        until = ns(sc.params.duration) if until is None else until
        if not _moves_clock(interval, until):  # its instants would repeat one
            self.fail(line, f"roam interval={interval / 10**9} does not advance the clock at "
                            f"until={until / 10**9} (instants are whole ns)")
            return
        matched = tuple(m.name for m in sc.mds if fnmatch.fnmatchcase(m.name, pattern))
        if not matched:
            self.fail(line, f"roam pattern {pattern!r} matches no MD")
            return
        sc.roams.append(RoamDecl(pattern, matched, interval, until, area, line=line))

    def add_failure(self, line: int, kind: str, name: str, at: int) -> None:
        if kind not in ("controller", "ap"):
            self.fail(line, f"cannot fail a {kind!r} (controller|ap)")
            return
        self.scenario.failures.append(FailureDecl(kind, name, at, line=line))

    def add_packetin(self, line: int, rate_per_ap: float, service_time: int, start: int = 0,
                     until: int | None = None) -> None:
        if self.scenario.workload is not None:
            self.fail(line, "duplicate packetin workload")
            return
        self.scenario.workload = WorkloadDecl(rate_per_ap, service_time, start, until, line=line)

    # -- cross validation ---------------------------------------------------------

    def validate(self) -> None:
        sc = self.scenario
        names: dict[str, str] = {}
        for kind, items in (
            ("controller", sc.controllers),
            ("switch", sc.switches),
            ("ap", sc.aps),
            ("md", sc.mds),
        ):
            for item in items:
                if item.name in names:
                    self.fail(item.line, f"duplicate node name {item.name!r} ({names[item.name]} and {kind})")
                names[item.name] = kind
        controller_names = {c.name for c in sc.controllers}
        ap_names = {a.name for a in sc.aps}
        md_names = {m.name for m in sc.mds}

        if not sc.controllers:
            self.fail(0, "scenario declares no controllers")
        problem = sc.params.controllers_problem(len(sc.controllers))
        if problem:
            self.fail(self.param_lines.get("controllers", 0), problem)
        if "m" not in self.flagged:
            active = sc.controllers[: sc.params.controllers] if sc.params.controllers else sc.controllers
            for line, msg in ring_keys(active, sc.params.m)[1]:
                self.fail(line, msg)
        w = sc.workload
        if w is not None and "duration" not in self.flagged and (problem := w.period_problem(ns(sc.params.duration))):
            self.fail(w.line, problem)

        for ap in sc.aps:
            if ap.partition not in controller_names:
                self.fail(ap.line, f"ap {ap.name} references undeclared controller {ap.partition!r}")
        for link in sc.links:
            for end in (link.a, link.b):
                if end not in names:
                    self.fail(link.line, f"link references undeclared node {end!r}")
        seen_group_aps: dict[str, str] = {}
        for g in sc.groups:
            if len(g.members) < 2:
                self.fail(g.line, f"group {g.name} needs at least 2 member APs")
            for member in g.members:
                if member not in ap_names:
                    self.fail(g.line, f"group {g.name} references undeclared AP {member!r}")
                elif member in seen_group_aps:
                    self.fail(g.line, f"AP {member} is in both {seen_group_aps[member]} and {g.name}")
                else:
                    seen_group_aps[member] = g.name
        stream_names = set()
        for s in sc.streams:
            if s.name in stream_names:
                self.fail(s.line, f"duplicate stream name {s.name!r}")
            stream_names.add(s.name)
            if s.md not in md_names:
                self.fail(s.line, f"flow {s.name} references undeclared MD {s.md!r}")
            if s.dst not in names or names[s.dst] == "md":
                self.fail(s.line, f"flow {s.name} destination {s.dst!r} is not a declared infrastructure node")
            if s.end is not None and s.end <= s.start:
                self.fail(s.line, f"flow {s.name} ends before it starts")
        self.check_traces(md_names)
        for f in sc.failures:
            pool = controller_names if f.kind == "controller" else ap_names
            if f.name not in pool:
                self.fail(f.line, f"failure targets undeclared {f.kind} {f.name!r}")

    def check_traces(self, md_names: set[str]) -> None:
        """Each MD's waypoint times, from its moves and its roams together,
        strictly increase in whole ns; a time that repeats is reported at the
        later line. One roam's own instants increase, so only an MD with more
        than one trace is checked."""
        sc = self.scenario
        traces: dict[str, list[WaypointDecl | RoamDecl]] = {}
        for wp in sc.waypoints:
            if wp.md in md_names:
                traces.setdefault(wp.md, []).append(wp)
            else:
                self.fail(wp.line, f"trace references undeclared MD {wp.md!r}")
        for roam in sc.roams:
            for md in roam.mds:
                traces.setdefault(md, []).append(roam)
        for md, decls in traces.items():
            if len(decls) < 2:
                continue
            # of equal times, the earlier line's sorts first
            times = sorted((t, d.line) for d in decls for t in (d.instants() if isinstance(d, RoamDecl) else (d.t,)))
            for (last, _), (t, line) in zip(times, times[1:]):
                if t == last:
                    self.fail(line, f"waypoints for {md} are not strictly increasing at t={t / 10**9}")

    def run(self) -> Scenario:
        self.split_sections()
        self.parse_params()
        for section in SECTIONS[1:]:
            self.parse_section(section)
        self.validate()
        if self.errors:
            raise ScenarioError(sorted(set(self.errors)))
        # stable ordering regardless of file layout
        self.scenario.waypoints.sort(key=lambda w: (w.t, w.md))
        return self.scenario


Converter = Callable[[str], object]


@dataclass(frozen=True)
class _Row:
    """One directive's grammar, `HEAD POSITIONAL... key=value...`, and the
    `_Parser` method that appends what it declares."""

    section: str
    usage: str
    build: Callable[..., None]  # (parser, line, *positional, **keys)
    positional: tuple[tuple[str, Converter], ...]
    required: dict[str, Converter] = field(default_factory=dict)
    optional: dict[str, Converter] = field(default_factory=dict)
    optional_positional: int = 0  # how many trailing positionals may be left out


def _number(low: float = -math.inf) -> Converter:
    """A converter to a float that is at least `low` and finite, in ns too."""

    def convert(text: str) -> float:
        value = float(text)
        if not (math.isfinite(value * 10**9) and value >= low):
            raise ValueError(text)
        return value

    return convert


_float = _number()
_nonnegative = _number(0.0)  # a latency or a rate
_positive = _number(math.nextafter(0.0, 1.0))  # at least the least float above 0


def _time(text: str) -> int:
    """A declared time, >= 0 s and finite in ns, as whole ns: its one conversion."""
    return ns(_nonnegative(text))


def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def _point(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(text)
    return _float(parts[0]), _float(parts[1])


def _rect(text: str) -> tuple[float, float, float, float]:
    parts = [_float(p) for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError(text)
    return tuple(parts)  # type: ignore[return-value]


def _csv(text: str) -> tuple[str, ...]:
    items = tuple(p for p in text.split(",") if p)
    if not items:
        raise ValueError(text)
    return items


_NAME = (("NAME", str),)
_FLOW_KEYS = {"md": str, "dst": str, "type": str, "demand": _positive, "tech": str, "start": _time}

# head -> its row; `parse_section` reads every directive line through this table
_DIRECTIVES = {
    "controller": _Row("topology", "controller NAME [key=INT]", _Parser.add_controller, _NAME, optional={"key": int}),
    "switch": _Row("topology", "switch NAME", _Parser.add_switch, _NAME),
    "ap": _Row(
        "topology", "ap NAME pos=X,Y radius=R capacity=MBPS techs=TECH,... partition=CONTROLLER", _Parser.add_ap,
        _NAME, {"pos": _point, "radius": _positive, "capacity": _positive, "techs": _csv, "partition": str},
    ),
    "md": _Row("topology", "md NAME [pos=X,Y]", _Parser.add_md, _NAME, optional={"pos": _point}),
    "mds": _Row("topology", "mds PREFIX COUNT area=X0,Y0,X1,Y1", _Parser.add_mds,
                (("PREFIX", str), ("COUNT", _count)), {"area": _rect}),
    "link": _Row("topology", "link A B latency=S rate=MBPS", _Parser.add_link, (("A", str), ("B", str)),
                 {"latency": _nonnegative, "rate": _nonnegative}),
    "group": _Row("groups", "group NAME members=AP1,AP2,...", _Parser.add_group, _NAME, {"members": _csv}),
    "flow": _Row("flows", "flow NAME md=MD dst=NODE type=TYPE demand=MBPS tech=TECH start=T [end=T]",
                 _Parser.add_flow, _NAME, _FLOW_KEYS, {"end": _time}),
    "flows": _Row("flows", "flows PREFIX md=GLOB dst=NODE type=TYPE demand=MBPS tech=TECH start=T [end=T]",
                  _Parser.add_flows, (("PREFIX", str),), _FLOW_KEYS, {"end": _time}),
    "move": _Row("traces", "move MD T X,Y [STATUS]", _Parser.add_move,
                 (("MD", str), ("T", _time), ("X,Y", _point), ("STATUS", str)), optional_positional=1),
    "roam": _Row("traces", "roam GLOB interval=S [until=T] [area=X0,Y0,X1,Y1]", _Parser.add_roam,
                 (("GLOB", str),), {"interval": _time}, {"until": _time, "area": _rect}),
    "fail": _Row("failures", "fail controller|ap NAME at=T", _Parser.add_failure,
                 (("controller|ap", str), ("NAME", str)), {"at": _time}),
    "packetin": _Row("workload", "packetin rate_per_ap=HZ service_time=S [start=T] [until=T]", _Parser.add_packetin,
                     (), {"rate_per_ap": _nonnegative, "service_time": _time},
                     {"start": _time, "until": _time}),
}


_CHOICES = {"mode": MODES, "personal_ap": PERSONAL_AP_CHOICES}


def _convert_param(key: str, val: str):
    if key in _CHOICES:
        if val not in _CHOICES[key]:
            raise ValueError(f"{key} must be one of {', '.join(_CHOICES[key])}")
        return val
    return int(val) if key in _INT_PARAMS else float(val)


def parse_scenario_text(text: str, name: str = "scenario") -> Scenario:
    return _Parser(text, name).run()


def parse_scenario(path: str | Path | Traversable) -> Scenario:
    """Parse a scenario file, or a bundled one's package resource, as UTF-8.
    One that cannot be read is a `ScenarioError` at line 0."""
    if isinstance(path, str):
        path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError([(0, 1, f"cannot read: {exc}")]) from None
    return parse_scenario_text(text, name=Path(path.name).stem)


def bundled_scenario_path(name: str) -> Traversable:
    """A scenario shipped with the package (e.g. 'fig6' or 'fig6.scenario').

    The result is the package resource itself, read in place with
    `read_text()`; for a package imported from a zip it is no file on disk.
    """
    if not name.endswith(".scenario"):
        name += ".scenario"
    res = resources.files("sdedge") / "scenarios" / name
    if not res.is_file():
        raise FileNotFoundError(f"no bundled scenario {name}")
    return res


def resolve_scenario(spec: str | Path) -> Path | Traversable:
    """A path on disk, or the name of a bundled scenario."""
    p = Path(spec)
    if p.exists():
        return p
    try:
        return bundled_scenario_path(str(spec))
    except FileNotFoundError:
        raise ScenarioError([(0, 1, f"scenario not found: {spec}")]) from None


def apply_overrides(params: Params, overrides: dict[str, str]) -> Params:
    """Apply `--set key=value` pairs; unknown keys are usage errors."""
    values = {}
    for key, val in overrides.items():
        if key not in _PARAM_TYPES:
            raise UsageError(f"unknown parameter {key!r} (known: {', '.join(sorted(_PARAM_TYPES))})")
        try:
            values[key] = _convert_param(key, val)
        except ValueError as exc:
            raise UsageError(f"bad value for {key}: {exc}") from exc
    params = replace(params, **values)
    problems = params.validate()
    if problems:
        raise UsageError("; ".join(problem for _, problem in problems))
    return params


def format_scenario(sc: Scenario) -> str:
    """Write a scenario back out in canonical concrete form, times in seconds."""
    out: list[str] = [f"# {sc.name}", "", "[params]"]
    defaults = Params()
    for f in fields(Params):
        val = getattr(sc.params, f.name)
        if val != getattr(defaults, f.name):
            out.append(f"{f.name} = {val}")
    out += ["", "[topology]"]
    for c in sc.controllers:
        out.append(f"controller {c.name}" + (f" key={c.key}" if c.key is not None else ""))
    for s in sc.switches:
        out.append(f"switch {s.name}")
    for a in sc.aps:
        out.append(
            f"ap {a.name} pos={a.x!r},{a.y!r} radius={a.radius!r} capacity={a.capacity!r} "
            f"techs={','.join(a.techs)} partition={a.partition}"
        )
    for m in sc.mds:
        pos = f" pos={m.x!r},{m.y!r}" if m.x is not None else ""
        out.append(f"md {m.name}{pos}")
    for link in sc.links:
        out.append(f"link {link.a} {link.b} latency={link.latency!r} rate={link.rate!r}")
    if sc.groups:
        out += ["", "[groups]"]
        for g in sc.groups:
            out.append(f"group {g.name} members={','.join(g.members)}")
    if sc.streams:
        out += ["", "[flows]"]
        for s in sc.streams:
            end = f" end={s.end / 10**9}" if s.end is not None else ""
            out.append(f"flow {s.name} md={s.md} dst={s.dst} type={s.flow_type} demand={s.demand!r} tech={s.tech} "
                       f"start={s.start / 10**9}{end}")
    if sc.waypoints or sc.roams:
        out += ["", "[traces]"]
        for w in sc.waypoints:
            out.append(f"move {w.md} {w.t / 10**9} {w.x!r},{w.y!r} {w.status}")
        for r in sc.roams:
            area = ",".join(repr(v) for v in r.area)
            out.append(f"roam {r.pattern} interval={r.interval / 10**9} until={r.until / 10**9} area={area}")
    if sc.failures:
        out += ["", "[failures]"]
        for fl in sc.failures:
            out.append(f"fail {fl.kind} {fl.name} at={fl.at / 10**9}")
    if sc.workload is not None:
        out += ["", "[workload]"]
        w = sc.workload
        until = f" until={w.until / 10**9}" if w.until is not None else ""
        out.append(f"packetin rate_per_ap={w.rate_per_ap!r} service_time={w.service_time / 10**9} "
                   f"start={w.start / 10**9}{until}")
    return "\n".join(out) + "\n"
