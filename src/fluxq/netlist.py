"""Netlist parsing and circuit representation for lumped LC networks.

Grammar (UTF-8, line oriented):

    line      := blank | comment | component | directive
    comment   := '#' ... end-of-line
    component := ID node node value     ID starting with C/c is a capacitor,
                                        L/l an inductor
    node      := integer or identifier; '0' or 'GND' is ground
    value     := float [prefix] [unit]  prefix one of a f p n u m,
                                        unit F (capacitors) or H (inductors)
    directive := '.ic' ID value         unit V (capacitors) or A (inductors)

Bare numbers are SI.  Component values must be positive and finite (a
value that overflows, such as 1e400, fails validation) and the two
terminals distinct.  Inline comments ('C1 2 0 2pF  # tank cap') are allowed.
"""
from __future__ import annotations

import enum
import functools
import math
import re
from dataclasses import dataclass, field

GROUND = "0"

_SI_PREFIXES = {
    "a": 1e-18,
    "f": 1e-15,
    "p": 1e-12,
    "n": 1e-9,
    "u": 1e-6,
    "m": 1e-3,
}

_VALUE_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"  # number
    r"([afpnum]?)"                                   # optional SI prefix
    r"([FHVA]?)$"                                    # optional unit
)


class NetlistError(ValueError):
    """Malformed netlist text; carries the 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column


class ComponentKind(enum.Enum):
    CAPACITOR = "C"
    INDUCTOR = "L"


# unit letter expected for a component value / an initial condition
_VALUE_UNIT = {ComponentKind.CAPACITOR: "F", ComponentKind.INDUCTOR: "H"}
_IC_UNIT = {ComponentKind.CAPACITOR: "V", ComponentKind.INDUCTOR: "A"}


@dataclass(frozen=True)
class Component:
    """Two-terminal lumped element.  Value is Farads or Henries (SI)."""

    id: str
    kind: ComponentKind
    value: float
    terminals: tuple[str, str]
    geometric: bool = False

    @property
    def a(self) -> str:
        return self.terminals[0]

    @property
    def b(self) -> str:
        return self.terminals[1]


@dataclass
class Circuit:
    """A netlist graph: ordered nodes (ground first when present), ordered
    components, and optional initial conditions keyed by component id
    (Volts for capacitors, Amperes for inductors)."""

    nodes: tuple[str, ...]
    components: tuple[Component, ...]
    ics: dict[str, float] = field(default_factory=dict)

    def component(self, cid: str) -> Component:
        return self._by_id[cid]

    @functools.cached_property
    def _by_id(self) -> dict[str, Component]:
        # reversed, so a duplicate id resolves to its first declaration as a
        # scan would; the index assumes `components` is never reassigned
        return {c.id: c for c in reversed(self.components)}

    def incident(self, node: str) -> tuple[Component, ...]:
        return self._incident.get(node, ())

    @functools.cached_property
    def _incident(self) -> dict[str, tuple[Component, ...]]:
        # node -> its components in declaration order; like _by_id, built
        # once on the assumption that `components` is never reassigned
        index: dict[str, list[Component]] = {}
        for c in self.components:
            for n in dict.fromkeys(c.terminals):
                index.setdefault(n, []).append(c)
        return {n: tuple(cs) for n, cs in index.items()}


def _normalize_node(token: str) -> str:
    if token.upper() == "GND":
        return GROUND
    return token


def _parse_value(token: str, expected_unit: str, line: int, column: int) -> float:
    m = _VALUE_RE.match(token)
    if m is None:
        if re.match(r"^[+-]?(?:\d|\.\d)", token):
            raise NetlistError(f"unknown unit in value {token!r}", line, column)
        raise NetlistError(f"malformed value {token!r}", line, column)
    number, prefix, unit = m.groups()
    if unit and unit != expected_unit:
        raise NetlistError(
            f"unit {unit!r} does not match expected {expected_unit!r}", line, column
        )
    scale = _SI_PREFIXES.get(prefix, 1.0)
    return float(number) * scale


def parse_netlist(text: str) -> Circuit:
    """Parse netlist text into a Circuit.

    Components keep declaration order; unit suffixes are resolved to SI;
    '.ic' directives are captured.  Raises NetlistError on syntax errors,
    unknown units, duplicate ids, non-positive values and self-loop
    terminal pairs.
    """
    components: list[Component] = []
    ids: set[str] = set()
    nodes: dict[str, None] = {}  # insertion-ordered set
    pending_ics: list[tuple[int, int, str, str]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0]
        tokens = stripped.split()
        if not tokens:
            continue
        col = raw.find(tokens[0]) + 1

        if tokens[0].lower() == ".ic":
            if len(tokens) != 3:
                raise NetlistError(".ic expects: .ic ID value", lineno, col)
            pending_ics.append((lineno, col, tokens[1], tokens[2]))
            continue

        if len(tokens) != 4:
            raise NetlistError(
                f"component line expects 'ID node node value', got {len(tokens)} fields",
                lineno,
                col,
            )
        cid, na, nb, vtok = tokens
        first = cid[0].upper()
        if first == "C":
            kind = ComponentKind.CAPACITOR
        elif first == "L":
            kind = ComponentKind.INDUCTOR
        else:
            raise NetlistError(
                f"component id {cid!r} must start with C or L", lineno, col
            )
        if cid in ids:
            raise NetlistError(f"duplicate component id {cid!r}", lineno, col)
        na, nb = _normalize_node(na), _normalize_node(nb)
        if na == nb:
            raise NetlistError(
                f"component {cid!r} connects node {na!r} to itself", lineno, col
            )
        vcol = raw.find(vtok) + 1
        value = _parse_value(vtok, _VALUE_UNIT[kind], lineno, vcol)
        if not value > 0.0:
            raise NetlistError(f"non-positive value for {cid!r}", lineno, vcol)
        ids.add(cid)
        components.append(Component(cid, kind, value, (na, nb)))
        nodes.setdefault(na)
        nodes.setdefault(nb)

    by_id = {c.id: c for c in components}
    ics: dict[str, float] = {}
    for lineno, col, cid, vtok in pending_ics:
        comp = by_id.get(cid)
        if comp is None:
            raise NetlistError(f".ic references unknown component {cid!r}", lineno, col)
        if cid in ics:
            raise NetlistError(f"duplicate .ic for {cid!r}", lineno, col)
        ics[cid] = _parse_value(vtok, _IC_UNIT[comp.kind], lineno, col)

    if GROUND in nodes:
        nodes = {GROUND: None, **nodes}  # ground first, the rest in order
    return Circuit(tuple(nodes), tuple(components), ics)


def serialize_netlist(circuit: Circuit) -> str:
    """Canonical text form: one component per line in declaration order,
    SI values with explicit unit, then '.ic' directives."""
    lines = []
    for c in circuit.components:
        unit = _VALUE_UNIT[c.kind]
        lines.append(f"{c.id} {c.a} {c.b} {c.value!r}{unit}")
    for cid, val in circuit.ics.items():
        unit = _IC_UNIT[circuit.component(cid).kind]
        lines.append(f".ic {cid} {val!r}{unit}")
    return "\n".join(lines) + "\n"


def validate_circuit(circuit: Circuit) -> list[str]:
    """Check Circuit invariants.  Returns a list of violations; an empty
    list means the circuit is valid.  Violations are data, not failures."""
    violations: list[str] = []

    declared = set(circuit.nodes)
    if GROUND not in declared:
        violations.append("no ground node ('0' or 'GND') present")

    seen: set[str] = set()
    for c in circuit.components:
        if c.id in seen:
            violations.append(f"duplicate component id {c.id!r}")
        seen.add(c.id)
        if not c.value > 0.0:
            violations.append(f"component {c.id!r} has non-positive value {c.value!r}")
        elif not math.isfinite(c.value):
            violations.append(f"component {c.id!r} has non-finite value {c.value!r}")
        if c.a == c.b:
            violations.append(f"component {c.id!r} connects node {c.a!r} to itself")
        for n in c.terminals:
            if n not in declared:
                violations.append(
                    f"component {c.id!r} references undeclared node {n!r}"
                )

    for cid in circuit.ics:
        if cid not in seen:
            violations.append(f"initial condition for unknown component {cid!r}")

    if circuit.nodes and circuit.components:
        from .topology import _adjacency, _bfs_forest  # topology imports this module

        start = GROUND if GROUND in declared else circuit.nodes[0]
        usable = (c for c in circuit.components if declared.issuperset(c.terminals))
        reached, _ = _bfs_forest(_adjacency(usable), (start,))
        unreached = [n for n in circuit.nodes if n != start and n not in reached]
        if unreached:
            violations.append(
                "circuit is not connected; unreachable nodes: "
                + ", ".join(sorted(unreached))
            )

    return violations
