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


_KINDS = {kind.value: kind for kind in ComponentKind}
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
            a, b = c.terminals
            index.setdefault(a, []).append(c)
            if b != a:
                index.setdefault(b, []).append(c)
        return {n: tuple(cs) for n, cs in index.items()}


def _error(message: str, line: int, raw: str, tokens: list[str], i: int = 0) -> NetlistError:
    """NetlistError at the column of tokens[i], tokens being the
    whitespace-split fields of the line raw: each is found after the last."""
    end = 0
    for token in tokens[: i + 1]:
        end = raw.find(token, end) + len(token)
    return NetlistError(message, line, end - len(tokens[i]) + 1)


def _parse_value(unit: str, line: int, raw: str, tokens: list[str], index: int) -> float:
    """tokens[index] of the line raw in SI units; unit is the one allowed."""
    token = tokens[index]
    m = _VALUE_RE.match(token)
    if m is not None and m[3] in ("", unit):
        return float(m[1]) * _SI_PREFIXES.get(m[2], 1.0)
    if m is not None:
        message = f"unit {m[3]!r} does not match expected {unit!r}"
    elif re.match(r"^[+-]?(?:\d|\.\d)", token):
        message = f"unknown unit in value {token!r}"
    else:
        message = f"malformed value {token!r}"
    raise _error(message, line, raw, tokens, index)


def parse_netlist(text: str) -> Circuit:
    """Parse netlist text into a Circuit.

    Components keep declaration order; unit suffixes are resolved to SI;
    '.ic' directives are captured.  Raises NetlistError on syntax errors,
    unknown units, duplicate ids, non-positive values and self-loop
    terminal pairs, at the column of the field at fault.
    """
    components: list[Component] = []
    kinds: dict[str, ComponentKind] = {}
    nodes: dict[str, None] = {}  # insertion-ordered set
    pending_ics: list[tuple[int, str, list[str]]] = []

    for line, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        cid = tokens[0]
        if cid.lower() == ".ic":
            if len(tokens) != 3:
                raise _error(".ic expects: .ic ID value", line, raw, tokens)
            pending_ics.append((line, raw, tokens))
            continue

        if len(tokens) != 4:
            expected = "component line expects 'ID node node value'"
            raise _error(f"{expected}, got {len(tokens)} fields", line, raw, tokens)
        _, na, nb, _ = tokens
        kind = _KINDS.get(cid[0].upper())
        if kind is None:
            raise _error(f"component id {cid!r} must start with C or L", line, raw, tokens)
        if cid in kinds:
            raise _error(f"duplicate component id {cid!r}", line, raw, tokens)
        na = GROUND if na.upper() == "GND" else na
        nb = GROUND if nb.upper() == "GND" else nb
        if na == nb:
            message = f"component {cid!r} connects node {na!r} to itself"
            raise _error(message, line, raw, tokens)
        value = _parse_value(_VALUE_UNIT[kind], line, raw, tokens, 3)
        if not value > 0.0:
            raise _error(f"non-positive value for {cid!r}", line, raw, tokens, 3)
        kinds[cid] = kind
        components.append(Component(cid, kind, value, (na, nb)))
        nodes[na] = nodes[nb] = None

    ics: dict[str, float] = {}
    for line, raw, tokens in pending_ics:
        cid = tokens[1]
        if cid not in kinds:
            raise _error(f".ic references unknown component {cid!r}", line, raw, tokens)
        if cid in ics:
            raise _error(f"duplicate .ic for {cid!r}", line, raw, tokens)
        ics[cid] = _parse_value(_IC_UNIT[kinds[cid]], line, raw, tokens, 2)

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
    undeclared: set[str] = set()
    for c in circuit.components:
        cid, value, (a, b) = c.id, c.value, c.terminals
        if cid in seen:
            violations.append(f"duplicate component id {cid!r}")
        seen.add(cid)
        if not value > 0.0:
            violations.append(f"component {cid!r} has non-positive value {value!r}")
        elif value == math.inf:
            violations.append(f"component {cid!r} has non-finite value {value!r}")
        if a == b:
            violations.append(f"component {cid!r} connects node {a!r} to itself")
        for n in (a, b):
            if n not in declared:
                violations.append(f"component {cid!r} references undeclared node {n!r}")
                undeclared.add(n)

    for cid in circuit.ics:
        if cid not in seen:
            violations.append(f"initial condition for unknown component {cid!r}")

    if circuit.nodes and circuit.components:
        # undeclared nodes count as reached: no component at one is walked
        start = GROUND if GROUND in declared else circuit.nodes[0]
        reached = {start, *undeclared}
        frontier = [start]
        for node in frontier:  # grows as nodes are reached
            for c in circuit.incident(node):
                for other in c.terminals:
                    if other not in reached:
                        reached.add(other)
                        frontier.append(other)
        unreached = [n for n in circuit.nodes if n not in reached]
        if unreached:
            violations.append(
                "circuit is not connected; unreachable nodes: "
                + ", ".join(sorted(unreached))
            )

    return violations
