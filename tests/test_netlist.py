import dataclasses
import re

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from fluxq import (
    Circuit,
    Component,
    ComponentKind,
    NetlistError,
    parse_netlist,
    serialize_netlist,
    validate_circuit,
)


def test_component_stays_a_frozen_dataclass():
    comp = Component("C1", ComponentKind.CAPACITOR, 2e-12, ("2", "0"))
    assert comp.geometric is False
    for name in ("id", "value", "geometric"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(comp, name, None)
    assert [f.name for f in dataclasses.fields(comp)] == [
        "id", "kind", "value", "terminals", "geometric"
    ]
    assert repr(comp) == (
        "Component(id='C1', kind=<ComponentKind.CAPACITOR: 'C'>, value=2e-12, "
        "terminals=('2', '0'), geometric=False)"
    )
    same = Component(
        id="C1", kind=ComponentKind.CAPACITOR, value=2e-12, terminals=("2", "0")
    )
    assert comp == same and hash(comp) == hash(same)
    assert hash(comp) == hash(("C1", ComponentKind.CAPACITOR, 2e-12, ("2", "0"), False))
    assert comp != dataclasses.replace(comp, geometric=True)
    moved = dataclasses.replace(comp, value=3e-12, terminals=("2", "1"))
    assert moved == Component("C1", ComponentKind.CAPACITOR, 3e-12, ("2", "1"))
    assert dataclasses.astuple(moved)[2:4] == (3e-12, ("2", "1"))


def test_parse_single_capacitor():
    c = parse_netlist("C1 2 0 2pF")
    comp = c.components[0]
    assert comp.id == "C1"
    assert comp.kind is ComponentKind.CAPACITOR
    assert comp.value == 2e-12
    assert comp.terminals == ("2", "0")


def test_parse_inductor_with_ic():
    c = parse_netlist("L3 2 3 1nH\n.ic L3 0nA")
    comp = c.components[0]
    assert comp.kind is ComponentKind.INDUCTOR
    assert comp.value == 1e-9
    assert c.ics == {"L3": 0.0}


def test_parse_passive_fixture(passive_lc):
    assert len(passive_lc.components) == 4
    assert set(passive_lc.nodes) == {"0", "2", "3"}
    assert passive_lc.nodes[0] == "0"
    assert [c.id for c in passive_lc.components] == ["C1", "C2", "L3", "L4"]


def test_gnd_alias_and_comments():
    c = parse_netlist("# header\nC1 a GND 1pF  # inline\n\nL1 a 0 1nH")
    assert c.components[0].terminals == ("a", "0")
    assert set(c.nodes) == {"0", "a"}


def test_bare_si_and_prefix_only_values():
    c = parse_netlist("C1 1 0 2e-12\nC2 1 0 3p\nL1 1 0 1e-9H")
    assert c.components[0].value == 2e-12
    assert c.components[1].value == 3e-12
    assert c.components[2].value == 1e-9


def test_ic_voltage_units():
    c = parse_netlist("C1 1 0 1pF\n.ic C1 2mV")
    assert c.ics["C1"] == pytest.approx(2e-3)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("C1 2 0", "component line"),
        ("R1 1 0 5pF", "must start with C or L"),
        ("C1 1 0 2pX", "unknown unit"),
        ("C1 1 0 2pH", "does not match"),
        ("C1 1 0 0pF", "non-positive"),
        ("C1 1 0 -3pF", "non-positive"),
        ("C1 2 2 1pF", "connects node"),
        ("C1 1 0 1pF\nC1 1 0 2pF", "duplicate"),
        ("C1 1 0 1pF\n.ic C9 1V", "unknown component"),
        ("C1 1 0 1pF\n.ic C1 1A", "does not match"),
        ("C1 1 0 1pF\n.ic C1 1V\n.ic C1 2V", "duplicate .ic"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(NetlistError) as err:
        parse_netlist(text)
    assert fragment in str(err.value)


# one malformed netlist per NetlistError branch, in the order parse_netlist
# checks them; each text also breaks the checks after its own, so the table
# pins their precedence
@pytest.mark.parametrize(
    "text,message",
    [
        (".ic C1 1V 2V", "line 1, col 1: .ic expects: .ic ID value"),
        (
            "X1 1 0",
            "line 1, col 1: component line expects 'ID node node value', got 3 fields",
        ),
        ("R1 1 1 0", "line 1, col 1: component id 'R1' must start with C or L"),
        ("C1 1 0 1pF\nC1 2 2 0", "line 2, col 1: duplicate component id 'C1'"),
        ("C1 GND 0 0", "line 1, col 1: component 'C1' connects node '0' to itself"),
        ("C1 1 0 2pX", "line 1, col 8: unknown unit in value '2pX'"),
        ("C1 1 0 inf", "line 1, col 8: malformed value 'inf'"),
        ("C1 1 0 -2pH", "line 1, col 8: unit 'H' does not match expected 'F'"),
        ("C1 1 0 0", "line 1, col 8: non-positive value for 'C1'"),
        (".ic C9 1X\nC1 1 0 1pF", "line 1, col 1: .ic references unknown component 'C9'"),
        (".ic C1 1V\n.ic C1 1X\nC1 1 0 1pF", "line 2, col 1: duplicate .ic for 'C1'"),
        ("C1 1 0 1pF\n.ic C1 2mX", "line 2, col 8: unknown unit in value '2mX'"),
        ("C1 1 0 1pF\n.ic C1 two", "line 2, col 8: malformed value 'two'"),
        ("L1 1 0 1nH\n.ic L1 1V", "line 2, col 8: unit 'V' does not match expected 'A'"),
    ],
)
def test_parse_error_messages(text, message):
    with pytest.raises(NetlistError) as err:
        parse_netlist(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text,line,column",
    [
        ("C1 1 0 0", 1, 8),  # the value, not the node '0' before it
        ("L1 10 1 0", 1, 9),  # the value, not the '0' inside '10'
        ("C1 0 1 0pF", 1, 8),
        ("  C1\t1  0 \t 0  # 0", 1, 13),
        ("C1 1 0 1pF\n.ic C1 1A", 2, 8),
        ("L1 1 0 1nH\n  .IC  L1   1mV", 2, 13),
        ("C11 1 0 1pF\n .ic C1 1", 2, 2),  # an unknown id: the directive
    ],
)
def test_parse_error_columns(text, line, column):
    with pytest.raises(NetlistError) as err:
        parse_netlist(text)
    assert (err.value.line, err.value.column) == (line, column)


_GRAMMAR_VALUE = re.compile(
    r"([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)([afpnum]?)(F?)"
)


@given(
    st.text(alphabet="0123456789.eE+-_afpnumFHinINfty\u0661", min_size=1, max_size=12)
    | st.sampled_from(["inf", "-Infinity", "nan", "1_0", "5.", ".5e-3", "\u0661.5"])
)
def test_values_follow_the_grammar(token):
    """A value token is read exactly when the grammar's number, SI prefix
    and unit match all of it; float's wider syntax (digits joined by "_",
    inf, nan) is refused."""
    m = _GRAMMAR_VALUE.fullmatch(token)
    try:
        value = parse_netlist(f"C1 1 0 {token}").components[0].value
    except NetlistError as err:
        assert m is None or not float(m[1]) > 0.0, str(err)
        return
    assert m is not None
    scale = {"": 1.0, "a": 1e-18, "f": 1e-15, "p": 1e-12, "n": 1e-9, "u": 1e-6, "m": 1e-3}
    assert value == float(m[1]) * scale[m[2]]


def test_error_carries_line_number():
    with pytest.raises(NetlistError) as err:
        parse_netlist("C1 1 0 1pF\nL1 1 1 1nH")
    assert err.value.line == 2


def test_validate_fixture_is_clean(passive_lc):
    assert validate_circuit(passive_lc) == []


def test_validate_self_loop():
    circuit = Circuit(
        ("0", "2"),
        (Component("C1", ComponentKind.CAPACITOR, 1e-12, ("2", "2")),),
    )
    violations = validate_circuit(circuit)
    assert any("itself" in v for v in violations)


def test_validate_disconnected():
    circuit = parse_netlist("C1 1 0 1pF\nL1 1 0 1nH\nC2 5 6 1pF\nL2 5 6 1nH")
    violations = validate_circuit(circuit)
    assert any("not connected" in v for v in violations)


def test_validate_missing_ground():
    circuit = parse_netlist("C1 1 2 1pF\nL1 1 2 1nH")
    violations = validate_circuit(circuit)
    assert any("ground" in v for v in violations)


def test_validate_empty_circuit_lacks_only_ground():
    # no component, so no connectivity to check
    assert validate_circuit(Circuit((), ())) == ["no ground node ('0' or 'GND') present"]


def test_validate_reports_a_duplicate_id_and_a_non_positive_value():
    # parse_netlist rejects both, so only a hand-built circuit carries them
    circuit = Circuit(
        ("0", "1"),
        (
            Component("C1", ComponentKind.CAPACITOR, 1e-12, ("1", "0")),
            Component("C1", ComponentKind.CAPACITOR, 0.0, ("1", "0")),
            Component("L1", ComponentKind.INDUCTOR, -1e-9, ("1", "0")),
        ),
    )
    assert validate_circuit(circuit) == [
        "duplicate component id 'C1'",
        "component 'C1' has non-positive value 0.0",
        "component 'L1' has non-positive value -1e-09",
    ]


def test_serialize_writes_ics_after_the_components():
    circuit = parse_netlist("C1 1 0 1pF\nL1 1 0 1nH\n.ic L1 2uA\n.ic C1 -3mV\n")
    text = serialize_netlist(circuit)
    assert text == "C1 1 0 1e-12F\nL1 1 0 1e-09H\n.ic L1 2e-06A\n.ic C1 -0.003V\n"
    assert parse_netlist(text) == circuit


def test_serialize_round_trip(passive_lc):
    again = parse_netlist(serialize_netlist(passive_lc))
    assert again == passive_lc


_ids = st.integers(1, 99)
_values = st.floats(1e-15, 1e-6, allow_nan=False, allow_infinity=False)


@st.composite
def circuits(draw):
    n = draw(st.integers(2, 5))
    nodes = ["0"] + [f"n{i}" for i in range(1, n)]
    k = draw(st.integers(1, 6))
    comps = []
    for i in range(k):
        kind = draw(st.sampled_from(list(ComponentKind)))
        a = draw(st.sampled_from(nodes))
        b = draw(st.sampled_from([x for x in nodes if x != a]))
        comps.append(Component(f"{kind.value}{i}", kind, draw(_values), (a, b)))
    used = ["0"] + [t for c in comps for t in c.terminals if t != "0"]
    ordered = []
    for x in used:
        if x not in ordered:
            ordered.append(x)
    return Circuit(tuple(ordered), tuple(comps))


@given(circuits())
def test_round_trip_property(circuit):
    assert parse_netlist(serialize_netlist(circuit)) == circuit


@given(circuits())
def test_parse_is_deterministic(circuit):
    text = serialize_netlist(circuit)
    assert parse_netlist(text) == parse_netlist(text)


_PREFIX = {"": 1.0, "a": 1e-18, "f": 1e-15, "p": 1e-12, "n": 1e-9, "u": 1e-6, "m": 1e-3}
_UNIT = {ComponentKind.CAPACITOR: ("F", "V"), ComponentKind.INDUCTOR: ("H", "A")}
_mantissas = st.one_of(
    st.integers(1, 999).map(str),  # 2
    st.tuples(st.integers(0, 99), st.integers(1, 999)).map("{0[0]}.{0[1]}".format),  # 4.7
    st.tuples(st.integers(1, 9), st.integers(-20, 3)).map("{0[0]}e{0[1]}".format),  # 1e-12
)


@st.composite
def _value_tokens(draw, unit: str, signed: bool = False):
    """(token, SI value): a mantissa, an optional SI prefix and an optional unit."""
    mantissa = draw(_mantissas)
    if signed and draw(st.booleans()):
        mantissa = "-" + mantissa
    prefix = draw(st.sampled_from(list(_PREFIX)))
    token = mantissa + prefix + draw(st.sampled_from(["", unit]))
    return token, float(mantissa) * _PREFIX[prefix]


@st.composite
def netlist_texts(draw):
    """(text, the Circuit it declares): components with SI-prefixed and
    unit-suffixed values between named nodes and ground, spelled 0, GND or
    gnd, then '.ic' directives for some of them."""
    names = ["0", "GND", "gnd"] + [f"n{i}" for i in range(1, draw(st.integers(2, 5)))]
    lines, comps, ics = [], [], {}
    for i in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(list(ComponentKind)))
        a, b = draw(
            st.tuples(st.sampled_from(names), st.sampled_from(names)).filter(
                lambda ab: len({"0" if n.upper() in ("0", "GND") else n for n in ab}) == 2
            )
        )
        token, value = draw(_value_tokens(_UNIT[kind][0]))
        cid = draw(st.sampled_from([kind.value, kind.value.lower()])) + str(i)
        lines.append(f"{cid} {a} {b} {token}")
        ends = tuple("0" if n.upper() == "GND" else n for n in (a, b))
        comps.append(Component(cid, kind, value, ends))
    for c in draw(st.lists(st.sampled_from(comps), unique=True)):
        token, value = draw(_value_tokens(_UNIT[c.kind][1], signed=True))
        lines.append(f"{draw(st.sampled_from(['.ic', '.IC']))} {c.id} {token}")
        ics[c.id] = value
    nodes = dict.fromkeys(t for c in comps for t in c.terminals)
    if "0" in nodes:
        nodes = {"0": None, **nodes}
    return "\n".join(lines) + "\n", Circuit(tuple(nodes), tuple(comps), ics)


@settings(derandomize=True, max_examples=200)
@given(netlist_texts())
def test_prefixed_netlists_parse_and_round_trip(case):
    text, expected = case
    circuit = parse_netlist(text)
    assert circuit == expected
    assert parse_netlist(serialize_netlist(circuit)) == circuit


def test_validate_rejects_overflowing_value():
    circuit = parse_netlist("C1 1 0 1e400\nL1 1 0 1nH")
    assert circuit.components[0].value == float("inf")
    violations = validate_circuit(circuit)
    assert violations == ["component 'C1' has non-finite value inf"]


def test_component_lookup_matches_declaration_scan():
    comps = (
        Component("C1", ComponentKind.CAPACITOR, 1e-12, ("1", "0")),
        Component("L1", ComponentKind.INDUCTOR, 1e-9, ("1", "0")),
        Component("C1", ComponentKind.CAPACITOR, 2e-12, ("1", "0")),
    )
    circuit = Circuit(("0", "1"), comps)
    # a duplicate id (which validation reports) resolves to its first declaration
    assert circuit.component("C1") is comps[0]
    assert circuit.component("L1") is comps[1]
    with pytest.raises(KeyError):
        circuit.component("L2")


@given(circuits())
def test_incident_matches_declaration_scan(circuit):
    for node in circuit.nodes + ("absent",):
        expected = tuple(c for c in circuit.components if node in c.terminals)
        assert circuit.incident(node) == expected


def test_validate_reports_undeclared_nodes_and_unknown_ics_in_order():
    comps = (
        Component("C1", ComponentKind.CAPACITOR, 1e-12, ("1", "0")),
        Component("L1", ComponentKind.INDUCTOR, 1e-9, ("2", "1")),
    )
    circuit = Circuit(("0", "1"), comps, {"L9": 1e-3, "C1": 1.0, "C8": 0.0})
    assert validate_circuit(circuit) == [
        "component 'L1' references undeclared node '2'",
        "initial condition for unknown component 'L9'",
        "initial condition for unknown component 'C8'",
    ]
