import dataclasses
import importlib.util
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fluxq import (
    Circuit,
    ComponentKind,
    GeometricMode,
    GeometricPolicy,
    Representation,
    SingularKineticMatrix,
    cli,
    evolve_modes,
    initial_state,
    observables,
    parse_netlist,
    quantize_circuit,
    reduce_circuit,
    serialize_netlist,
)
from fluxq.cli import _decimal_digits, main

from conftest import attribution_weights, ladder, load

NETLISTS = Path(__file__).resolve().parent.parent / "netlists"
PASSIVE = str(NETLISTS / "passive_lc.cir")
REDUCED = str(NETLISTS / "reduced_lc.cir")
WHEEL = str(NETLISTS / "wheel.cir")
ACTIVE = str(NETLISTS / "active_lc.cir")


def _csv_text(columns, writer=cli):
    """Header plus one row per sample, every value as %.16e, in blocks of
    rows as `fluxq simulate` writes them, by `writer`'s CSV functions."""
    data = [values for _, values in columns]
    step = writer._csv_step(len(data))
    parts = [",".join(name for name, _ in columns) + "\n"]
    for start in range(0, len(data[0]), step):
        block = np.column_stack([d[start : start + step] for d in data])
        parts.append(writer._csv_rows(block))
    return "".join(parts)


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_passive(capsys):
    code, out, _ = run(capsys, "analyze", PASSIVE)
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3
    assert payload["c"] == 4
    assert payload["l"] == 2
    assert payload["passive_nodes"] == ["3"]
    assert payload["loop_deficiency"] == 1
    assert payload["reducible"] is True
    assert payload["quantizable"] == {"node": False, "loop": False}
    assert "C1||C2" in payload["reduction"]


def test_analyze_reduced(capsys):
    code, out, _ = run(capsys, "analyze", REDUCED)
    payload = json.loads(out)
    assert code == 0
    assert payload["quantizable"] == {"node": True, "loop": True}
    assert payload["reduction"] is None


def test_analyze_wheel(capsys):
    code, out, _ = run(capsys, "analyze", WHEEL)
    payload = json.loads(out)
    assert payload["passive_nodes"] == ["4"]
    assert payload["loop_deficiency"] == 1
    assert payload["reducible"] is False


def test_modes_reduced_table(capsys):
    code, out, _ = run(capsys, "modes", REDUCED)
    assert code == 0
    assert "1.03" in out
    assert "phi_2" in out


def test_modes_augmented_json(capsys):
    code, out, _ = run(capsys, "modes", PASSIVE, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    freqs = payload["frequencies_ghz"]
    assert freqs[0] == pytest.approx(1.0273, rel=1e-3)
    assert freqs[1] == pytest.approx(1.948e4, rel=1e-3)
    assert payload["zero_modes"] == 0
    products = payload["ground_state"]["products_over_hbar2"]
    assert all(p >= 1.0 - 1e-12 for p in products)


def test_modes_unquantizable_exit_code(capsys):
    code, _, err = run(capsys, "modes", PASSIVE, "--geometric", "off")
    assert code == 3
    assert "node 3" in err


def test_modes_loop_rep(capsys):
    code, out, _ = run(
        capsys, "modes", PASSIVE, "--rep", "loop", "--lg", "1e-14", "--format", "json"
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["frequencies_ghz"][1] == pytest.approx(1378.3, rel=1e-3)


def test_simulate_csv_columns(capsys):
    code, out, _ = run(capsys, "simulate", PASSIVE, "--samples", "8")
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert header[0] == "t_s"
    for name in ("L3_V", "L4_V", "L3L4_sum_V", "C1C2_sum_A"):
        assert name in header
    assert len(out.splitlines()) == 9


def test_simulate_single_sample_matches_ics(capsys):
    code, out, _ = run(capsys, "simulate", REDUCED, "--samples", "1")
    assert code == 0
    lines = out.splitlines()
    header = lines[0].split(",")
    row = [float(x) for x in lines[1].split(",")]
    data = dict(zip(header, row))
    assert data["t_s"] == 0.0
    assert data["C_V"] == pytest.approx(2e-3, rel=1e-9)
    assert data["L_A"] == pytest.approx(0.0, abs=1e-15)


def test_simulate_respects_netlist_ics(tmp_path, capsys):
    netlist = tmp_path / "tank.cir"
    netlist.write_text("C 2 0 6pF\nL 2 0 4nH\n.ic C 5mV\n.ic L 0A\n")
    code, out, _ = run(capsys, "simulate", str(netlist), "--samples", "1")
    assert code == 0
    lines = out.splitlines()
    data = dict(zip(lines[0].split(","), [float(x) for x in lines[1].split(",")]))
    assert data["C_V"] == pytest.approx(5e-3, rel=1e-9)


def test_simulate_deterministic_output(capsys):
    _, first, _ = run(capsys, "simulate", PASSIVE, "--samples", "64")
    _, second, _ = run(capsys, "simulate", PASSIVE, "--samples", "64")
    assert first == second


def test_simulate_17_significant_digits(capsys):
    _, out, _ = run(capsys, "simulate", REDUCED, "--samples", "2")
    cell = out.splitlines()[2].split(",")[1]
    mantissa = cell.split("e")[0]
    digits = mantissa.replace("-", "").replace(".", "")
    assert len(digits) == 17


def test_csv_text_matches_per_value_formatting():
    values = np.array([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324, 1.0 / 3.0])
    rng = np.random.default_rng(5)
    columns = [("t_s", values)] + [
        (f"c{i}_V", rng.permutation(values) * rng.choice([1.0, -1.0], values.size))
        for i in range(4)
    ]
    rows = [",".join(name for name, _ in columns)]
    for i in range(values.size):
        rows.append(",".join(f"{data[i]:.16e}" for _, data in columns))
    expected = "\n".join(rows) + "\n"
    assert _csv_text(columns) == expected
    assert "-0.0000000000000000e+00" in expected


def test_parse_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cir"
    bad.write_text("C1 2 0 -2pF\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 1
    assert "line 1" in err


def test_validation_failure_exit_code(tmp_path, capsys):
    disconnected = tmp_path / "disc.cir"
    disconnected.write_text("C1 1 0 1pF\nL1 1 0 1nH\nC2 5 6 1pF\nL2 5 6 1nH\n")
    code, _, err = run(capsys, "analyze", str(disconnected))
    assert code == 2
    assert "not connected" in err


def test_reduce_outputs_netlist(capsys):
    code, out, _ = run(capsys, "reduce", PASSIVE)
    assert code == 0
    assert "C1||C2 2 0 6e-12F" in out
    assert "L3+L4 2 0 4e-09H" in out


def test_reduce_text_carries_the_merged_ics(tmp_path, capsys):
    netlist = tmp_path / "ics.cir"
    netlist.write_text(
        "C1 2 0 2pF\nC2 2 0 4pF\nL3 2 3 1nH\nL4 3 0 3nH\n"
        ".ic C1 2mV\n.ic C2 2mV\n.ic L3 1uA\n.ic L4 1uA\n"
    )
    code, out, _ = run(capsys, "reduce", str(netlist))
    assert code == 0
    assert out.splitlines()[2:] == [".ic C1||C2 0.002V", ".ic L3+L4 1e-06A"]
    assert parse_netlist(out) == reduce_circuit(parse_netlist(netlist.read_text()))
    # the JSON carries them in its netlist text, not in its component list
    code, out, _ = run(capsys, "reduce", str(netlist), "--format", "json")
    payload = json.loads(out)
    assert payload["netlist"].splitlines()[2:] == [".ic C1||C2 0.002V", ".ic L3+L4 1e-06A"]
    assert all(set(c) == {"id", "kind", "value", "terminals"} for c in payload["components"])


def test_reduce_json(capsys):
    code, out, _ = run(capsys, "reduce", PASSIVE, "--format", "json")
    payload = json.loads(out)
    assert code == 0
    ids = [c["id"] for c in payload["components"]]
    assert ids == ["C1||C2", "L3+L4"]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["analyze", PASSIVE, "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["n"] == 3


def test_simulate_out_file_matches_stdout(tmp_path, capsys):
    # the CSV goes out block by block; 5000 samples make several blocks
    args = ["simulate", PASSIVE, "--samples", "5000"]
    code, out, _ = run(capsys, *args)
    assert code == 0 and out.count("\n") == 5001
    target = tmp_path / "waves.csv"
    assert main([*args, "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == out


@pytest.mark.parametrize("target", ["missing", "directory"])
@pytest.mark.parametrize("command", ["analyze", "modes", "simulate", "reduce"])
def test_unwritable_out_exits_2(command, target, tmp_path, capsys):
    out = tmp_path / "absent" / "x.out" if target == "missing" else tmp_path
    code, stdout, stderr = run(capsys, command, REDUCED, "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("invalid option: cannot write --out: ")
    assert stderr.count("\n") == 1 and stderr.endswith("\n")


def test_modes_agree_with_reduction(capsys):
    """Shared low modes of a circuit and its reduction agree within 1%."""
    _, out_full, _ = run(capsys, "modes", PASSIVE, "--format", "json")
    _, out_red, _ = run(capsys, "modes", REDUCED, "--format", "json")
    full = json.loads(out_full)["frequencies_ghz"]
    red = json.loads(out_red)["frequencies_ghz"]
    for f in red:
        assert min(abs(g - f) / f for g in full) < 0.01


def test_extended_rep_simulation(capsys):
    code, out, _ = run(
        capsys,
        "simulate",
        PASSIVE,
        "--rep",
        "extended",
        "--geometric",
        "allpairs",
        "--samples",
        "4",
    )
    assert code == 0
    assert len(out.splitlines()) == 5


def test_parser_defaults():
    from fluxq.cli import build_parser

    args = build_parser().parse_args(["simulate", "x.cir"])
    assert args.rep == "node"
    assert args.geometric == "minimal"
    assert args.cg == pytest.approx(8.9e-20)
    assert args.lg == pytest.approx(1e-15)
    assert args.tmax == pytest.approx(4e-9)
    assert args.samples == 2000


@pytest.mark.parametrize(
    "args, dim",
    [
        (("--cg", "1e-27"), 2),
        (("--rep", "loop", "--lg", "1e-30"), 2),
        (("--rep", "extended", "--cg", "1e-27", "--lg", "1e-30"), 3),
    ],
)
def test_modes_extreme_parasitic_ratio(capsys, args, dim):
    # Cg/C ~ 1e-15 and Lg/L ~ 1e-21: the diagnosis cross-check must not
    # mistake the tiny parasitic for a null direction of M
    code, out, err = run(capsys, "modes", PASSIVE, "--format", "json", *args)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["zero_modes"] == 0
    freqs = np.array(payload["frequencies_ghz"])
    assert freqs.shape == (dim,)
    assert np.all(np.isfinite(freqs)) and np.all(freqs > 0.0)
    # the low mode is the reduced 6 pF / 4 nH tank
    assert freqs[0] == pytest.approx(1.0273407, rel=1e-6)


def test_modes_rank_cross_check_failure_exit_code(capsys):
    # Cg = 1e300: the kinetic rows have full rank, the numeric M does not
    code, out, err = run(capsys, "modes", PASSIVE, "--cg", "1e300")
    assert code == 3
    assert out == ""
    assert err == (
        "not quantizable under this configuration: kinetic matrix rank "
        "unconfirmed: structural null space dimension 0 disagrees with "
        "numeric estimate 1\n"
    )


OVERFLOW_LINE = (
    "not quantizable under this configuration: reduced stiffness matrix "
    "F^-1 K F^-T overflows float64 (M and K span too wide a range of scales)\n"
)


def test_modes_reduced_matrix_overflow_lg_exit_code(capsys):
    # Lg = 1e-300 in the loop representation: F^-1 K F^-T overflows
    code, out, err = run(capsys, "modes", PASSIVE, "--rep", "loop", "--lg", "1e-300")
    assert (code, out, err) == (3, "", OVERFLOW_LINE)


def test_modes_reduced_matrix_overflow_tiny_capacitors_exit_code(tmp_path, capsys):
    # passive_lc.cir with every capacitor at 1e-300 F: finite, positive and
    # valid, but the loop representation's 1/C overflows the reduced matrix
    netlist = tmp_path / "tiny_c.cir"
    netlist.write_text("C1 2 0 1e-300\nC2 2 0 1e-300\nL3 2 3 1nH\nL4 3 0 3nH\n")
    code, out, err = run(capsys, "modes", str(netlist), "--rep", "loop")
    assert (code, out, err) == (3, "", OVERFLOW_LINE)


@pytest.mark.parametrize(
    "args",
    [
        ("--rep", "extended", "--cg", "1e-320"),
        ("--rep", "extended", "--lg", "1e-320"),
        ("--rep", "extended", "--geometric", "allpairs", "--lg", "1e-300"),
        ("--rep", "node", "--cg", "5e-324"),
        ("--rep", "loop", "--lg", "5e-324"),
    ],
)
def test_modes_subnormal_parasitic_overflow_exit_code(capsys, args):
    # a subnormal (or 1e-300) Cg or Lg that enters M or K overflows the
    # reduced matrix, or M^-1 and K themselves: one line, no traceback
    code, out, err = run(capsys, "modes", PASSIVE, *args)
    assert (code, out, err) == (3, "", OVERFLOW_LINE)


def test_modes_kinetic_matrix_overflow_exit_code(capsys):
    # two geometric capacitors of 1.7e308 F at node 3 sum past the largest double
    code, out, err = run(capsys, "modes", PASSIVE, "--geometric", "allpairs", "--cg", "1.7e308")
    assert (code, out) == (3, "")
    assert err == (
        "not quantizable under this configuration: kinetic matrix M overflows "
        "float64 (its capacitances or inductances sum past the largest double)\n"
    )


def test_modes_floating_point_overflow_exit_code(capsys):
    # M stays finite at 6e307 F, but products in the mode attribution overflow
    code, out, err = run(capsys, "modes", ACTIVE, "--geometric", "allpairs", "--cg", "6e307")
    assert (code, out) == (3, "")
    assert err.startswith("not quantizable under this configuration: kinetic matrix")
    assert err.count("\n") == 1


@pytest.mark.parametrize("netlist", [REDUCED, ACTIVE], ids=lambda p: Path(p).stem)
def test_modes_extended_allpairs_with_inductive_chord(capsys, netlist):
    # loop 1's chord is an inductor beside a capacitor, and the geometric
    # capacitor across them copies the capacitor's flux: no capacitor sees
    # Phi_1, so loop 1 keeps no flux coordinate
    args = (netlist, "--geometric", "allpairs", "--format", "json")
    code, out, err = run(capsys, "modes", *args, "--rep", "extended")
    assert (code, err) == (0, "")
    extended = json.loads(out)
    code, out, _ = run(capsys, "modes", *args, "--rep", "node")
    node = json.loads(out)
    assert "Phi_1" not in extended["labels"]
    assert extended["labels"][: len(node["labels"])] == node["labels"]
    # the node modes, moved by no more than the loop self-inductance Lg/L
    low = extended["frequencies_ghz"][: len(node["labels"])]
    assert low == pytest.approx(node["frequencies_ghz"], rel=1e-6)


def test_nonfinite_value_exit_code(tmp_path, capsys):
    netlist = tmp_path / "huge.cir"
    netlist.write_text("C1 1 0 1e400\nL1 1 0 1nH\n")
    code, _, err = run(capsys, "modes", str(netlist))
    assert code == 2
    assert "non-finite value" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "args, flag",
    [
        (("modes", PASSIVE, "--cg", "0"), "--cg"),
        (("modes", PASSIVE, "--rep", "loop", "--lg", "0"), "--lg"),
        (("simulate", PASSIVE, "--samples", "0"), "--samples"),
    ],
)
def test_invalid_option_exit_code(capsys, args, flag):
    code, out, err = run(capsys, *args)
    assert code == 2
    assert out == ""
    assert err.startswith(f"invalid option: {flag} ")
    assert err.count("\n") == 1


def test_missing_netlist_exit_code(tmp_path, capsys):
    code, _, err = run(capsys, "modes", str(tmp_path / "missing.cir"))
    assert code == 1
    assert err.startswith("cannot read netlist: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "subcommand, fmt",
    [("simulate", "table"), ("simulate", "text"), ("analyze", "csv"), ("analyze", "table")],
)
def test_format_not_written_by_subcommand_exits_2(capsys, subcommand, fmt):
    with pytest.raises(SystemExit) as exc:
        main([subcommand, PASSIVE, "--format", fmt])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_parser_default_formats():
    from fluxq.cli import build_parser

    parser = build_parser()
    defaults = {
        name: parser.parse_args([name, "x.cir"]).format
        for name in ("analyze", "modes", "simulate", "reduce")
    }
    assert defaults == {
        "analyze": "json",
        "modes": "table",
        "simulate": "csv",
        "reduce": "text",
    }


def _per_value_csv(columns):
    rows = [",".join(name for name, _ in columns)]
    for i in range(len(columns[0][1])):
        rows.append(",".join("%.16e" % float(data[i]) for _, data in columns))
    return "\n".join(rows) + "\n"


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(_ANY_FLOAT, min_size=n, max_size=n), min_size=1, max_size=30)
    )
)
def test_csv_text_property_matches_per_value_formatting(rows):
    table = np.array(rows, dtype=np.float64)
    columns = [(f"c{j}", table[:, j]) for j in range(table.shape[1])]
    assert _csv_text(columns) == _per_value_csv(columns)


def _adversarial_values(rng):
    powers = np.array([float(f"1e{k}") for k in range(-320, 309)])
    halfway = (rng.integers(0, 2**52, 4000) + 0.5) * 2.0 ** rng.integers(-60, 60, 4000)
    ties = (rng.integers(10**15, 2**52, 4000) + 0.5) / 2.0  # 18 digits ending in 5
    return np.concatenate(
        [
            rng.integers(0, 2**64, 60000, dtype=np.uint64).view(np.float64),
            powers,
            np.nextafter(powers, 0.0),
            np.nextafter(powers, np.inf),
            -powers,
            halfway,
            ties,
            rng.integers(10**16, 10**18, 4000).astype(np.float64),
            [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308],
        ]
    )


def test_csv_text_adversarial_values_match_per_value_formatting():
    values = _adversarial_values(np.random.default_rng(11))
    values = values[: values.size // 6 * 6]
    table = values.reshape(-1, 6)  # several blocks of rows
    columns = [(f"c{j}", table[:, j]) for j in range(6)]
    assert _csv_text(columns) == _per_value_csv(columns)
    _digits, _exp, exact = _decimal_digits(values)
    assert exact.any()
    assert not exact.all()


@pytest.mark.parametrize("toward", [0.0, np.inf])
def test_decimal_digits_near_powers_of_ten(toward):
    # log10 rounds across the power of ten for many of these, so the
    # exponent must be corrected in either direction, not left to Python
    values = np.nextafter(np.array([float(f"1e{k}") for k in range(-320, 309)]), toward)
    digits, exp10, exact = _decimal_digits(values)
    decided = [
        f"{d // 10**16}.{d % 10**16:016d}e{e:+03d}"
        for d, e in zip(digits[~exact].tolist(), exp10[~exact].tolist())
    ]
    assert decided == ["%.16e" % v for v in values[~exact].tolist()]
    assert exact.mean() < 0.1


@given(
    st.lists(
        st.one_of(st.integers(0, 2**64 - 1), st.integers(0, 2**52 - 1)),  # any, subnormal
        min_size=1,
        max_size=64,
    )
)
def test_decimal_digits_property_over_bit_patterns(bits):
    # wherever the digits are decided they are Python's %.16e of |x|
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    digits, exp10, exact = _decimal_digits(values)
    decided = [
        f"{d // 10**16}.{d % 10**16:016d}e{e:+03d}"
        for d, e in zip(digits[~exact].tolist(), exp10[~exact].tolist())
    ]
    assert decided == ["%.16e" % v for v in np.abs(values[~exact]).tolist()]


def test_scaled_fraction_is_within_its_error_bound():
    # the writer's comment bounds the error of y = |x|·10**(16 - e) at
    # 2**-47, far inside the 2**-40 margin around one half
    rng = np.random.default_rng(17)
    values = rng.integers(0, 2**64, 4000, dtype=np.uint64).view(np.float64)
    subnormal = rng.integers(1, 2**52, 1000, dtype=np.uint64).view(np.float64)
    values = np.abs(np.concatenate([values, subnormal]))
    values = values[np.isfinite(values) & (values > 0.0)]
    exp10 = np.array([int(("%.40e" % v).split("e")[1]) for v in values.tolist()])
    whole, frac = cli._scaled(values, exp10)
    for v, e, w, f in zip(values.tolist(), exp10.tolist(), whole.tolist(), frac.tolist()):
        y = Fraction(v) * Fraction(10) ** (16 - e)
        assert 10**16 <= y < 10**17
        assert abs(w + Fraction(f) - y) < Fraction(2) ** -47
    assert cli._HALF_MARGIN >= 2.0**-47


def test_csv_text_with_double_precision_scaling(monkeypatch):
    # the digits come from float64 arithmetic alone: where long double is
    # plain double they are the same, and so is the text
    values = _adversarial_values(np.random.default_rng(12))[-20000:]
    reference = _decimal_digits(values)
    monkeypatch.setattr(np, "longdouble", np.float64)
    for got, want in zip(_decimal_digits(values), reference):
        np.testing.assert_array_equal(got, want)
    columns = [("a", values[:10000]), ("b", values[10000:])]
    assert _csv_text(columns) == _per_value_csv(columns)


def test_power_of_ten_table_is_correctly_rounded():
    exps = range(cli._EXP_MIN, cli._EXP_MAX + 1)
    for e, s, hi, lo in zip(exps, cli._TWOS.tolist(), cli._HI.tolist(), cli._LO.tolist()):
        exact = Fraction(10) ** (16 - e)
        entry = Fraction(2) ** s * (Fraction(hi) + Fraction(lo))
        assert abs(entry - exact) <= Fraction(2) ** -105 * exact
        assert 1.0 <= hi <= 2.0


@pytest.mark.parametrize(
    "args",
    [
        (PASSIVE,),
        (PASSIVE, "--rep", "loop"),
        (PASSIVE, "--rep", "extended", "--geometric", "allpairs"),
        (ACTIVE,),
    ],
)
def test_simulate_csv_matches_json_values(capsys, args):
    # JSON floats round-trip exactly, so this reference does not depend on
    # the CSV writer
    code, csv_out, _ = run(capsys, "simulate", *args, "--samples", "300")
    assert code == 0
    code, json_out, _ = run(capsys, "simulate", *args, "--samples", "300", "--format", "json")
    assert code == 0
    columns = [(name, np.array(values)) for name, values in json.loads(json_out).items()]
    assert csv_out == _per_value_csv(columns)


@pytest.mark.parametrize("tmax", ["nan", "inf", "-1", "0"])
def test_simulate_tmax_must_be_positive_and_finite(capsys, tmax):
    code, out, err = run(capsys, "simulate", PASSIVE, "--tmax", tmax)
    assert code == 2
    assert out == ""
    assert err.startswith("invalid option: --tmax ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("tmax", ["1e300", "1.7e308"])
def test_simulate_tmax_overflowing_the_phase_exit_code(capsys, tmax):
    # omega*t of the ~1.2e14 rad/s geometric mode overflows float64
    code, out, err = run(capsys, "simulate", PASSIVE, "--tmax", tmax)
    assert (code, out) == (2, "")
    assert err.startswith("invalid option: --tmax overflows the phase omega*t ")
    assert err.count("\n") == 1


def test_simulate_huge_finite_phase_writes_finite_values(capsys):
    code, out, _ = run(
        capsys, "simulate", PASSIVE, "--tmax", "1e20", "--samples", "64", "--format", "json"
    )
    assert code == 0
    assert all(np.isfinite(values).all() for values in json.loads(out).values())


def _simulate_columns_from_dict(args):
    """The columns of `fluxq simulate` assembled one component at a time
    from the `observables` dict, as the writer once did."""
    netlist, rep, geometric = args
    config = cli.RunConfig(
        "simulate",
        Path(netlist),
        rep=cli.Representation(rep),
        geometric=cli.GeometricMode(geometric),
        samples=64,
    )
    circuit = cli._load_circuit(config)
    q = quantize_circuit(circuit, config.rep, cli._policy(config))
    lag, obs_circuit = q.lagrangian, q.observed
    x0, p0 = initial_state(obs_circuit, lag, cli._default_ics(circuit))
    times = np.linspace(0.0, config.tmax, config.samples)
    traj = evolve_modes(q.hamiltonian, q.modes, x0, p0, times, lagrangian=lag)
    series = observables(obs_circuit, lag, traj)
    columns = [("t_s", times)]
    for c in circuit.components:
        columns += [(f"{c.id}_V", series[c.id].voltage), (f"{c.id}_A", series[c.id].current)]
    for kind, quantity, suffix in (
        (ComponentKind.INDUCTOR, "voltage", "_sum_V"),
        (ComponentKind.CAPACITOR, "current", "_sum_A"),
    ):
        ids = [c.id for c in circuit.components if c.kind is kind]
        if len(ids) > 1:
            total = np.sum([getattr(series[cid], quantity) for cid in ids], axis=0)
            columns.append(("".join(ids) + suffix, total))
    return columns


@pytest.mark.parametrize("netlist", [PASSIVE, REDUCED, WHEEL, ACTIVE], ids=lambda p: Path(p).stem)
@pytest.mark.parametrize("rep", ["node", "loop", "extended"])
@pytest.mark.parametrize("geometric", ["off", "minimal", "allpairs"])
def test_simulate_output_matches_per_component_columns(capsys, netlist, rep, geometric):
    args = (netlist, "--rep", rep, "--geometric", geometric, "--samples", "64")
    code, csv_out, csv_err = run(capsys, "simulate", *args)
    json_code, json_out, json_err = run(capsys, "simulate", *args, "--format", "json")
    assert (json_code, json_err) == (code, csv_err)
    if code != 0:
        assert csv_out == json_out == ""
        return
    columns = _simulate_columns_from_dict((netlist, rep, geometric))
    assert csv_out == _per_value_csv(columns)
    assert json_out == json.dumps({name: data.tolist() for name, data in columns}) + "\n"


@pytest.mark.parametrize("position", ["first", "middle", "last"])
def test_csv_text_negative_three_digit_exponent_is_spliced(position):
    # "-1.2345678901234567e-123" is one byte longer than a slot holds
    long_values = np.array(
        [-1.2345678901234567e-123, -9.87e250, -5e-324, -1.7976931348623157e308]
    )
    table = np.array([[1.5, -2.25e-7, 3.0e12]] * long_values.size)
    column = {"first": 0, "middle": 1, "last": 2}[position]
    table[:, column] = long_values
    table[1, (column + 1) % 3] = -1e-100  # a second spliced value in the row
    columns = [(f"c{j}", table[:, j]) for j in range(3)]
    assert _csv_text(columns) == _per_value_csv(columns)


def test_csv_text_all_fallback_block():
    # zeros, non-finite values and three-digit exponents all go to Python
    values = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e100, -1e-100, 1e-300, 2.5e-310, -0.0])
    columns = [(f"c{j}", np.roll(values, j)) for j in range(4)]
    _digits, exp10, exact = _decimal_digits(values)
    assert (exact | (np.abs(exp10) > 99)).all()
    assert _csv_text(columns) == _per_value_csv(columns)


@pytest.mark.parametrize("last", [np.nan, np.inf, -np.inf, -0.0, 0.0])
def test_csv_text_special_value_in_last_column(last):
    table = np.array(
        [[1.0, -2.0, last], [-0.0, 3.5e-5, last], [7.0e99, -9.999999999999999e99, last]]
    )
    columns = [(f"c{j}", table[:, j]) for j in range(3)]
    text = _csv_text(columns)
    assert text == _per_value_csv(columns)
    assert text.endswith(("%.16e" % last) + "\n")


def test_csv_text_exponent_carries_to_three_digits():
    # rounding to 17 digits carries 9.99…e99 to 1.0e+100, one byte longer
    values = np.array(
        [9.9999999999999999e99, -9.9999999999999999e99, 9.99999999999999999e-101, -9.999999999999999e98]
    )
    values = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])
    columns = [("a", values), ("b", -values[::-1])]
    assert _csv_text(columns) == _per_value_csv(columns)


def test_csv_text_values_next_to_decimal_half_points():
    # the nearest doubles to 18-digit decimals ending in 5 put the scaled
    # fraction within a few long-double roundings of one half, so a margin
    # below the rounding bound prints wrong digits for some of them
    rng = np.random.default_rng(21)
    mantissas = rng.integers(10**16, 10**17, 20000).tolist()
    exponents = rng.integers(-300, 290, 20000).tolist()
    near = np.array([float(f"{m}5e{e}") for m, e in zip(mantissas, exponents)])
    values = np.concatenate([near, -np.nextafter(near, 0.0), np.nextafter(near, np.inf)])
    columns = [(f"c{j}", part) for j, part in enumerate(values.reshape(4, -1))]
    assert _csv_text(columns) == _per_value_csv(columns)


def test_cli_module_where_long_double_is_plain_double(monkeypatch):
    # load a second copy of the module as if np.longdouble were float64:
    # the import-time tables must build and give the same digits
    spec = importlib.util.spec_from_file_location("fluxq._cli_double", cli.__file__)
    double_cli = importlib.util.module_from_spec(spec)
    with monkeypatch.context() as patch:
        patch.setattr(np, "longdouble", np.float64)
        patch.setitem(sys.modules, spec.name, double_cli)  # for its dataclasses
        spec.loader.exec_module(double_cli)
    values = _adversarial_values(np.random.default_rng(13))[-20000:]
    for got, want in zip(double_cli._decimal_digits(values), _decimal_digits(values)):
        np.testing.assert_array_equal(got, want)
    columns = [("a", values[:10000]), ("b", values[10000:])]
    assert _csv_text(columns, double_cli) == _per_value_csv(columns)


def test_cli_runs_without_scipy_optimize(tmp_path):
    # a fresh interpreter: no run loads scipy.optimize (~0.25 s of start-up),
    # not even modes on a ladder whose per-mode argmax picks repeat a
    # coordinate, which makes mode_attribution solve the assignment
    ladder16 = tmp_path / "ladder16.cir"
    ladder16.write_text(serialize_netlist(ladder(16, np.random.default_rng(7))))
    q = quantize_circuit(
        parse_netlist(ladder16.read_text()), Representation.NODE_FLUX, GeometricPolicy()
    )
    picks = attribution_weights(q.modes, q.hamiltonian).argmax(axis=0).tolist()
    assert len(set(picks)) < len(picks)
    src = str(Path(cli.__file__).resolve().parent.parent)
    runs = [["simulate", PASSIVE], ["analyze", PASSIVE], ["reduce", PASSIVE]]
    runs += [
        ["modes", netlist] for netlist in (PASSIVE, REDUCED, WHEEL, ACTIVE, str(ladder16))
    ]
    script = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "from fluxq.cli import main\n"
        f"for argv in {runs!r}:\n"
        f"    assert main(argv + ['--out', {str(tmp_path / 'out')!r}]) == 0, argv\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    assert proc.stdout == "False\n"


def test_modes_zero_mode_warning_is_one_stable_line(tmp_path, capsys):
    # an inductor-only loop is a zero mode in the loop representation; the
    # warning must read the same on every call in one process
    netlist = tmp_path / "inductor_loop.cir"
    netlist.write_text("C1 1 0 1pF\nL1 1 0 1nH\nL2 1 0 2nH\n")
    line = "warning: 1 zero mode(s); ground state restricted to the oscillating subspace\n"
    for _ in range(2):
        code, _, err = run(capsys, "modes", str(netlist), "--rep", "loop")
        assert code == 0
        assert err == line


# the whole payload of a circuit without a coordinate
NO_COORDINATE_JSON = """{
  "representation": "loop",
  "labels": [],
  "frequencies_ghz": [],
  "attribution": {},
  "zero_modes": 0,
  "ground_state": {
    "delta_x": [],
    "delta_p": [],
    "products_over_hbar2": []
  }
}
"""


def _child_cli(*argv):
    """(exit code, stdout, stderr) of the CLI run in a child process."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    script = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "from fluxq.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("source", ["L1 1 0 1n\n", "C1 1 0 1p\nC2 1 2 1p\n"])
def test_modes_without_loops_in_the_loop_representation(tmp_path, source):
    # a netlist without loops has a 0 x 0 loop system; LAPACK writes its
    # complaints to the process's stdout, so the CLI runs in a child process
    netlist = tmp_path / "no_loops.cir"
    netlist.write_text(source)
    argv = ["modes", str(netlist), "--rep", "loop", "--format", "json"]
    assert _child_cli(*argv) == (0, NO_COORDINATE_JSON, "")


@pytest.mark.parametrize(
    "source",
    [
        "C1 1 0 1p\nC2 2 1 1p\n",  # no loop at all
        "C1 1 0 1p\nC2 2 1 1p\nL1 2 1 1n\n",  # C1 on no loop
    ],
)
def test_simulate_loop_charge_on_a_capacitor_without_a_loop_is_inconsistent(
    tmp_path, source
):
    # no loop charge passes a capacitor that lies on no loop, so its
    # default 2 mV cannot be met; a declared 0 V can
    netlist = tmp_path / "bridge.cir"
    netlist.write_text(source)
    argv = ["simulate", str(netlist), "--rep", "loop", "--samples", "2"]
    code, out, err = _child_cli(*argv)
    assert (code, out) == (4, "")
    assert err.startswith("coordinate initial conditions are inconsistent")
    netlist.write_text(source + ".ic C1 0V\n.ic C2 0V\n")
    code, out, err = _child_cli(*argv)
    assert (code, err) == (0, "")
    header, *rows = out.splitlines()
    c1 = header.split(",").index("C1_V")
    assert [float(row.split(",")[c1]) for row in rows] == [0.0, 0.0]


# inductances 2e12 apart: a plain singular-value threshold on B diag(L) B^T
# reads two deficient loop directions where there are none
STIFF_LOOPS = "C1 1 0 1p\nL1 1 0 1n\nL2 1 2 2000\nC2 2 0 1p\nL3 2 0 1n\n"


@pytest.mark.parametrize(
    "args",
    [
        ("modes", "--rep", "node"),
        ("modes", "--rep", "loop"),
        ("modes", "--rep", "extended"),
        ("simulate", "--samples", "8"),
        ("analyze",),
    ],
)
def test_stiff_loop_inductances_confirm_the_loop_deficiency(tmp_path, capsys, args):
    netlist = tmp_path / "stiff_loops.cir"
    netlist.write_text(STIFF_LOOPS)
    code, out, err = run(capsys, args[0], str(netlist), *args[1:])
    assert code == 0, err
    assert out
    assert "Traceback" not in err


def test_unconfirmed_loop_deficiency_exit_code(tmp_path, capsys):
    # the wheel with values spread over 230 orders of magnitude: the
    # equilibrated loop inductance form cannot confirm the one capacitor cycle
    netlist = tmp_path / "wheel_extreme.cir"
    netlist.write_text(
        "La 0 4 8.08e217\nLb 2 4 2.48e-10\nLc 3 4 3.23e-15\n"
        "Ca 0 2 2.37e102\nCb 2 3 1.19e-4\nCc 3 0 890.8\n"
    )
    code, out, err = run(capsys, "modes", str(netlist))
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(
        "not quantizable under this configuration: loop inductance form rank "
        "unconfirmed: "
    )


_JSON_TEXT = st.text(st.characters(exclude_categories=()), max_size=8)  # surrogates too
_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | _ANY_FLOAT | st.sampled_from([-0.0]) | _JSON_TEXT
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(_JSON_TEXT, children, max_size=5),
    max_leaves=30,
)


@given(_JSON_VALUES)
@example([])
@example({})
@example({"a": [[], {}, [1.0, {"b": [float("nan"), -0.0, float("inf"), -float("inf")]}]]})
@example([[["é \x00\x1f\"\\", "\ud800"]], (1, (2.5, None)), {"x": {"y": {"z": True}}}])
def test_indented_json_matches_the_pure_python_encoder(value):
    assert cli._indented_json(value) == json.dumps(value, indent=2)


def _scaled_by_four(circuit: Circuit) -> Circuit:
    """Every capacitance times 4 and every inductance over 4."""
    return Circuit(
        circuit.nodes,
        tuple(
            dataclasses.replace(
                c, value=c.value * 4 if c.kind is ComponentKind.CAPACITOR else c.value / 4
            )
            for c in circuit.components
        ),
        dict(circuit.ics),
    )


@pytest.mark.parametrize("mode", list(GeometricMode), ids=lambda m: m.value)
@pytest.mark.parametrize("rep", list(Representation), ids=lambda r: r.value)
@pytest.mark.parametrize("name", ["passive_lc", "reduced_lc", "wheel", "active_lc"])
def test_mode_payload_scales_exactly_with_powers_of_two(name, rep, mode):
    """Capacitances and Cg times 4, inductances and Lg over 4: every stage
    scales by a power of two, which rounds exactly, so the frequencies and
    products keep their bits while the spreads move by exactly 2 and 1/2."""
    circuit = load(f"{name}.cir")
    config = cli.RunConfig("modes", Path(name), rep, mode)
    scaled_config = dataclasses.replace(config, cg=config.cg * 4, lg=config.lg / 4)
    try:
        payload = cli._mode_payload(config, circuit)
    except SingularKineticMatrix:  # unquantizable: the scaled circuit is too
        with pytest.raises(SingularKineticMatrix):
            cli._mode_payload(scaled_config, _scaled_by_four(circuit))
        return
    scaled = cli._mode_payload(scaled_config, _scaled_by_four(circuit))
    assert scaled["frequencies_ghz"] == payload["frequencies_ghz"]
    assert scaled["attribution"] == payload["attribution"]
    before, after = payload["ground_state"], scaled["ground_state"]
    assert after["products_over_hbar2"] == before["products_over_hbar2"]
    # the coordinate is a flux (C times 4: x halves) or a charge (L over 4)
    x_factor = 2.0 if rep is Representation.LOOP_CHARGE else 0.5
    assert after["delta_x"] == [x_factor * v for v in before["delta_x"]]
    assert after["delta_p"] == [v / x_factor for v in before["delta_p"]]
