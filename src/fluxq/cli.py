"""Command-line entry point: analyze / modes / simulate / reduce.

Each subcommand accepts only the output formats it writes, the first being
its default; argparse rejects any other with exit 2:

analyze   json
modes     table, json
simulate  csv, json  (CSV values are written as %.16e)
reduce    text, json

Exit codes, each with a message on stderr and no traceback:

0  ok
1  the netlist cannot be read or parsed
2  invalid circuit (validation failure) or invalid option value: --cg or
   --lg not positive and finite while augmenting, --samples below 1,
   --tmax not positive and finite
3  unquantizable under the requested configuration
4  inconsistent initial conditions
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .lagrangian import (
    GeometricMode,
    GeometricPolicy,
    Representation,
    loop_lagrangian,
    node_lagrangian,
)
from .netlist import (
    Circuit,
    ComponentKind,
    NetlistError,
    parse_netlist,
    serialize_netlist,
    validate_circuit,
)
from .pipeline import quantize_circuit
from .quantize import (
    SingularKineticMatrix,
    diagnose_quantizability,
    ground_state,
    mode_attribution,
)
from .simulate import (
    InconsistentInitialConditions,
    _series,
    evolve_modes,
    initial_state,
)
from .topology import reduce_circuit, topology_report

DEFAULT_IC_VOLTS = 2e-3
DEFAULT_IC_AMPS = 0.0


@dataclass
class RunConfig:
    subcommand: str
    netlist: Path
    rep: Representation = Representation.NODE_FLUX
    geometric: GeometricMode = GeometricMode.MINIMAL
    cg: float = 8.9e-20
    lg: float = 1e-15
    tmax: float = 4e-9
    samples: int = 2000
    out: Path | None = None
    format: str = "json"


class _CliError(Exception):
    """A documented failure with its exit code and a one-line message."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _policy(config: RunConfig) -> GeometricPolicy:
    if config.geometric is not GeometricMode.OFF:
        for flag, value in (("--cg", config.cg), ("--lg", config.lg)):
            if not (value > 0.0 and math.isfinite(value)):
                raise _CliError(
                    2,
                    f"invalid option: {flag} must be positive and finite when "
                    f"augmenting, got {value!r}",
                )
    return GeometricPolicy(
        cap_mode=config.geometric, default_cg=config.cg, default_lg=config.lg
    )


def _load_circuit(config: RunConfig) -> Circuit:
    try:
        text = config.netlist.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(1, f"cannot read netlist: {exc}") from exc
    circuit = parse_netlist(text)
    violations = validate_circuit(circuit)
    if violations:
        raise _ValidationFailure(violations)
    return circuit


class _ValidationFailure(Exception):
    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


@contextmanager
def _output(config: RunConfig):
    """The text stream for --out, or else stdout."""
    if config.out is None:
        yield sys.stdout
    else:
        with config.out.open("w") as out:
            yield out


def _emit(config: RunConfig, text: str) -> None:
    with _output(config) as out:
        out.write(text)


def cmd_analyze(config: RunConfig) -> int:
    circuit = _load_circuit(config)
    report = topology_report(circuit)
    quantizable = {
        "node": diagnose_quantizability(node_lagrangian(circuit)).quantizable,
        "loop": diagnose_quantizability(
            loop_lagrangian(circuit, report.loops)
        ).quantizable,
    }
    payload = report.to_json_dict()
    payload["quantizable"] = quantizable
    payload["reduction"] = (
        serialize_netlist(reduce_circuit(circuit)) if report.reducible else None
    )
    _emit(config, json.dumps(payload, indent=2) + "\n")
    return 0


def _mode_payload(config: RunConfig, circuit: Circuit) -> dict:
    q = quantize_circuit(circuit, config.rep, _policy(config))
    lag, h, modes = q.lagrangian, q.hamiltonian, q.modes
    state = ground_state(modes, h)
    dim = lag.dim
    dx = np.sqrt(np.diag(state.cov)[:dim])
    dp = np.sqrt(np.diag(state.cov)[dim:])
    freqs_ghz = (modes.omegas / (2.0 * np.pi) / 1e9).tolist()
    attribution = {
        label: omega / (2.0 * np.pi) / 1e9
        for label, omega in mode_attribution(modes, h).items()
    }
    return {
        "representation": lag.representation.value,
        "labels": list(lag.labels),
        "frequencies_ghz": freqs_ghz,
        "attribution": attribution,
        "zero_modes": modes.zero_mode_count,
        "ground_state": {
            "delta_x": dx.tolist(),
            "delta_p": dp.tolist(),
            "products_over_hbar2": (dx * dp / (h.hbar / 2.0)).tolist(),
        },
    }


def cmd_modes(config: RunConfig) -> int:
    circuit = _load_circuit(config)
    payload = _mode_payload(config, circuit)
    if config.format == "json":
        _emit(config, json.dumps(payload, indent=2) + "\n")
        return 0
    lines = [f"representation: {payload['representation']}"]
    lines.append(f"{'coordinate':<12} {'freq (GHz)':>12} {'delta_x':>12} {'delta_p':>12}")
    dx = payload["ground_state"]["delta_x"]
    dp = payload["ground_state"]["delta_p"]
    for i, label in enumerate(payload["labels"]):
        freq = payload["attribution"][label]
        lines.append(f"{label:<12} {freq:>12.3g} {dx[i]:>12.3g} {dp[i]:>12.3g}")
    _emit(config, "\n".join(lines) + "\n")
    return 0


def _default_ics(circuit: Circuit) -> dict[str, float]:
    """Simulation defaults: 2 mV across each design capacitor and 0 A
    through each design inductor, unless the netlist declares otherwise."""
    ics = dict(circuit.ics)
    for c in circuit.components:
        if c.geometric or c.id in ics:
            continue
        ics[c.id] = (
            DEFAULT_IC_VOLTS if c.kind is ComponentKind.CAPACITOR else DEFAULT_IC_AMPS
        )
    return ics


def cmd_simulate(config: RunConfig) -> int:
    if config.samples < 1:
        raise _CliError(
            2, f"invalid option: --samples must be at least 1, got {config.samples}"
        )
    if not (config.tmax > 0.0 and math.isfinite(config.tmax)):
        raise _CliError(
            2, f"invalid option: --tmax must be positive and finite, got {config.tmax!r}"
        )
    circuit = _load_circuit(config)
    q = quantize_circuit(circuit, config.rep, _policy(config))
    lag = q.lagrangian
    x0, p0 = initial_state(q.observed, lag, _default_ics(circuit))
    times = np.linspace(0.0, config.tmax, config.samples)
    trajectory = evolve_modes(q.hamiltonian, q.modes, x0, p0, times, lagrangian=lag)
    voltage, current = _series(circuit, lag, trajectory)
    design = circuit.components

    sums = []
    for kind, rows, suffix in (
        (ComponentKind.INDUCTOR, voltage, "_sum_V"),
        (ComponentKind.CAPACITOR, current, "_sum_A"),
    ):
        picked = [i for i, c in enumerate(design) if c.kind is kind]
        if len(picked) > 1:
            name = "".join(design[i].id for i in picked) + suffix
            sums.append((name, np.sum(rows[picked], axis=0)))

    if config.format == "json":
        payload = {"t_s": times.tolist()}
        for i, c in enumerate(design):
            payload[f"{c.id}_V"] = voltage[i].tolist()
            payload[f"{c.id}_A"] = current[i].tolist()
        payload.update((name, total.tolist()) for name, total in sums)
        _emit(config, json.dumps(payload) + "\n")
        return 0

    names = ["t_s", *(f"{c.id}_{q}" for c in design for q in "VA")]
    names += [name for name, _ in sums]
    end = 2 * len(design) + 1  # the column after the last V/A pair
    step = _csv_step(len(names))
    # each block is written as it is formatted: the whole text is never held
    with _output(config) as out:
        out.write(",".join(names) + "\n")
        for start in range(0, times.size, step):
            window = slice(start, start + step)
            block = np.empty((times[window].size, len(names)))
            block[:, 0] = times[window]
            block[:, 1:end:2] = voltage[:, window].T
            block[:, 2:end:2] = current[:, window].T
            for j, (_, total) in enumerate(sums, start=end):
                block[:, j] = total[window]
            out.write(_csv_rows(block))
    return 0


# The CSV writer produces exactly Python's "%.16e" from whole-array numpy
# work.  Each value x is scaled to y = |x|·10**(16 - e) in long double, so
# that its 17 significant digits are the integer part of y rounded on the
# fraction.  y carries at most two roundings (the table entry and the
# product), so where the fraction lies within 4u·y of one half (u the unit
# roundoff of long double) the rounding is not decided, and Python formats
# that value; so too non-finite values, zeros and three-digit exponents.
# Where long double is plain double, the margin exceeds one half and Python
# formats every value.  Exact fixed-precision conversion: Adams, "Ryū
# revisited: printf floating point conversion", PLDI 2019.
_EXP_MIN, _EXP_MAX = -330, 330  # covers every double's decimal exponent
# 10**(16 - e) for each exponent e, correctly rounded by the string parser
_POW10 = np.array(
    ["1e%d" % (16 - e) for e in range(_EXP_MIN, _EXP_MAX + 1)], dtype=np.longdouble
)
_HALF_MARGIN = 4.0 * float(np.finfo(np.longdouble).eps / 2)
# A value fills a 24-byte slot, six native uint32 words of ASCII:
#   sign or NUL, lead digit, ".", digit 1 | digits 2-5 | digits 6-9 |
#   digits 10-13 | digits 14-16, "e" | exponent sign, tens, units, separator
# The sign byte of a positive value is the only NUL; the NULs are deleted
# once the block is written.  Where Python formats a value, its text fills
# the first 23 bytes, padded with NUL.  The one longer text, a negative
# value with a three-digit exponent, is spliced into the written bytes.
_SLOT = 24
_CSV_BLOCK_VALUES = 16384  # values per block: temporaries stay near 1 MB


def _ascii_words(strings) -> np.ndarray:
    return np.frombuffer("".join(strings).encode("ascii"), dtype=np.uint32)


# indexed by 100·sign + the two leading digits
_HEAD_WORDS = _ascii_words(
    f"{sign}{i // 10}.{i % 10}" for sign in ("\0", "-") for i in range(100)
)
# "0000" … "9999": the ASCII digits of each i < 10000, four bytes per word
_DIGIT_WORDS = (
    (ord("0") + np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10)
    .astype(np.uint8)
    .view(np.uint32)
    .ravel()
)
_TAIL_WORDS = _ascii_words(f"{i:03d}e" for i in range(1000))
# a three-digit exponent's word is cut short; Python writes such values
_EXP_WORDS = _ascii_words(f"{e:+03d}"[:3] + "," for e in range(_EXP_MIN, _EXP_MAX + 1))


def _decimal_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(digits, exponent, exact) per value of a 1-D float64 array: |x|
    rounded to nearest is digits·10**(exponent - 16), digits an int64 in
    [1e16, 1e17).  Where `exact` is set the digits are undecided (or x is
    zero or not finite) and the value must be formatted by Python."""
    ax = np.abs(np.where(np.isfinite(x), x, 0.0))
    exp10 = np.floor(np.log10(np.where(ax > 0.0, ax, 1.0))).astype(np.intp)
    y = ax * _POW10[exp10 - _EXP_MIN]
    in_range = (y >= 1e16) & (y < 1e17)
    shift = np.flatnonzero(~in_range)
    if shift.size:  # log10 rounded across a power of ten, or x is zero
        exp10[shift] += np.where(y[shift] < 1e16, -1, 1)
        y[shift] = ax[shift] * _POW10[exp10[shift] - _EXP_MIN]
        in_range[shift] = (y[shift] >= 1e16) & (y[shift] < 1e17)
        y[~in_range] = 1e16
    digits = y.astype(np.int64)
    # y - digits is exact, and float64 keeps which side of one half it lies on
    frac = (y - digits).astype(np.float64)
    exact = ~in_range | (np.abs(frac - 0.5) <= _HALF_MARGIN * y.astype(np.float64))
    digits += frac > 0.5
    carry = digits == 10**17
    digits[carry] = 10**16
    exp10[carry] += 1
    return digits, exp10, exact


def _csv_rows(block: np.ndarray) -> str:
    """A (rows, columns) float64 block as CSV rows of %.16e values."""
    x = block.ravel()
    digits, exp10, exact = _decimal_digits(x)
    exact |= np.abs(exp10) > 99
    # the 17 digits in groups of 2, 4, 4, 4 and 3 (// beats np.divmod)
    groups, rest = [], digits
    for scale in (10**15, 10**11, 10**7, 10**3):
        groups.append(rest // scale)
        rest = rest - groups[-1] * scale
    head, *quads = groups
    words = np.empty((x.size, _SLOT // 4), dtype=np.uint32)
    words[:, 0] = _HEAD_WORDS[100 * np.signbit(x) + head]
    for j, quad in enumerate(quads, start=1):
        words[:, j] = _DIGIT_WORDS[quad]
    words[:, 4] = _TAIL_WORDS[rest]
    words[:, 5] = _EXP_WORDS[exp10 - _EXP_MIN]
    slots = words.view(np.uint8).reshape(block.shape + (_SLOT,))
    slots[:, -1, -1] = ord("\n")
    slots = slots.reshape(-1, _SLOT)
    fallback = np.flatnonzero(exact).tolist()
    texts = [b"%.16e" % v for v in x[fallback].tolist()]
    if texts:
        padded = b"".join(text[: _SLOT - 1].ljust(_SLOT - 1, b"\0") for text in texts)
        slots[fallback, :-1] = np.frombuffer(padded, dtype=np.uint8).reshape(-1, _SLOT - 1)
    out = slots.tobytes()
    pieces, start = [], 0
    for i, text in zip(fallback, texts):
        if len(text) >= _SLOT:  # replaces the cut copy, keeps the separator
            pieces += (out[start : i * _SLOT], text)
            start = (i + 1) * _SLOT - 1
    if pieces:
        out = b"".join(pieces + [out[start:]])
    return out.replace(b"\0", b"").decode("ascii")


def _csv_step(ncols: int) -> int:
    """Rows per CSV block of ncols columns."""
    return max(1, _CSV_BLOCK_VALUES // ncols)


def _csv_text(columns: list[tuple[str, np.ndarray]]) -> str:
    """Header plus one row per sample, every value as %.16e."""
    data = [values for _, values in columns]
    step = _csv_step(len(data))
    parts = [",".join(name for name, _ in columns) + "\n"]
    for start in range(0, len(data[0]), step):
        parts.append(_csv_rows(np.column_stack([d[start : start + step] for d in data])))
    return "".join(parts)


def cmd_reduce(config: RunConfig) -> int:
    circuit = _load_circuit(config)
    reduced = reduce_circuit(circuit)
    if config.format == "json":
        payload = {
            "netlist": serialize_netlist(reduced),
            "components": [
                {
                    "id": c.id,
                    "kind": c.kind.value,
                    "value": c.value,
                    "terminals": list(c.terminals),
                }
                for c in reduced.components
            ],
        }
        _emit(config, json.dumps(payload, indent=2) + "\n")
    else:
        _emit(config, serialize_netlist(reduced))
    return 0


# the output formats each subcommand writes; the first is its default
_FORMATS = {
    "analyze": ("json",),
    "modes": ("table", "json"),
    "simulate": ("csv", "json"),
    "reduce": ("text", "json"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluxq",
        description="Quantize and simulate lumped-element LC circuits",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, formats in _FORMATS.items():
        p = sub.add_parser(name)
        p.add_argument("netlist", type=Path)
        p.add_argument(
            "--rep",
            choices=[r.value for r in Representation],
            default=Representation.NODE_FLUX.value,
        )
        p.add_argument(
            "--geometric",
            choices=[g.value for g in GeometricMode],
            default=GeometricMode.MINIMAL.value,
        )
        p.add_argument("--cg", type=float, default=8.9e-20)
        p.add_argument("--lg", type=float, default=1e-15)
        p.add_argument("--tmax", type=float, default=4e-9)
        p.add_argument("--samples", type=int, default=2000)
        p.add_argument("--out", type=Path, default=None)
        p.add_argument("--format", choices=formats, default=formats[0])
    return parser


_COMMANDS = {
    "analyze": cmd_analyze,
    "modes": cmd_modes,
    "simulate": cmd_simulate,
    "reduce": cmd_reduce,
}


def run(config: RunConfig) -> int:
    try:
        return _COMMANDS[config.subcommand](config)
    except _CliError as exc:
        print(exc, file=sys.stderr)
        return exc.code
    except NetlistError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except _ValidationFailure as exc:
        print("invalid circuit:", file=sys.stderr)
        for v in exc.violations:
            print(f"  - {v}", file=sys.stderr)
        return 2
    except SingularKineticMatrix as exc:
        print(f"not quantizable under this configuration: {exc}", file=sys.stderr)
        return 3
    except InconsistentInitialConditions as exc:
        print(str(exc), file=sys.stderr)
        return 4


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = RunConfig(
        subcommand=args.subcommand,
        netlist=args.netlist,
        rep=Representation(args.rep),
        geometric=GeometricMode(args.geometric),
        cg=args.cg,
        lg=args.lg,
        tmax=args.tmax,
        samples=args.samples,
        out=args.out,
        format=args.format,
    )
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
