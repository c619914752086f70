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
   --tmax not positive and finite, or so large that the fastest mode's
   phase omega*t overflows float64, or --out cannot be opened to write
3  unquantizable under --geometric off (minimal and allpairs make every
   valid circuit structurally quantizable), the kinetic matrix or loop
   inductance form too ill-conditioned to confirm its rank, M or the
   reduced matrix of the mode solve overflowing float64 (as with --cg or
   --lg at 1e-300, or subnormal, where the value enters M or K), an
   eigenvalue of that matrix past K's zero modes not positive (a mode
   that would read 0 Hz, as with --cg at 1e-16 of the capacitances), or
   any other floating-point overflow or invalid operation in the numerics
4  inconsistent initial conditions
"""
from __future__ import annotations

import argparse
import functools
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
    _ZERO_MODE_WARNING,
    HBAR,
    KineticMatrixOverflow,
    ReducedMatrixOverflow,
    SingularKineticMatrix,
    _vacuum_factors,
    diagnose_quantizability,
    mode_attribution,
)
from .simulate import (
    InconsistentInitialConditions,
    _series,
    evolve_modes,
    initial_state,
)
from .topology import RankCrossCheckFailure, reduce_circuit, topology_report

DEFAULT_IC_VOLTS = 2e-3
DEFAULT_IC_AMPS = 0.0


@dataclass
class RunConfig:
    subcommand: str
    netlist: Path
    rep: Representation = Representation.NODE_FLUX
    geometric: GeometricMode = GeometricMode.MINIMAL
    cg: float = GeometricPolicy.default_cg
    lg: float = GeometricPolicy.default_lg
    tmax: float = 4e-9
    samples: int = 2000
    out: Path | None = None
    format: str = "json"


class _CliError(Exception):
    """A documented failure with its exit code and its stderr message."""

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
    try:
        circuit = parse_netlist(text)
    except NetlistError as exc:
        raise _CliError(1, f"parse error: {exc}") from exc
    violations = validate_circuit(circuit)
    if violations:
        lines = ["invalid circuit:", *(f"  - {v}" for v in violations)]
        raise _CliError(2, "\n".join(lines))
    return circuit


@contextmanager
def _output(config: RunConfig):
    """The text stream for --out, or else stdout; only the open is checked."""
    if config.out is None:
        yield sys.stdout
    else:
        try:
            out = config.out.open("w")
        except OSError as exc:
            raise _CliError(2, f"invalid option: cannot write --out: {exc}") from exc
        with out:
            yield out


def _emit(config: RunConfig, text: str) -> None:
    with _output(config) as out:
        out.write(text)


def _indented_json(value, depth: int = 0) -> str:
    """json.dumps(value, indent=2) for str keys.  `indent` picks the Python
    encoder, so here each list or dict without one inside is one call of the
    C encoder, its indentation carried in the item separator."""
    if not isinstance(value, (dict, list, tuple)) or not value:
        return json.dumps(value)
    inner = "\n" + "  " * (depth + 1)
    pairs = isinstance(value, dict)
    items = value.values() if pairs else value
    if any(issubclass(t, (dict, list, tuple)) for t in set(map(type, items))):
        texts = (_indented_json(v, depth + 1) for v in items)
        if pairs:
            texts = map("{}: {}".format, map(json.dumps, value), texts)
        body = ("," + inner).join(texts)
    else:
        body = json.dumps(value, separators=("," + inner, ": "))[1:-1]
    start, end = "{}" if pairs else "[]"
    return f"{start}{inner}{body}\n{'  ' * depth}{end}"


def cmd_analyze(config: RunConfig) -> int:
    circuit = _load_circuit(config)
    report = topology_report(circuit)
    # the witnesses span the design loop M's null space, confirmed numerically
    quantizable = {
        "node": diagnose_quantizability(node_lagrangian(circuit)).quantizable,
        "loop": not report.witnesses,
    }
    reduced = reduce_circuit(circuit)
    reducible = reduced is not circuit
    payload = report.to_json_dict()
    payload["reducible"] = reducible
    payload["quantizable"] = quantizable
    payload["reduction"] = serialize_netlist(reduced) if reducible else None
    _emit(config, _indented_json(payload) + "\n")
    return 0


def _mode_payload(config: RunConfig, circuit: Circuit) -> dict:
    q = quantize_circuit(circuit, config.rep, _policy(config))
    lag, h, modes = q.lagrangian, q.hamiltonian, q.modes
    vs, us = _vacuum_factors(modes)
    if modes.zero_mode_count:
        message = _ZERO_MODE_WARNING.format(modes.zero_mode_count)
        print(f"warning: {message}", file=sys.stderr)
    dx, dp = (np.sqrt(np.einsum("ij,ij->i", a, a)) for a in (vs, us))
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
            "products_over_hbar2": (dx * dp / (HBAR / 2.0)).tolist(),
        },
    }


def cmd_modes(config: RunConfig) -> int:
    circuit = _load_circuit(config)
    payload = _mode_payload(config, circuit)
    if config.format == "json":
        _emit(config, _indented_json(payload) + "\n")
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
    omega_max = float(q.modes.omegas.max(initial=0.0))
    if not math.isfinite(omega_max * config.tmax):
        raise _CliError(
            2,
            f"invalid option: --tmax overflows the phase omega*t of the fastest "
            f"mode ({omega_max!r} rad/s), got {config.tmax!r}",
        )
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
# work in float64 alone.  Each value x with decimal exponent e is scaled to
# y = |x|·10**(16 - e), so that its 17 significant digits are the integer
# part of y rounded on the fraction.  10**(16 - e) is held as 2**s·(hi + lo):
# hi and lo are doubles built from exact integers, hi + lo in [1, 2] is off
# by at most 2**-105 of itself.  a = |x|·2**s is exact (ldexp; no overflow
# or underflow over the whole double range, subnormals included).  Dekker's
# split forms a·hi exactly as p + err, p an integer since y >= 2**53, and
# y = p + t with t = err + a·lo.  |t| < 32, so t carries at most the
# rounding of a·lo (2**-50), of the sum (2**-49) and the table's 2**-48.5:
# its fraction t - floor(t) is off by less than 2**-47.  Where the fraction
# lies within _HALF_MARGIN = 2**-40 of one half the rounding is not decided
# and Python formats that value; so too non-finite values, zeros and
# three-digit exponents.  Exact product: Dekker, Numer. Math. 18, 224
# (1971); fixed-precision conversion with a table of powers of ten: Adams,
# "Ryū revisited: printf floating point conversion", PLDI 2019.
_EXP_MIN, _EXP_MAX = -330, 330  # covers every double's decimal exponent
_HALF_MARGIN = 2.0**-40
_SPLITTER = 2.0**27 + 1.0  # Veltkamp: a double as two halves of 26 bits


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(head, tail) with head + tail == v exactly, each of at most 26 bits."""
    big = v * _SPLITTER
    head = big - (big - v)
    return head, v - head


def _power_of_ten_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s, hi, lo) per exponent e, 10**(16 - e) = 2**s·(hi + lo)·(1 + d)
    with |d| <= 2**-105.  The 127-bit integer q = floor(10**(16 - e)·
    2**(126 - s)) rounded to a double gives hi, and the rest of q rounded
    gives lo, both times 2**-126."""
    ks = range(16 - _EXP_MIN, 15 - _EXP_MAX, -1)  # k = 16 - e
    pows = [1]
    for _ in range(max(ks[0], -ks[-1])):
        pows.append(10 * pows[-1])
    twos, his, los = [], [], []
    for k in ks:
        if k >= 0:  # 2**s <= 10**k < 2**(s + 1)
            s = pows[k].bit_length() - 1
            q = pows[k] << (126 - s) if s <= 126 else pows[k] >> (s - 126)
        else:  # 2**s < 10**k < 2**(s + 1)
            s = -pows[-k].bit_length()
            q = (1 << (126 - s)) // pows[-k]
        hi = float(q)  # rounds to nearest
        twos.append(s)
        his.append(hi)
        los.append(float(q - int(hi)))
    return np.array(twos, dtype=np.int32), np.ldexp(his, -126), np.ldexp(los, -126)


_TWOS, _HI, _LO = _power_of_ten_table()
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


def _scaled(ax: np.ndarray, exp10: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(floor(y), y - floor(y)) for y = ax·10**(16 - exp10), the fraction
    off by less than 2**-47 wherever y lies in [1e16, 1e17)."""
    i = exp10 - _EXP_MIN
    a = np.ldexp(ax, _TWOS[i])
    hi = _HI[i]
    p = a * hi  # an integer: p >= 2**53
    a_head, a_tail = _split(a)
    hi_head, hi_tail = _split(hi)
    t = a_head * hi_head - p  # t = a·hi - p exactly (Dekker), then + a·lo
    t += a_head * hi_tail
    t += a_tail * hi_head
    t += a_tail * hi_tail
    t += a * _LO[i]
    whole = np.floor(t)
    t -= whole
    return p.astype(np.int64) + whole.astype(np.int64), t


def _decimal_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(digits, exponent, exact) per value of a 1-D float64 array: |x|
    rounded to nearest is digits·10**(exponent - 16), digits an int64 in
    [1e16, 1e17).  Where `exact` is set the digits are undecided (or x is
    zero or not finite) and the value must be formatted by Python."""
    ax = np.abs(np.where(np.isfinite(x), x, 0.0))
    exp10 = np.floor(np.log10(np.where(ax > 0.0, ax, 1.0))).astype(np.intp)
    digits, frac = _scaled(ax, exp10)
    in_range = (digits >= 10**16) & (digits < 10**17)
    shift = np.flatnonzero(~in_range)
    if shift.size:  # log10 rounded across a power of ten, or x is zero
        exp10[shift] += np.where(digits[shift] < 10**16, -1, 1)
        digits[shift], frac[shift] = _scaled(ax[shift], exp10[shift])
        in_range[shift] = (digits[shift] >= 10**16) & (digits[shift] < 10**17)
        digits[~in_range] = 10**16
    exact = ~in_range | (np.abs(frac - 0.5) <= _HALF_MARGIN)
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
        _emit(config, _indented_json(payload) + "\n")
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


@functools.cache  # built once per process: in-process callers reuse it
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
            default=RunConfig.rep.value,
        )
        p.add_argument(
            "--geometric",
            choices=[g.value for g in GeometricMode],
            default=RunConfig.geometric.value,
        )
        p.add_argument("--cg", type=float, default=RunConfig.cg)
        p.add_argument("--lg", type=float, default=RunConfig.lg)
        p.add_argument("--tmax", type=float, default=RunConfig.tmax)
        p.add_argument("--samples", type=int, default=RunConfig.samples)
        p.add_argument("--out", type=Path, default=RunConfig.out)
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
        # where the numerics leave float64 without a check of their own
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _COMMANDS[config.subcommand](config)
    except _CliError as exc:
        print(exc, file=sys.stderr)
        return exc.code
    except (
        SingularKineticMatrix,
        RankCrossCheckFailure,
        KineticMatrixOverflow,
        ReducedMatrixOverflow,
    ) as exc:
        print(f"not quantizable under this configuration: {exc}", file=sys.stderr)
        return 3
    except InconsistentInitialConditions as exc:
        print(str(exc), file=sys.stderr)
        return 4
    except FloatingPointError as exc:
        print(
            f"floating-point overflow under this configuration: {exc}", file=sys.stderr
        )
        return 3


def main(argv: list[str] | None = None) -> int:
    config = RunConfig(**vars(build_parser().parse_args(argv)))
    config.rep = Representation(config.rep)
    config.geometric = GeometricMode(config.geometric)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
