"""Command-line entry point: analyze / modes / simulate / reduce.

Exit codes, each with a message on stderr and no traceback:

0  ok
1  the netlist cannot be read or parsed
2  invalid circuit (validation failure) or invalid option value: --cg or
   --lg not positive and finite while augmenting, --samples below 1
3  unquantizable under the requested configuration
4  inconsistent initial conditions
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .lagrangian import (
    GeometricMode,
    GeometricPolicy,
    Representation,
    augment_geometric,
    extended_node_lagrangian,
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
from .quantize import (
    SingularKineticMatrix,
    diagnose_quantizability,
    ground_state,
    legendre_transform,
    mode_attribution,
    normal_modes,
)
from .simulate import (
    InconsistentInitialConditions,
    evolve_modes,
    initial_state,
    observables,
)
from .topology import (
    build_spanning_tree,
    fundamental_loops,
    reduce_circuit,
    topology_report,
)

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


def _emit(config: RunConfig, text: str) -> None:
    if config.out is not None:
        config.out.write_text(text)
    else:
        sys.stdout.write(text)


def _build_lagrangian(circuit: Circuit, config: RunConfig):
    """Returns (lagrangian, circuit used for observables)."""
    policy = _policy(config)
    tree = build_spanning_tree(circuit)
    report = topology_report(circuit)
    if config.rep is Representation.NODE_FLUX:
        augmented, _record = augment_geometric(circuit, report, policy)
        lag = node_lagrangian(augmented, build_spanning_tree(augmented))
        return lag, augmented
    if config.rep is Representation.LOOP_CHARGE:
        loops = fundamental_loops(circuit, tree)
        _aug, record = augment_geometric(circuit, report, policy)
        lag = loop_lagrangian(
            circuit, loops, record.loop_inductance, record.loop_kinetic_rows
        )
        return lag, circuit
    augmented, _record = augment_geometric(circuit, report, policy)
    lag = extended_node_lagrangian(circuit, tree, policy)
    return lag, augmented


def cmd_analyze(config: RunConfig) -> int:
    circuit = _load_circuit(config)
    report = topology_report(circuit)
    tree = build_spanning_tree(circuit)
    loops = fundamental_loops(circuit, tree)
    quantizable = {
        "node": diagnose_quantizability(
            node_lagrangian(circuit, tree)
        ).quantizable,
        "loop": diagnose_quantizability(loop_lagrangian(circuit, loops)).quantizable,
    }
    payload = report.to_json_dict()
    payload["quantizable"] = quantizable
    payload["reduction"] = (
        serialize_netlist(reduce_circuit(circuit)) if report.reducible else None
    )
    _emit(config, json.dumps(payload, indent=2) + "\n")
    return 0


def _mode_payload(config: RunConfig, circuit: Circuit) -> dict:
    lag, _obs_circuit = _build_lagrangian(circuit, config)
    h = legendre_transform(lag)
    modes = normal_modes(h)
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
    circuit = _load_circuit(config)
    lag, obs_circuit = _build_lagrangian(circuit, config)
    h = legendre_transform(lag)
    modes = normal_modes(h)
    x0, p0 = initial_state(obs_circuit, lag, _default_ics(circuit))
    times = np.linspace(0.0, config.tmax, config.samples)
    trajectory = evolve_modes(h, modes, x0, p0, times, lagrangian=lag)
    series = observables(obs_circuit, lag, trajectory)

    design = [c.id for c in circuit.components]
    inductors = [c.id for c in circuit.components if c.kind is ComponentKind.INDUCTOR]
    capacitors = [c.id for c in circuit.components if c.kind is ComponentKind.CAPACITOR]

    columns: list[tuple[str, np.ndarray]] = [("t_s", times)]
    for cid in design:
        columns.append((f"{cid}_V", series[cid].voltage))
        columns.append((f"{cid}_A", series[cid].current))
    if len(inductors) > 1:
        total = np.sum([series[cid].voltage for cid in inductors], axis=0)
        columns.append(("".join(inductors) + "_sum_V", total))
    if len(capacitors) > 1:
        total = np.sum([series[cid].current for cid in capacitors], axis=0)
        columns.append(("".join(capacitors) + "_sum_A", total))

    if config.format == "json":
        payload = {name: data.tolist() for name, data in columns}
        _emit(config, json.dumps(payload) + "\n")
        return 0
    _emit(config, _csv_text(columns))
    return 0


def _csv_text(columns: list[tuple[str, np.ndarray]]) -> str:
    """Header plus one row per sample, every value as %.16e."""
    table = np.column_stack([data for _, data in columns])
    row_format = ",".join(["%.16e"] * len(columns))
    rows = [",".join(name for name, _ in columns)]
    rows.extend(row_format % tuple(row.tolist()) for row in table)
    return "\n".join(rows) + "\n"


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluxq",
        description="Quantize and simulate lumped-element LC circuits",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in ("analyze", "modes", "simulate", "reduce"):
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
        default_format = "csv" if name == "simulate" else "json"
        if name in ("modes", "reduce"):
            default_format = "table" if name == "modes" else "text"
        p.add_argument(
            "--format",
            choices=["json", "csv", "table", "text"],
            default=default_format,
        )
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
