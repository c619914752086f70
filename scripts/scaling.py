#!/usr/bin/env python3
"""Time the pipeline's stages on one large ladder in every representation.

    python3 scripts/scaling.py [--n 512] [--seed 7] [--processes 5] [--repeats 3]

Each of --processes child processes, started with one BLAS thread, builds
the benchmark's ladder (`perfbench.workloads.ladder(n, default_rng(seed))`)
and times in process, best of --repeats, for each representation: one
`eigh` of F^-1 K F^-T (the mode solve's irreducible cost), `quantize_circuit`,
its `normal_modes`, `ground_state` (the full 2n x 2n covariance, which the
CLI does not form) and `topology_report` (with the rank test of the loop
inductance form), `mode_attribution`, `parse_netlist` + `validate_circuit`
of the ladder's netlist text (the same work in every column), the indented
JSON text of the CLI's `modes` payload and the CLI's `modes --format json`
on the ladder's netlist; for the loop and extended representations the first
read of `AugmentationRecord.loop_inductance` on a fresh record (the node
representation never forms it); and for the extended representation
`extended_node_lagrangian` and its `_design_paths`.  The table gives each
stage's median over the processes in ms and as a multiple of the `eigh` in
the same column.  The sources timed are those of the checkout holding this
script.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

from fluxq import (  # noqa: E402
    GeometricPolicy,
    Representation,
    augment_geometric,
    cli,
    extended_node_lagrangian,
    ground_state,
    mode_attribution,
    normal_modes,
    parse_netlist,
    quantize_circuit,
    topology_report,
    validate_circuit,
)
from fluxq.lagrangian import _design_paths  # noqa: E402
from perfbench.workloads import ladder, netlist_text  # noqa: E402

STAGES = (
    "eigh of F^-1 K F^-T",
    "quantize_circuit",
    "normal_modes",
    "ground_state",
    "topology_report",
    "mode_attribution",
    "parse_netlist + validate",
    "modes JSON",
    "loop_inductance",
    "extended_node_lagrangian",
    "_design_paths",
    "CLI modes",
)
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _best_ms(run, repeats: int, prepare=lambda: ()) -> float:
    """The fastest of `repeats` timed calls run(*prepare()), in ms; each
    call's arguments are prepared outside the timer."""
    times = []
    for _ in range(repeats):
        args = prepare()
        start = time.perf_counter()
        run(*args)
        times.append(time.perf_counter() - start)
    return 1e3 * min(times)


def _reduced_stiffness(h) -> np.ndarray:
    """F^-1 K F^-T as normal_modes forms it."""
    f = h.mass_factor
    kt = scipy.linalg.solve_triangular(f, h.k, lower=True)
    kt = scipy.linalg.solve_triangular(f, kt.T, lower=True).T
    return 0.5 * (kt + kt.T)


def _cli_modes(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise RuntimeError(f"fluxq {' '.join(argv)} failed")


def measure(n: int, seed: int, repeats: int) -> dict[str, dict[str, float]]:
    """{representation: {stage: best time in ms}, "dims": {representation:
    coordinates}} for the ladder, timed in this process."""
    text = netlist_text(ladder(n, np.random.default_rng(seed)))
    circuit = parse_netlist(text)
    policy = GeometricPolicy()
    out: dict[str, dict[str, float]] = {"dims": {}}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"ladder{n}.cir"
        path.write_text(text)
        for rep in Representation:
            q = quantize_circuit(circuit, rep, policy)
            kt = _reduced_stiffness(q.hamiltonian)
            payload = cli._mode_payload(cli.RunConfig("modes", path, rep=rep), circuit)
            times = {
                "eigh of F^-1 K F^-T": _best_ms(np.linalg.eigh, repeats, lambda: (kt,)),
                "quantize_circuit": _best_ms(
                    quantize_circuit, repeats, lambda: (circuit, rep, policy)
                ),
                "normal_modes": _best_ms(
                    normal_modes, repeats, lambda: (q.hamiltonian,)
                ),
                "ground_state": _best_ms(
                    ground_state, repeats, lambda: (q.modes, q.hamiltonian)
                ),
                "topology_report": _best_ms(topology_report, repeats, lambda: (circuit,)),
                "mode_attribution": _best_ms(
                    mode_attribution, repeats, lambda: (q.modes, q.hamiltonian)
                ),
                "parse_netlist + validate": _best_ms(
                    lambda: validate_circuit(parse_netlist(text)), repeats
                ),
                "modes JSON": _best_ms(cli._indented_json, repeats, lambda: (payload,)),
                "CLI modes": _best_ms(
                    _cli_modes,
                    repeats,
                    lambda: (["modes", str(path), "--format", "json", "--rep", rep.value],),
                ),
            }
            if rep is not Representation.NODE_FLUX:
                report = topology_report(circuit)

                def augmented():
                    # a fresh record each time: its loop inductance is
                    # formed on first read
                    return (circuit, report.loops, *augment_geometric(circuit, report, policy))

                times["loop_inductance"] = _best_ms(
                    lambda record: record.loop_inductance,
                    repeats,
                    lambda: augmented()[3:],
                )
            if rep is Representation.EXTENDED_NODE_FLUX:
                times["extended_node_lagrangian"] = _best_ms(
                    extended_node_lagrangian, repeats, augmented
                )
                _, record = augment_geometric(circuit, report, policy)
                times["_design_paths"] = _best_ms(
                    _design_paths, repeats, lambda: (circuit, record.added_capacitors)
                )
            out[rep.value] = times
            out["dims"][rep.value] = q.modes.dim
    return out


def table(runs: list[dict], n: int, seed: int, repeats: int) -> str:
    """The median over the runs of each stage, in ms and as a multiple of
    the eigh of its representation."""
    reps = [r.value for r in Representation]
    header = [f"{rep} ({runs[0]['dims'][rep]})" for rep in reps]
    lines = [
        f"ladder n = {n}, seed {seed}: median of {len(runs)} processes "
        f"(best of {repeats} each), one BLAS thread; ms (multiple of one eigh)",
        f"{'stage':<26}" + "".join(f"{h:>20}" for h in header),
    ]
    for stage in STAGES:
        cells = []
        for rep in reps:
            values = [run[rep][stage] for run in runs if stage in run[rep]]
            if not values:
                cells.append("-")
                continue
            ms = float(np.median(values))
            eigh = float(np.median([run[rep][STAGES[0]] for run in runs]))
            cells.append(f"{ms:.2f} ({ms / eigh:.2f}x)")
        lines.append(f"{stage:<26}" + "".join(f"{c:>20}" for c in cells))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=512)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--processes", type=int, default=5)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.n, args.seed, args.repeats)))
        return 0
    env = dict(os.environ, **{name: "1" for name in BLAS_THREADS})
    command = [
        sys.executable, __file__, "--child", "--n", str(args.n),
        "--seed", str(args.seed), "--repeats", str(args.repeats),
    ]
    runs = []
    for _ in range(args.processes):
        proc = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    print(table(runs, args.n, args.seed, args.repeats))
    return 0


if __name__ == "__main__":
    sys.exit(main())
