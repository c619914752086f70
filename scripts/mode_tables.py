#!/usr/bin/env python3
"""Print solution-parameter tables for the bundled example circuits.

For each circuit and representation: the per-coordinate attributed mode
frequencies (GHz) and the ground-state spreads.  The passive circuit is
augmented with the default geometric values; the loop high mode is also
shown at Lg = 1e-14 H for comparison.
"""
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from fluxq import (  # noqa: E402
    GeometricMode,
    GeometricPolicy,
    Representation,
    ground_state,
    mode_attribution,
    parse_netlist,
    quantize_circuit,
)

NETLISTS = ROOT / "netlists"


def show(title, q):
    lag, h = q.lagrangian, q.hamiltonian
    state = ground_state(q.modes, h)
    attribution = mode_attribution(q.modes, h)
    print(f"\n{title}  [{lag.representation.value}]")
    print(f"  {'variable':<10} {'freq (GHz)':>12} {'delta_x':>12} {'delta_p':>12}")
    dx = np.sqrt(np.diag(state.cov)[: lag.dim])
    dp = np.sqrt(np.diag(state.cov)[lag.dim :])
    for i, label in enumerate(lag.labels):
        f_ghz = attribution[label] / (2 * math.pi) / 1e9
        print(f"  {label:<10} {f_ghz:>12.4g} {dx[i]:>12.3e} {dp[i]:>12.3e}")


def main():
    off = GeometricPolicy(cap_mode=GeometricMode.OFF)
    minimal = GeometricPolicy(cap_mode=GeometricMode.MINIMAL)
    loop_minimal = GeometricPolicy(cap_mode=GeometricMode.MINIMAL, default_lg=1e-14)

    node, loop = Representation.NODE_FLUX, Representation.LOOP_CHARGE

    active = parse_netlist((NETLISTS / "active_lc.cir").read_text())
    show("active variant", quantize_circuit(active, node, off))
    show("active variant", quantize_circuit(active, loop, off))

    reduced = parse_netlist((NETLISTS / "reduced_lc.cir").read_text())
    show("reduced tank", quantize_circuit(reduced, node, off))

    passive = parse_netlist((NETLISTS / "passive_lc.cir").read_text())
    show("passive circuit, Cg = 8.9e-20 F", quantize_circuit(passive, node, minimal))
    show("passive circuit, Lg = 1e-14 H", quantize_circuit(passive, loop, loop_minimal))
    return 0


if __name__ == "__main__":
    sys.exit(main())
