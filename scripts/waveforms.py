#!/usr/bin/env python3
"""Write waveform CSVs for the bundled circuits into ./waveforms/.

Produces the reduced-tank reference, the augmented passive circuit in the
node representation (high-frequency noise on the individual inductor
voltages), and in the loop representation (noise on the individual
capacitor currents).  Initial conditions: 2 mV per design capacitor, 0 A
per design inductor.
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fluxq import cli  # noqa: E402

NETLISTS = ROOT / "netlists"


def main():
    outdir = Path.cwd() / "waveforms"
    outdir.mkdir(exist_ok=True)
    runs = [
        ("tank.csv", [str(NETLISTS / "reduced_lc.cir")]),
        ("passive_node_rep.csv", [str(NETLISTS / "passive_lc.cir")]),
        (
            "passive_loop_rep.csv",
            [str(NETLISTS / "passive_lc.cir"), "--rep", "loop", "--lg", "1e-14"],
        ),
        (
            "passive_extended_rep.csv",
            [
                str(NETLISTS / "passive_lc.cir"),
                "--rep",
                "extended",
                "--geometric",
                "allpairs",
            ],
        ),
    ]
    for name, args in runs:
        target = outdir / name
        code = cli.main(["simulate", *args, "--out", str(target)])
        if code:
            return code
        print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
