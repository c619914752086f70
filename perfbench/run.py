"""fluxq benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; fluxq is imported from `src/` of
that checkout and nowhere else.  The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`; the line
before it is a JSON object of run diagnostics (`info`).  See README.md.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# One BLAS thread: on a small machine a second thread made a 37 ms
# operation take 0.68 s now and then.  Must be set before numpy loads.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _import_fluxq_from_checkout() -> None:
    """Puts the checkout's src/ first on the path and refuses any other
    fluxq, so a missing source tree fails instead of timing a stale copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import fluxq
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import fluxq from {src}: {exc}")
    if Path(fluxq.__file__).resolve().parent != (src / "fluxq").resolve():
        raise SystemExit(f"perfbench: fluxq resolved to {fluxq.__file__}, not {src}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny instances of the workload, for the benchmark's self-check",
    )
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set up, warm up and exit; the parent times this to get setup_s",
    )
    args = parser.parse_args(argv)

    os.environ.update(BLAS_ENV)
    _import_fluxq_from_checkout()
    sys.path.insert(0, str(HERE))
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.setup_only:
        with harness.workspace(ROOT) as workdir:
            harness.setup(args.workload, args.seed, workdir, args.smoke)
        return 0
    return harness.main(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT, args.smoke
    )


if __name__ == "__main__":
    sys.exit(main())
