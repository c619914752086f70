"""Hypothesis fuzz of `fluxq` over the bundled netlists and extreme option
values: every run ends in a documented exit code, without a traceback or a
numpy floating-point warning, and every exit-0 `simulate` writes finite
values."""
import contextlib
import io
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxq.cli import _FORMATS, main

NETLISTS = sorted((Path(__file__).resolve().parent.parent / "netlists").glob("*.cir"))
EXTREMES = [
    0.0,
    -0.0,
    -1e-12,
    -1e300,
    5e-324,  # the smallest subnormal
    1e-320,
    sys.float_info.min,  # the smallest normal double
    1e-300,
    1e300,
    sys.float_info.max,
    math.inf,
    -math.inf,
    math.nan,
]
option_values = st.one_of(st.sampled_from(EXTREMES), st.floats())


def _finite_output(text: str, fmt: str) -> bool:
    if fmt == "json":
        return all(np.isfinite(values).all() for values in json.loads(text).values())
    rows = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    return bool(np.isfinite(rows).all())


@settings(max_examples=150, deadline=None)
@given(
    netlist=st.sampled_from(NETLISTS),
    subcommand=st.sampled_from(sorted(_FORMATS)),
    rep=st.sampled_from(["node", "loop", "extended"]),
    geometric=st.sampled_from(["off", "minimal", "allpairs"]),
    cg=option_values,
    lg=option_values,
    tmax=option_values,
    samples=st.integers(-1, 64),
    data=st.data(),
)
def test_cli_ends_in_a_documented_exit(
    netlist, subcommand, rep, geometric, cg, lg, tmax, samples, data
):
    fmt = data.draw(st.sampled_from(_FORMATS[subcommand]))
    # the --flag=value form keeps argparse from reading -1e-12 as a flag
    argv = [
        subcommand,
        str(netlist),
        f"--rep={rep}",
        f"--geometric={geometric}",
        f"--cg={cg!r}",
        f"--lg={lg!r}",
        f"--tmax={tmax!r}",
        f"--samples={samples}",
        f"--format={fmt}",
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    assert code in (0, 1, 2, 3, 4)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "Traceback" not in err.getvalue()
    if code:
        # one line for the failure, after any zero-mode warning
        *before, last = err.getvalue().splitlines()
        assert out.getvalue() == "" and last
        assert all(line.startswith("warning: ") for line in before), err.getvalue()
    elif subcommand == "simulate":
        assert _finite_output(out.getvalue(), fmt), argv
