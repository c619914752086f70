"""Hypothesis fuzz of `fluxq` over the bundled netlists, extreme option
values and extreme component values: every run ends in a documented exit
code, without a traceback or a numpy floating-point warning, and every
exit-0 `simulate` writes finite values."""
import contextlib
import dataclasses
import io
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxq import parse_netlist, serialize_netlist
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


def _assert_documented_exit(argv, subcommand, fmt):
    """The run ends as test_cli_ends_in_a_documented_exit requires."""
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


POSITIVE_EXTREMES = [
    5e-324,
    1e-320,
    sys.float_info.min,
    1e-300,
    1e300,
    sys.float_info.max,
]
# the whole positive double range: its ends, the floats between them as
# hypothesis draws them (biased toward the bounds) and a log-uniform spread
component_values = st.one_of(
    st.sampled_from(POSITIVE_EXTREMES),
    st.floats(min_value=5e-324, max_value=sys.float_info.max),
    st.builds(
        lambda mantissa, exponent: mantissa * 10.0**exponent,
        st.floats(1.0, 9.0),
        st.integers(-300, 300),
    ),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("value_fuzz")


@settings(max_examples=150, deadline=None)
@given(
    netlist=st.sampled_from(NETLISTS),
    subcommand=st.sampled_from(sorted(_FORMATS)),
    rep=st.sampled_from(["node", "loop", "extended"]),
    geometric=st.sampled_from(["off", "minimal", "allpairs"]),
    data=st.data(),
)
def test_cli_on_extreme_component_values_ends_in_a_documented_exit(
    fuzz_dir, netlist, subcommand, rep, geometric, data
):
    circuit = parse_netlist(netlist.read_text())
    components = tuple(
        dataclasses.replace(c, value=data.draw(component_values, label=c.id))
        for c in circuit.components
    )
    path = fuzz_dir / netlist.name
    path.write_text(serialize_netlist(dataclasses.replace(circuit, components=components)))
    fmt = _FORMATS[subcommand][0]
    argv = [
        subcommand,
        str(path),
        f"--rep={rep}",
        f"--geometric={geometric}",
        "--samples=16",
    ]
    _assert_documented_exit(argv, subcommand, fmt)
