"""Edge inputs through the command line: every run either succeeds cleanly
or is refused with one error line.

The property draws `zeros` and `expm` argv from edge classes of each value
and runs them through `trotterkit.cli.main` in this process, under the
suite's seeded, derandomized Hypothesis profile.

Bounds on the draws: k in {-1, 0, 1, 2, 5, 52, 401} and a finite Gamma*h
in {-1, 0, 2.5, 20}, so no drawn zero solve goes past k = 52 at Gamma*h
= 20 (k = 401 is refused before any solve).  The slowest drawn solve,
Chebyshev (52, 20, real), takes about 0.1 s cold on a 2-core machine, and
each spec is solved once: the zeros are kept in a memo private to this
module, which leaves the suite's memo alone.  Larger k and Gamma*h stay
covered by `scripts/zero_grid.py` and `scripts/cli_outputs.sh`.
"""

import contextlib
import io
import math
import warnings
from unittest import mock

from hypothesis import given, strategies as st

from trotterkit import polyexp
from trotterkit.cli import main

MEMO = {}

KS = ["-1", "0", "1", "2", "5", "52", "401"]
GAMMA_HS = [None, "0", "-1", "2.5", "20", "inf", "nan"]
AXES = [None, "real", "imaginary"]
SCALARS = ["0", "10j", "-10j", "800", "-800", "1000", "1e308", "-1e308", "1e308j", "nan",
           "inf", "", "abc"]


@st.composite
def polynomial_argv(draw):
    """argv of one `zeros` or `expm` run."""
    command = draw(st.sampled_from(["zeros", "expm"]))
    family = draw(st.sampled_from(["taylor", "chebyshev"]))
    argv = [command, "--family" if command == "zeros" else "--method", family,
            "--k", draw(st.sampled_from(KS))]
    # half the runs take their family's own settings, the other half any pair
    if draw(st.booleans()):
        gamma_h, axis = draw(st.sampled_from(GAMMA_HS)), draw(st.sampled_from(AXES))
    elif family == "taylor":
        gamma_h, axis = None, None
    else:
        gamma_h, axis = draw(st.sampled_from(["2.5", "20"])), draw(st.sampled_from(AXES[1:]))
    argv += [] if gamma_h is None else ["--gamma-h", gamma_h]
    argv += [] if axis is None else ["--axis", axis]
    if command == "expm":
        argv += [f"--scalar={draw(st.sampled_from(SCALARS))}"]
        argv += draw(st.sampled_from([[], ["--sum"], ["--prod"]]))
    return argv


def run(argv):
    """(exit status, stdout, stderr, warnings) of `trotterkit ARGV`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught, \
            mock.patch.object(polyexp, "_memo", MEMO):
        warnings.simplefilter("always")
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse's usage error
            status = exc.code
    return status, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


@given(polynomial_argv())
def test_property_polynomial_commands_succeed_cleanly_or_refuse_with_one_error_line(argv):
    status, out, err, caught = run(argv)
    assert caught == [], argv
    if status == 0:
        assert err == "", argv
        header, *rows = out.splitlines()
        assert rows, argv
        for row in rows:
            assert all(math.isfinite(float(x)) for x in row.split(",")), (argv, row)
    else:
        assert out == "", argv
        lines = err.splitlines()
        if status == 2:  # usage lines, then argparse's one error line
            assert sum("error:" in line for line in lines) == 1, (argv, err)
        else:
            assert status == 1 and len(lines) == 1 and lines[0].startswith("error:"), (argv, err)
