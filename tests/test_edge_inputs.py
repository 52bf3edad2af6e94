"""Edge inputs: every command-line run either succeeds cleanly or is
refused with one error line, and every call that takes an operator either
returns a usable value or raises one `TrotterkitError`.

The first property draws `zeros` and `expm` argv from edge classes of each
value and runs them through `trotterkit.cli.main` in this process, under
the suite's seeded, derandomized Hypothesis profile.

Bounds on the draws: k in {-1, 0, 1, 2, 5, 52, 401} and a finite Gamma*h
in {-1, 0, 2.5, 20}, so no drawn zero solve goes past k = 52 at Gamma*h
= 20 (k = 401 is refused before any solve).  The slowest drawn solve,
Chebyshev (52, 20, real), takes about 0.1 s cold on a 2-core machine, and
each spec is solved once: the zeros are kept in a memo private to this
module, which leaves the suite's memo alone.  Larger k and Gamma*h stay
covered by `scripts/zero_grid.py` and `scripts/cli_outputs.sh`.

The second property draws one call that takes an operator: `SectorBlocks`
(then `np.asarray(U)` and `U @ x`), `suggest_gamma`, `eval_factorized` and
`eval_summed` at one spec (Taylor k = 3, h = 0.1), or `exact_evolution`.
Its arrays have the shapes 0x0, 1x1, 2x2, 2x3, 8x8, 1-D and 3-D, square
ones drawn as they come, Hermitian or diagonal (an 8x8 diagonal takes the
entry path of a state), with entries 0, +-1, 1e308, 1j, nan and inf; its
sectors partition 0..n-1 for n <= 8, or overlap, leave a gap, run out of
range, hold floats, hold an empty sector or are none.  So dim <= 8 and
every draw is a few small products: the 100 cases take about a second.
A call returns a value of the shape it promises, or raises an error of
trotterkit's own, never a raw NumPy or Python exception; sectors that do
not partition are refused.  Floating-point warnings (overflow or an
invalid value, from entries as large as 1e308 or non-finite targets) are
IEEE arithmetic on accepted input, and are recorded, not raised.
"""

import contextlib
import functools
import io
import math
import warnings
from unittest import mock

import numpy as np
from hypothesis import given, strategies as st

from trotterkit import polyexp
from trotterkit.cli import main
from trotterkit.compose import SectorBlocks
from trotterkit.errors import DimensionError, TrotterkitError
from trotterkit.polyexp import SeriesSpec, eval_factorized, eval_summed, factorize, suggest_gamma
from trotterkit.spinmodel import exact_evolution

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


# ---------------------------------------------------------------------------
# calls that take an operator

ENTRIES = [0.0, 1.0, -1.0, 1e308, 1j, math.nan, math.inf]
SHAPES = [(0, 0), (1, 1), (2, 2), (2, 3), (8, 8), (2,), (2, 2, 2)]
SECTOR_KINDS = ["partition", "overlap", "gap", "out of range", "floats", "empty sector",
                "no sectors"]


@st.composite
def entries(draw, shape):
    """An array of this shape drawn from ENTRIES: complex, or float64
    when no entry is complex and the draw asks for it."""
    n = math.prod(shape)
    a = np.array(draw(st.lists(st.sampled_from(ENTRIES), min_size=n, max_size=n)),
                 dtype=complex).reshape(shape)
    if not a.imag.any() and draw(st.booleans()):
        a = a.real.copy()
    return a


@st.composite
def operators(draw):
    """A matrix or array of a drawn shape; a square one as drawn, made
    Hermitian (its upper triangle mirrored, a real diagonal) or diagonal."""
    a = draw(entries(draw(st.sampled_from(SHAPES))))
    if a.ndim == 2 and a.shape[0] == a.shape[1]:
        form = draw(st.sampled_from(["as drawn", "hermitian", "diagonal"]))
        if form != "as drawn":
            a = np.triu(a) + np.triu(a, 1).conj().T
            a[np.diag_indices(len(a))] = a.diagonal().real
        if form == "diagonal":
            a = np.diag(np.diag(a))
    return a


@st.composite
def targets(draw, dim):
    """A target for an operator of this dim: a scalar, a state, a block, a
    3-D array or a state one too long."""
    shape = draw(st.sampled_from([(), (dim,), (dim, 2), (dim, 2, 2), (dim + 1,)]))
    return draw(entries(shape))


@st.composite
def sector_sets(draw):
    """(sectors, kind): a partition of 0..n-1 for n <= 8 into one or two
    sectors, or one changed to be of the kind drawn."""
    n = draw(st.integers(1, 8))
    perm = np.array(draw(st.permutations(range(n))), dtype=np.intp)
    cut = draw(st.integers(1, n))
    sectors = [perm[:cut], perm[cut:]] if cut < n else [perm]
    kind = draw(st.sampled_from(SECTOR_KINDS))
    if kind == "overlap":
        sectors[-1] = np.append(sectors[-1], perm[0])
    elif kind == "gap":
        skip = draw(st.integers(0, n - 1))
        sectors = [np.where(s >= skip, s + 1, s) for s in sectors]
    elif kind == "out of range":
        sectors[-1] = np.append(sectors[-1], draw(st.sampled_from([n, -1])))
    elif kind == "floats":
        sectors[0] = sectors[0] + draw(st.sampled_from([0.0, 0.5]))
    elif kind == "empty sector":
        sectors.append(np.empty(0, dtype=np.intp))
    elif kind == "no sectors":
        sectors = []
    return sectors, kind


@st.composite
def operator_calls(draw):
    """(name, arguments) of one call that takes an operator."""
    name = draw(st.sampled_from(["SectorBlocks", "suggest_gamma", "eval_factorized",
                                 "eval_summed", "exact_evolution"]))
    if name == "SectorBlocks":
        sectors, kind = draw(sector_sets())
        blocks = [draw(entries((len(s), len(s)))) for s in sectors]
        dim = sum(map(len, sectors))
        return name, (sectors, kind, blocks, draw(targets(dim)))
    if name == "suggest_gamma":
        eigvals = draw(st.sampled_from([None, [], [math.nan], [math.inf], [1e308], [1j],
                                        [-4.0, 2.0]]))
        return name, (draw(operators()), eigvals)
    if name == "exact_evolution":
        return name, (draw(operators()), draw(st.sampled_from([0.0, 1.3, -2.0, math.nan, math.inf])))
    # an operator, or a scalar from ENTRIES
    h_op = draw(st.one_of(operators(), st.sampled_from(ENTRIES).map(complex)))
    dim = np.shape(h_op)[0] if np.ndim(h_op) else 2
    return name, (h_op, draw(targets(dim)))


@functools.cache
def small_factorization():
    return factorize(SeriesSpec("taylor", 3, h=0.1))


def call(name, args):
    """The value of one drawn call; checks the shape it promises."""
    if name == "SectorBlocks":
        sectors, kind, blocks, x = args
        u = SectorBlocks(sectors, blocks)
        assert kind == "partition", kind
        dim = sum(map(len, sectors))
        dense = np.asarray(u)
        assert dense.shape == (dim, dim) and dense.dtype == u.dtype
        return u @ x
    if name == "suggest_gamma":
        gamma = suggest_gamma(*args)
        assert math.isfinite(gamma) and gamma >= 0
        return gamma
    if name == "exact_evolution":
        u = exact_evolution(*args)
        assert u.shape == np.shape(args[0])
        return u
    h_op, target = args
    spec = small_factorization().spec
    got = (eval_factorized(h_op, target, small_factorization()) if name == "eval_factorized"
           else eval_summed(h_op, target, spec))
    assert np.shape(got) == np.shape(target)
    return got


@given(operator_calls())
def test_property_operator_inputs_give_a_value_or_one_trotterkit_error(drawn):
    name, args = drawn
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            call(name, args)
        except TrotterkitError as exc:
            # sectors that do not partition are refused as such
            if name == "SectorBlocks" and args[1] != "partition":
                assert isinstance(exc, DimensionError), (args[1], exc)
    for w in caught:
        assert issubclass(w.category, RuntimeWarning), (name, w.message)
        assert str(w.message).startswith(("overflow encountered", "invalid value encountered")), (
            name, w.message)
