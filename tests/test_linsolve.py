"""The fraction-free Z[i] solver against the plain Gauss-Jordan oracle."""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from specfactor.linsolve import matrix_rank, solve_linear
from specfactor.scalars import GaussianRational as GR

from oracles import ref_rank, ref_solve

# pivots that are units other than 1 and Gaussian non-units: a kernel that
# skips dividing by a previous pivot of norm 1 gets the signs wrong
PIVOTS = [GR(-1), GR(0, 1), GR(0, -1), GR(1, 1), GR(2, -1)]

scalars = st.one_of(
    st.just(GR(0)),
    st.sampled_from(PIVOTS),
    st.builds(GR, st.fractions(-4, 4, max_denominator=6), st.fractions(-3, 3, max_denominator=4)),
)

# a system with every imaginary part zero takes the kernel's real-only loop,
# which the scalars above almost never draw; its pivots are real non-units
# and -1, a unit that still has to be divided out
REAL_PIVOTS = [GR(-1), GR(2), GR(-3)]

real_scalars = st.one_of(
    st.just(GR(0)),
    st.sampled_from(REAL_PIVOTS),
    st.builds(GR, st.fractions(-4, 4, max_denominator=6)),
)


@st.composite
def systems(draw, entries=scalars, min_k=0):
    """(a, b): rectangular, with zero rows and columns, repeated and combined
    rows (rank deficiency) and right-hand sides in or out of the range."""
    m, n, k = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(min_k, 2))
    a = [[draw(entries) for _ in range(n)] for _ in range(m)]
    b = [[draw(entries) for _ in range(k)] for _ in range(m)]
    for i in range(m):
        kind = draw(st.sampled_from(["keep", "zero", "combine"]))
        if kind == "zero":
            a[i] = [GR(0)] * n
        elif kind == "combine" and i >= 1:
            j, c = draw(st.integers(0, i - 1)), draw(entries)
            a[i] = [x * c + y for x, y in zip(a[j], a[i - 1])]
            b[i] = [x * c + y for x, y in zip(b[j], b[i - 1])]
    for col in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        for row in a:
            row[col] = GR(0)
    return a, b


def _cleared(row):
    """The row times the product of all its denominators."""
    den = prod(x.re.denominator * x.im.denominator for x in row)
    return [((x.re * den).numerator, (x.im * den).numerator) for x in row]


def _solve(a, b):
    """solve_linear on a and b cleared row by row, read back as scalars."""
    rows = [_cleared(list(ra) + list(rb)) for ra, rb in zip(a, b)]
    n = len(a[0])
    solved = solve_linear([row[:n] for row in rows], [row[n:] for row in rows])
    if solved is None:
        return None
    den, particular, basis = solved
    assert den > 0

    def scalar(v):
        return GR(Fraction(v[0], den), Fraction(v[1], den))

    return [[scalar(v) for v in row] for row in particular], [[scalar(v) for v in vec] for vec in basis]


@settings(max_examples=300, deadline=None)
@given(systems())
@example(([[GR(0, 1), GR(1)], [GR(1), GR(0)]], [[GR(1)], [GR(2)]]))
@example(([[GR(1), GR(2)], [GR(2), GR(4)]], [[GR(1)], [GR(3)]]))
@example(([[GR(0), GR(0)]], [[]]))
def test_solve_linear_matches_oracle(system):
    a, b = system
    assert _solve(a, b) == ref_solve(a, b)
    assert matrix_rank(a) == ref_rank(a)


@settings(max_examples=300, deadline=None)
@given(systems(real_scalars))
@example(([[GR(-1), GR(2)], [GR(2), GR(-3)]], [[GR(1)], [GR(0)]]))
@example(([[GR(2), GR(4)], [GR(-3), GR(-6)]], [[GR(1)], [GR(3)]]))
def test_real_systems_match_oracle(system):
    a, b = system
    assert _solve(a, b) == ref_solve(a, b)
    assert matrix_rank(a) == ref_rank(a)


@settings(max_examples=100, deadline=None)
@given(systems(real_scalars, min_k=1), st.data())
def test_an_imaginary_right_hand_side_alone_is_solved_as_complex(system, data):
    # one nonzero imaginary part, in b, sends the whole system down the
    # complex loop
    a, b = system
    i, j = data.draw(st.integers(0, len(b) - 1)), data.draw(st.integers(0, len(b[0]) - 1))
    b[i][j] = GR(b[i][j].re, data.draw(st.sampled_from([Fraction(1), Fraction(-2), Fraction(1, 3)])))
    assert _solve(a, b) == ref_solve(a, b)


@pytest.mark.parametrize("first", PIVOTS)
@pytest.mark.parametrize("second", PIVOTS)
def test_unit_and_non_unit_pivots(first, second):
    # first and second become the first two pivots as they stand, and the
    # third pivot is divided by second
    a = [[first, GR(1), GR(2), GR(1, -1)],
         [GR(0), second, GR(-1), GR(3)],
         [GR(0), GR(1), GR(1), GR(0, 2)]]
    b = [[GR(1), GR(0)], [GR(0, 1), GR(1, 2)], [GR(-2), GR(1)]]
    assert _solve(a, b) == ref_solve(a, b)
    assert matrix_rank(a) == ref_rank(a) == 3


@pytest.mark.parametrize("first", REAL_PIVOTS)
@pytest.mark.parametrize("second", REAL_PIVOTS)
def test_real_pivots(first, second):
    a = [[first, GR(1), GR(2), GR(-1)],
         [GR(0), second, GR(-1), GR(3)],
         [GR(0), GR(1), GR(1), GR(2)]]
    b = [[GR(1), GR(0)], [GR(-1), GR(Fraction(1, 2))], [GR(-2), GR(1)]]
    assert _solve(a, b) == ref_solve(a, b)
    assert matrix_rank(a) == ref_rank(a) == 3


def test_degenerate_inputs():
    assert solve_linear([], []) == (1, [], [])
    assert solve_linear([[(0, 0), (0, 0)]], [[]]) == (1, [[], []], [[(1, 0), (0, 0)], [(0, 0), (1, 0)]])
    assert matrix_rank([]) == matrix_rank([[]]) == 0


def test_inconsistent_system_is_none():
    a = [[GR(1), GR(0, 1)], [GR(-1), GR(0, -1)]]
    assert _solve(a, [[GR(1)], [GR(1)]]) is None
    assert ref_solve(a, [[GR(1)], [GR(1)]]) is None
    with pytest.raises(ValueError):
        solve_linear([[(1, 0)]], [])
