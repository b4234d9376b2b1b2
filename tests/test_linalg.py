"""Exact linear algebra: rank, kernels, HNF, lattice coordinates and indices.

The Smith form, RREF and matrix-vector product are test oracles
(tests/oracles.py); their own checks stay here.
"""

import itertools
import random
from fractions import Fraction
from math import gcd, inf

import pytest
from hypothesis import given, settings, strategies as st

from togliatti import ContainmentError
import oracles
from oracles import matvec, rref, smith_diagonal
from togliatti.linalg import (
    LatticeBasis,
    det_bareiss,
    hnf,
    kernel_basis,
    lattice_index,
    rank,
)

small_int = st.integers(-9, 9)


def random_matrix(rng, rows, cols, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


class TestRank:
    def test_identity(self):
        assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3

    def test_zero(self):
        assert rank([[0, 0], [0, 0]]) == 0

    def test_empty(self):
        assert rank([]) == 0

    def test_rational_entries(self):
        assert rank([[Fraction(1, 2), 1], [1, 2]]) == 1

    def test_rank_plus_nullity(self):
        rng = random.Random(11)
        for _ in range(200):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = random_matrix(rng, rows, cols)
            assert rank(m, cols) == cols - len(kernel_basis(m, cols))


class TestKernel:
    def test_identity_trivial(self):
        assert kernel_basis([[1, 0], [0, 1]], 2) == []

    def test_one_relation(self):
        assert kernel_basis([[1, -1]], 2) == [(1, 1)]

    def test_empty_matrix_full_kernel(self):
        basis = kernel_basis([], 3)
        assert len(basis) == 3

    def test_vectors_annihilated(self):
        rng = random.Random(23)
        for _ in range(100):
            rows, cols = rng.randint(1, 5), rng.randint(1, 6)
            m = random_matrix(rng, rows, cols)
            for v in kernel_basis(m, cols):
                assert all(x == 0 for x in matvec(m, v))

    def test_primitive_normalization(self):
        for v in kernel_basis([[2, -4]], 2):
            g = 0
            for x in v:
                g = gcd(g, x)
            assert g == 1
            leading = next(x for x in v if x != 0)
            assert leading > 0


class TestDeterminant:
    def test_small(self):
        assert det_bareiss([[1, 2], [3, 4]]) == -2
        assert det_bareiss([[2, 0], [0, 3]]) == 6
        assert det_bareiss([]) == 1

    def test_singular(self):
        assert det_bareiss([[1, 2], [2, 4]]) == 0

    def test_matches_permutation_expansion(self):
        rng = random.Random(5)
        for _ in range(50):
            k = rng.randint(1, 4)
            m = random_matrix(rng, k, k)
            expected = 0
            for perm in itertools.permutations(range(k)):
                sign = 1
                for i in range(k):
                    for j in range(i + 1, k):
                        if perm[i] > perm[j]:
                            sign = -sign
                term = sign
                for i in range(k):
                    term *= m[i][perm[i]]
                expected += term
            assert det_bareiss(m) == expected


class TestHnf:
    def test_diagonal(self):
        basis = hnf([(2, 0), (0, 2)]).basis
        assert basis == ((2, 0), (0, 2))

    def test_standard_basis(self):
        assert hnf([(1, 0), (0, 1), (1, 1)]).basis == ((1, 0), (0, 1))

    def test_truncated_simplex_differences(self):
        # differences of {x_i^2 x_j} span the full zero-sum sublattice of Z^3
        points = [(2, 1, 0), (2, 0, 1), (1, 2, 0), (0, 2, 1), (1, 0, 2), (0, 1, 2)]
        base = min(points)
        diffs = [tuple(a - b for a, b in zip(p, base)) for p in points]
        lat = hnf(diffs, 3)
        assert lat.dimension == 2
        full = hnf([(1, -1, 0), (0, 1, -1)], 3)
        assert lattice_index(lat, full) == 1

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(50):
            vecs = random_matrix(rng, rng.randint(1, 4), 3)
            once = hnf(vecs, 3)
            assert hnf(list(once.basis), 3).basis == once.basis

    def test_membership(self):
        lat = hnf([(2, 0), (0, 2)])
        assert lat.contains((4, 2))
        assert not lat.contains((1, 0))
        assert lat.coordinates((4, 2)) == (2, 1)


@st.composite
def lattice_and_vector(draw):
    """(HNF lattice, vector): the vector lies in the lattice, in its span
    only, or anywhere (mostly outside the span when the rank is deficient).

    The lattice is spanned by k*g over generators g, so integer
    combinations of the g lie in the span but in the lattice only when k
    divides enough.
    """
    ambient = draw(st.integers(1, 5))
    vec = st.lists(small_int, min_size=ambient, max_size=ambient)
    gens = draw(st.lists(vec, max_size=ambient + 1))
    k = draw(st.integers(1, 3))
    lat = hnf([[k * x for x in g] for g in gens], ambient)
    kind = draw(st.sampled_from(["lattice", "span", "any"]))
    if kind == "any":
        return lat, tuple(draw(vec))
    rows = lat.basis if kind == "lattice" else gens
    coeffs = draw(st.lists(st.integers(-4, 4), min_size=len(rows), max_size=len(rows)))
    out = [0] * ambient
    for c, row in zip(coeffs, rows):
        out = [a + c * b for a, b in zip(out, row)]
    return lat, tuple(out)


class TestCoordinatesMatchFractionOracle:
    """Integer back-substitution against the Fraction coordinates it replaced."""

    @given(lattice_and_vector())
    @settings(max_examples=500, deadline=None)
    def test_random_hnf_lattices(self, case):
        lat, vec = case
        coords = lat.coordinates(vec)
        assert coords == oracles.fraction_coordinates(lat, vec)
        assert lat.contains(vec) == (coords is not None)
        if coords is not None:
            assert all(type(c) is int for c in coords)
            back = [0] * lat.ambient
            for c, row in zip(coords, lat.basis):
                back = [a + c * b for a, b in zip(back, row)]
            assert tuple(back) == vec

    @pytest.mark.parametrize(
        "vec, in_span, expected",
        [
            ((4, 3, 0), True, (2, 3)),  # in the lattice 2Z x Z x 0
            ((1, 0, 0), True, None),  # in the span only: coordinate 1/2
            ((3, 5, 0), True, None),  # the first pivot does not divide
            ((0, 0, 1), False, None),  # outside the span
            ((2, 1, 1), False, None),  # lattice part plus a residual
        ],
    )
    def test_categories(self, vec, in_span, expected):
        lat = hnf([(2, 0, 0), (0, 1, 0)], 3)
        assert (oracles.rational_coordinates(lat, vec) is not None) == in_span
        assert lat.coordinates(vec) == expected == oracles.fraction_coordinates(lat, vec)


class TestLatticeIndex:
    def test_equal(self):
        lat = hnf([(1, 0), (0, 1)])
        assert lattice_index(lat, lat) == 1

    def test_index_two(self):
        assert lattice_index(hnf([(2, 0), (0, 1)]), hnf([(1, 0), (0, 1)])) == 2

    def test_doubling(self):
        rng = random.Random(3)
        for _ in range(20):
            vecs = random_matrix(rng, 3, 3)
            lat = hnf(vecs, 3)
            doubled = hnf([[2 * x for x in row] for row in lat.basis], 3)
            assert lattice_index(doubled, lat) == 2 ** lat.dimension

    def test_rank_deficient_gives_inf(self):
        sub = hnf([(1, 0)], 2)
        sup = hnf([(1, 0), (0, 1)], 2)
        assert lattice_index(sub, sup) == inf

    def test_not_contained(self):
        with pytest.raises(ContainmentError):
            lattice_index(hnf([(1, 0)], 2), hnf([(2, 0)], 2))

    def test_face_basis_index_two(self):
        # directions from x1^2 x2 toward x2^2 x1 and x0^2 x1 inside the
        # triangle face x0^3 x1^3 x2^3: index-2 sublattice of the face lattice
        v = (0, 2, 1)
        d1 = tuple(a - b for a, b in zip((0, 1, 2), v))
        d2 = tuple(a - b for a, b in zip((2, 1, 0), v))
        face = hnf([(1, -1, 0), (0, 1, -1)], 3)
        sub = hnf([d1, d2], 3)
        assert lattice_index(sub, face) == 2


class TestSmith:
    def test_identity(self):
        assert smith_diagonal([[1, 0], [0, 1]]) == [1, 1]

    def test_diag_two(self):
        assert smith_diagonal([[2, 0], [0, 2]]) == [2, 2]

    def test_nondiagonal(self):
        assert smith_diagonal([[1, 1], [1, -1]]) == [1, 2]

    def test_divisibility_chain(self):
        rng = random.Random(17)
        for _ in range(100):
            m = random_matrix(rng, 3, 4)
            diag = smith_diagonal(m)
            for a, b in zip(diag, diag[1:]):
                if a and b:
                    assert b % a == 0

    def test_product_equals_gcd_of_minors(self):
        rng = random.Random(29)
        for _ in range(60):
            m = random_matrix(rng, 3, 4)
            diag = [x for x in smith_diagonal(m) if x]
            r = rank(m, 4)
            assert len(diag) == r
            if r == 0:
                continue
            g = 0
            for row_idx in itertools.combinations(range(3), r):
                for col_idx in itertools.combinations(range(4), r):
                    minor = det_bareiss(
                        [[m[i][j] for j in col_idx] for i in row_idx]
                    )
                    g = gcd(g, abs(minor))
            prod = 1
            for x in diag:
                prod *= x
            assert prod == g


class TestRref:
    @given(st.lists(st.lists(small_int, min_size=3, max_size=3), min_size=1, max_size=4))
    @settings(max_examples=60)
    def test_pivots_are_unit_columns(self, rows):
        m, pivots = rref(rows, 3)
        for r, c in enumerate(pivots):
            col = [m[i][c] for i in range(len(m))]
            assert col[r] == 1
            assert all(x == 0 for i, x in enumerate(col) if i != r)


@st.composite
def matrices(draw, entries):
    """(rows, ncols), with zero rows, duplicate rows and tall shapes mixed in."""
    ncols = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=9))
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    return rows, ncols


integer_matrices = matrices(st.integers(-6, 6))
rational_matrices = matrices(
    st.fractions(min_value=-4, max_value=4, max_denominator=6) | st.integers(-6, 6)
)


class TestIntegerCoreMatchesFractionOracle:
    """The integer elimination core against the rational RREF it replaced."""

    @given(st.one_of(integer_matrices, rational_matrices))
    @settings(max_examples=400, deadline=None)
    def test_kernel_basis(self, matrix):
        rows, ncols = matrix
        assert kernel_basis(rows, ncols) == oracles.fraction_kernel_basis(rows, ncols)

    @given(st.one_of(integer_matrices, rational_matrices))
    @settings(max_examples=400, deadline=None)
    def test_rank(self, matrix):
        rows, ncols = matrix
        assert rank(rows, ncols) == oracles.fraction_rank(rows, ncols)
        assert rank(rows) == oracles.fraction_rank(rows)

    @given(st.one_of(integer_matrices, rational_matrices))
    @settings(max_examples=400, deadline=None)
    def test_rref(self, matrix):
        rows, ncols = matrix
        assert rref(rows, ncols) == oracles.fraction_rref(rows, ncols)

    @pytest.mark.parametrize(
        "rows, ncols",
        [
            ([], 0),
            ([], 3),
            ([[]], 0),
            ([[0, 0, 0]], 3),
            ([[1, 2, 3], [1, 2, 3], [2, 4, 6]], 3),
            ([[1, 2], [3, 4], [5, 6], [7, 8], [0, 0]], 2),
            ([[Fraction(1, 2), Fraction(-1, 3), 1], [3, -2, 6]], 3),
        ],
    )
    def test_edge_shapes(self, rows, ncols):
        assert kernel_basis(rows, ncols) == oracles.fraction_kernel_basis(rows, ncols)
        assert rank(rows, ncols) == oracles.fraction_rank(rows, ncols)
        assert rref(rows, ncols) == oracles.fraction_rref(rows, ncols)

    def test_quadric_evaluation_matrices(self):
        # the matrices of the n=3 search: quadric rows of random apolar sets
        from togliatti.lefschetz import quadric_evaluation_row
        from togliatti.monomials import lattice_points_simplex

        points = lattice_points_simplex(3, 3)
        rng = random.Random(2024)
        for _ in range(300):
            rows = [quadric_evaluation_row(p) for p in sorted(rng.sample(points, rng.randint(0, 20)))]
            assert kernel_basis(rows, 10) == oracles.fraction_kernel_basis(rows, 10)
