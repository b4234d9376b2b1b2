"""Algebraic predicates: multiplication map, WLP, quadrics, minimality, Laplace count."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from togliatti import (
    MonomialSystem,
    PreconditionError,
    QuadricForm,
    build_multiplication_map,
    check_command,
    fails_wlp_in_degree_dminus1,
    is_minimal_togliatti,
    laplace_delta,
    lattice_points_simplex,
    quadric_space,
    restricted_dependence,
)
from togliatti.lefschetz import witness_product_in_ideal, poly_mul
from togliatti.linalg import rank

import conftest


class TestMultiplicationMap:
    def test_brenner_kaid_shape_and_rank(self, brenner_kaid):
        mm = build_multiplication_map(brenner_kaid)
        assert len(mm.source) == 6
        assert len(mm.target) == 6
        assert rank(list(mm.matrix), 6) == 5

    def test_n1_shape(self):
        sys = MonomialSystem.from_generators(1, 3, [(3, 0), (0, 3)])
        mm = build_multiplication_map(sys)
        assert len(mm.source) == 3
        assert len(mm.target) == 2

    def test_truncated_simplex_shape(self):
        sys = conftest.truncated_simplex_system(2)
        mm = build_multiplication_map(sys)
        assert len(mm.source) == 6
        assert len(mm.target) == 6

    def test_column_sums_bounded(self, counterex3):
        mm = build_multiplication_map(counterex3)
        for c in range(len(mm.source)):
            assert sum(row[c] for row in mm.matrix) <= counterex3.n + 1

    def test_non_artinian_rejected(self):
        sys = MonomialSystem.from_generators(2, 3, [(3, 0, 0)])
        with pytest.raises(PreconditionError):
            build_multiplication_map(sys)


class TestWlp:
    def test_brenner_kaid_fails_with_witness(self, brenner_kaid):
        res = fails_wlp_in_degree_dminus1(brenner_kaid)
        assert res.fails
        # witness proportional to x0^2+x1^2+x2^2-x0x1-x0x2-x1x2
        expected = {
            (2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1,
            (1, 1, 0): -1, (1, 0, 1): -1, (0, 1, 1): -1,
        }
        scale = Fraction(res.witness[(2, 0, 0)], expected[(2, 0, 0)])
        assert res.witness == {m: c * scale for m, c in expected.items()}

    def test_witness_product_is_sum_of_cubes(self, brenner_kaid):
        res = fails_wlp_in_degree_dminus1(brenner_kaid)
        linear = {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
        product = poly_mul(linear, res.witness)
        scale = product[(3, 0, 0)]
        assert product == {
            (3, 0, 0): scale, (0, 3, 0): scale, (0, 0, 3): scale,
            (1, 1, 1): -3 * scale,
        }

    def test_complete_intersection_has_wlp(self):
        sys = MonomialSystem.from_generators(2, 3, [(3, 0, 0), (0, 3, 0), (0, 0, 3)])
        assert not fails_wlp_in_degree_dminus1(sys).fails

    def test_over_cardinality_bound_is_reported(self):
        # Brenner-Kaid plus x0^2*x1: artinian, |S| = 5 over the n=2 bound 4,
        # and still failing WLP, since S only grew in degree 3.  The bound is
        # a report field, not a warning (pytest turns UserWarning into an error).
        sys = MonomialSystem.from_generators(
            2, 3, [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1), (2, 1, 0)]
        )
        assert sys.artinian
        assert fails_wlp_in_degree_dminus1(sys).fails
        report = check_command(sys)
        assert report["cardinality_ok"] is False
        assert report["fails_wlp"] is True
        assert report["togliatti"] is False


class TestRestrictedDependence:
    def test_brenner_kaid(self, brenner_kaid):
        assert restricted_dependence(brenner_kaid)

    def test_complete_intersection(self):
        sys = MonomialSystem.from_generators(2, 3, [(3, 0, 0), (0, 3, 0), (0, 0, 3)])
        assert not restricted_dependence(sys)

    def test_n1_pure_cubes(self):
        sys = MonomialSystem.from_generators(1, 3, [(3, 0), (0, 3)])
        assert restricted_dependence(sys)

    def test_agrees_with_kernel_on_random_systems(self):
        rng = conftest.seeded_rng(101)
        for _ in range(60):
            sys = conftest.random_artinian_system(rng, rng.choice([2, 3]))
            kernel_says = fails_wlp_in_degree_dminus1(sys).fails
            assert restricted_dependence(sys) == kernel_says


class TestQuadricSpace:
    def test_togliatti_quadric(self, brenner_kaid):
        space = quadric_space(brenner_kaid.apolar, 2)
        assert len(space) == 1
        q = space[0]
        assert q.diag == (2, 2, 2)
        assert q.cross == (-5, -5, -5)
        assert q.evaluate((2, 1, 0)) == 0
        assert q.evaluate((3, 0, 0)) != 0

    def test_full_simplex_no_quadric(self):
        assert quadric_space(lattice_points_simplex(2, 3), 2) == []

    def test_empty_set_all_quadrics(self):
        assert len(quadric_space([], 2)) == comb(4, 2)

    def test_evaluation_matches_form(self):
        q = QuadricForm((1, 2, 3), (4, 5, 6))
        # 1*a^2 + 2*b^2 + 3*c^2 + 4ab + 5ac + 6bc at (1,1,1)
        assert q.evaluate((1, 1, 1)) == 21
        assert q.cross_coeff(0, 1) == 4
        assert q.cross_coeff(2, 1) == 6


class TestMinimality:
    def test_brenner_kaid_minimal(self, brenner_kaid):
        res = is_minimal_togliatti(brenner_kaid)
        assert res.minimal
        assert res.quadric is not None

    def test_p15_not_minimal(self, p15):
        res = is_minimal_togliatti(p15)
        assert not res.minimal
        point, quadric = res.violation
        # certificate: some quadric through P also vanishes at a generator point
        if point is not None:
            assert point in p15.generators
            assert quadric.evaluate(point) == 0
            assert all(quadric.evaluate(p) == 0 for p in p15.apolar)

    def test_p12_not_minimal(self, p12):
        # unique quadric x0*x1 through P also vanishes at generators like x2^3
        res = is_minimal_togliatti(p12)
        assert not res.minimal
        space = quadric_space(p12.apolar, 3)
        assert len(space) == 1
        assert space[0].diag == (0, 0, 0, 0)
        assert space[0].cross_coeff(0, 1) != 0

    def test_requires_wlp_failure(self):
        sys = MonomialSystem.from_generators(2, 3, [(3, 0, 0), (0, 3, 0), (0, 0, 3)])
        with pytest.raises(PreconditionError):
            is_minimal_togliatti(sys)

    def test_uniqueness_relations(self, counterex3):
        # mu_i == mu_j == -2 mu_{i,j} / 5 whenever both mixed squares are in P
        q = is_minimal_togliatti(counterex3).quadric
        apolar = set(counterex3.apolar)
        n1 = counterex3.n + 1
        for i in range(n1):
            for j in range(i + 1, n1):
                a = [0] * n1
                a[i], a[j] = 2, 1
                b = [0] * n1
                b[i], b[j] = 1, 2
                if tuple(a) in apolar and tuple(b) in apolar:
                    assert q.diag[i] == q.diag[j]
                    assert 5 * q.diag[i] == -2 * q.cross_coeff(i, j)


class TestLaplaceDelta:
    def test_togliatti_n2(self, brenner_kaid):
        assert laplace_delta(brenner_kaid.apolar, 2) == 1

    def test_full_veronese(self):
        assert laplace_delta(lattice_points_simplex(2, 3), 2) == 0

    def test_truncated_simplex(self):
        for n in range(2, 5):
            assert laplace_delta(conftest.truncated_simplex_apolar(n), n) == 1

    def test_degenerate_rejected(self):
        with pytest.raises(PreconditionError):
            laplace_delta([(3, 0, 0), (0, 3, 0)], 2)
        with pytest.raises(PreconditionError):
            laplace_delta([], 2)

    def test_equals_quadric_dimension(self):
        # the two order-2 deficiency counts agree for cubic systems
        rng = conftest.seeded_rng(55)
        for _ in range(60):
            sys = conftest.random_artinian_system(rng, rng.choice([2, 3]))
            try:
                delta = laplace_delta(sys.apolar, sys.n)
            except PreconditionError:
                continue
            assert delta == len(quadric_space(sys.apolar, sys.n))


class TestWitnessProduct:
    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_product_supported_on_generators(self, seed):
        rng = conftest.seeded_rng(seed)
        sys = conftest.random_artinian_system(rng, rng.choice([2, 3]))
        res = fails_wlp_in_degree_dminus1(sys)
        if res.fails:
            assert witness_product_in_ideal(sys, res.witness)
