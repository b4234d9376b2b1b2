"""The partition-indexed family: construction, counts, witness quadric, bound,
and membership by one witness permutation."""

import itertools
from math import comb

import pytest

from togliatti import (
    InvalidArgumentError,
    MonomialSystem,
    equality_partitions,
    family_system,
    fails_wlp_in_degree_dminus1,
    is_minimal_togliatti,
    lattice_points_simplex,
    member_partition,
    mu_formula,
    quadric_space,
    smoothness_check,
    valid_partitions,
)
from togliatti.graphs import extract_partition
from togliatti.monomials import PartitionSpec

import conftest
from oracles import member_partition_by_canonical_form


class TestMuFormula:
    def test_all_ones_n3(self):
        assert mu_formula(PartitionSpec((1, 1, 1, 1), 3)) == 8

    def test_211(self):
        assert mu_formula(PartitionSpec((2, 1, 1), 3)) == comb(4, 3) + 1 + 1 + 2

    def test_22(self):
        assert mu_formula(PartitionSpec((2, 2), 3)) == 8

    def test_togliatti(self):
        assert mu_formula(PartitionSpec((1, 1, 1), 2)) == 4

    def test_411_meets_bound(self):
        assert mu_formula(PartitionSpec((4, 1, 1), 5)) == comb(6, 3) + 6

    def test_counts_match_construction(self):
        for n in range(2, 8):
            for spec in valid_partitions(n):
                fam = family_system(spec)
                assert len(fam.sys.generators) == mu_formula(spec) == fam.mu
                assert fam.beta == comb(n + 3, 3) - fam.mu


class TestFamilySystem:
    def test_togliatti_n2(self):
        fam = family_system(PartitionSpec((1, 1, 1), 2))
        assert fam.sys.generators == (
            (0, 0, 3), (0, 3, 0), (1, 1, 1), (3, 0, 0)
        )

    def test_artinian(self):
        for n in range(2, 6):
            for spec in valid_partitions(n):
                assert family_system(spec).sys.artinian

    def test_invalid_partition_rejected(self):
        with pytest.raises(InvalidArgumentError):
            PartitionSpec((3, 1), 3)  # part n and above excluded


class TestWitnessQuadric:
    def test_togliatti_pattern(self):
        fam = family_system(PartitionSpec((1, 1, 1), 2))
        q = fam.witness_quadric
        assert q.diag == (2, 2, 2)
        assert q.cross == (-5, -5, -5)
        assert q.evaluate((2, 1, 0)) == 0

    def test_within_group_coefficient(self):
        q = family_system(PartitionSpec((2, 1, 1), 3)).witness_quadric
        assert q.cross_coeff(0, 1) == 4  # same group: -5 + 9
        assert q.cross_coeff(0, 2) == -5
        assert q.evaluate((1, 1, 1, 0)) == 0  # x0x1x2 meets group {0,1} twice
        assert q.evaluate((3, 0, 0, 0)) == 18

    def test_vanishes_exactly_on_apolar(self):
        for n in range(2, 7):
            for spec in valid_partitions(n):
                fam = family_system(spec)
                q = fam.witness_quadric
                assert all(q.evaluate(p) == 0 for p in fam.sys.apolar)
                assert all(q.evaluate(p) != 0 for p in fam.sys.generators)

    def test_spans_quadric_space(self):
        for n in range(2, 6):
            for spec in valid_partitions(n):
                fam = family_system(spec)
                space = quadric_space(fam.sys.apolar, n)
                assert len(space) == 1
                # kernel vector is the primitive rescaling of the 2/4/-5 form
                q = space[0]
                w = fam.witness_quadric
                assert q.coeff_vector() == w.coeff_vector() or (
                    tuple(-x for x in q.coeff_vector()) == w.coeff_vector()
                )


class TestValidPartitions:
    def test_counts(self):
        assert len(valid_partitions(2)) == 1
        assert len(valid_partitions(3)) == 3
        assert len(valid_partitions(4)) == 5
        assert len(valid_partitions(5)) == 9

    def test_all_valid(self):
        for n in range(2, 8):
            for spec in valid_partitions(n):
                assert sum(spec.parts) == n + 1
                assert spec.parts[0] <= n - 1

    def test_none_below_n2(self):
        assert valid_partitions(1) == []


class TestBound:
    def test_max_mu_equals_bound(self):
        for n in range(3, 9):
            bound = comb(n + 1, 3) + n + 1
            mus = {spec.parts: mu_formula(spec) for spec in valid_partitions(n)}
            assert max(mus.values()) == bound
            argmax = sorted(p for p, mu in mus.items() if mu == bound)
            assert sorted(p.parts for p in equality_partitions(n)) == argmax

    def test_equality_cases(self):
        assert sorted(p.parts for p in equality_partitions(3)) == [
            (1, 1, 1, 1), (2, 1, 1), (2, 2)
        ]
        assert sorted(p.parts for p in equality_partitions(5)) == [
            (1, 1, 1, 1, 1, 1), (4, 1, 1)
        ]
        assert [p.parts for p in equality_partitions(2)] == [(1, 1, 1)]
        # (2,2) appears only at n=3
        for n in range(4, 9):
            expected = sorted([(n - 1, 1, 1), tuple([1] * (n + 1))])
            assert sorted(p.parts for p in equality_partitions(n)) == expected


class TestFamilyVerdicts:
    def test_full_sweep(self):
        for n in range(2, 6):
            for spec in valid_partitions(n):
                fam = family_system(spec)
                assert fails_wlp_in_degree_dminus1(fam.sys).fails
                assert is_minimal_togliatti(fam.sys).minimal
                assert smoothness_check(fam.sys.apolar).smooth
                assert extract_partition(fam.sys) == spec


def permuted_members(rng, n, count):
    """(spec, member) pairs: each family system under `count` seeded permutations."""
    for spec in valid_partitions(n):
        for _ in range(count):
            perm = list(range(n + 1))
            rng.shuffle(perm)
            yield spec, family_system(spec).sys.permuted(perm)


def perturbations(rng, sys, count):
    """One-point perturbations: a point moved from P into S, or from S into P."""
    for _ in range(count):
        yield MonomialSystem.from_generators(sys.n, 3, sys.generators + (rng.choice(sys.apolar),))
        dropped = rng.choice(sys.generators)
        yield MonomialSystem.from_generators(
            sys.n, 3, [m for m in sys.generators if m != dropped]
        )


class TestMemberPartitionMatchesCanonicalFormOracle:
    """The witness permutation against the canonical-form comparison it replaced."""

    def test_permuted_members(self):
        rng = conftest.seeded_rng(61)
        for n, count in ((2, 4), (3, 4), (4, 3), (5, 2)):
            for spec, sys in permuted_members(rng, n, count):
                assert member_partition(sys) == spec
                assert member_partition_by_canonical_form(sys) == spec

    def test_one_point_perturbations(self):
        rng = conftest.seeded_rng(62)
        checked = 0
        for n in range(2, 6):
            for _, member in permuted_members(rng, n, 1):
                for sys in perturbations(rng, member, 2):
                    assert member_partition(sys) == member_partition_by_canonical_form(sys)
                    checked += 1
        assert checked == 4 * (1 + 3 + 5 + 9)

    def test_every_artinian_system_n2(self):
        points = lattice_points_simplex(2, 3)
        cubes = [m for m in points if max(m) == 3]
        pool = [m for m in points if max(m) < 3]
        found = []
        for k in range(len(pool) + 1):
            for extras in itertools.combinations(pool, k):
                sys = MonomialSystem.from_generators(2, 3, cubes + list(extras))
                spec = member_partition(sys)
                assert spec == member_partition_by_canonical_form(sys)
                if spec is not None:
                    found.append(sys)
        brenner_kaid = family_system(PartitionSpec((1, 1, 1), 2)).sys
        assert [sys.generators for sys in found] == [brenner_kaid.generators]

    def test_n3_up_to_five_extras(self):
        points = lattice_points_simplex(3, 3)
        cubes = [m for m in points if max(m) == 3]
        pool = [m for m in points if max(m) < 3]
        members = {}
        checked = 0
        for k in range(6):
            for extras in itertools.combinations(pool, k):
                sys = MonomialSystem.from_generators(3, 3, cubes + list(extras))
                spec = member_partition(sys)
                assert spec == member_partition_by_canonical_form(sys)
                checked += 1
                if spec is not None:
                    members[spec.parts] = members.get(spec.parts, 0) + 1
        assert checked == sum(comb(16, k) for k in range(6))
        # the orbit sizes of the three n=3 family members: 4!/|stabiliser|
        assert members == {(2, 2): 3, (2, 1, 1): 6, (1, 1, 1, 1): 1}

    def test_non_cubic_and_asymmetric_systems_are_not_members(self):
        sys = MonomialSystem.from_generators(2, 2, [(2, 0, 0), (0, 2, 0), (0, 0, 2)])
        assert member_partition(sys) is None
        # x0^2*x1 in P but x1^2*x0 not: G_P is not symmetric
        asym = MonomialSystem.from_apolar(2, 3, [(2, 1, 0), (1, 1, 1)])
        assert member_partition(asym) is None
        assert member_partition_by_canonical_form(asym) is None
