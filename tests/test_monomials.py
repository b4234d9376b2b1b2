"""Core model: simplex enumeration, parsing, canonical forms, partitions."""

import itertools
from math import comb

import pytest
from hypothesis import given, strategies as st

from togliatti import (
    InvalidArgumentError,
    MonomialSystem,
    ParseError,
    canonical_form,
    lattice_points_simplex,
    parse_system,
    serialize,
)
from togliatti.family import family_system, valid_partitions
from togliatti.monomials import PartitionSpec, monomial_str, parse_monomial

from conftest import BRENNER_KAID_TEXT, COUNTEREX3_TEXT, random_artinian_system, seeded_rng
from oracles import canonical_form_by_orbit_scan


class TestLatticePoints:
    def test_counts(self):
        assert len(lattice_points_simplex(2, 3)) == 10
        assert len(lattice_points_simplex(3, 3)) == 20
        for n in range(1, 7):
            assert len(lattice_points_simplex(n, 3)) == comb(n + 3, 3)

    def test_n1_d3_explicit(self):
        assert lattice_points_simplex(1, 3) == [(0, 3), (1, 2), (2, 1), (3, 0)]

    def test_sorted_and_degree(self):
        pts = lattice_points_simplex(3, 3)
        assert pts == sorted(pts)
        assert all(sum(p) == 3 for p in pts)

    def test_invalid_arguments(self):
        with pytest.raises(InvalidArgumentError):
            lattice_points_simplex(0, 3)
        with pytest.raises(InvalidArgumentError):
            lattice_points_simplex(2, 0)


class TestParsing:
    def test_togliatti_n2(self):
        sys = parse_system(BRENNER_KAID_TEXT, 2, 3)
        assert len(sys.generators) == 4
        assert len(sys.apolar) == 6
        assert sys.artinian

    def test_apolar_header(self):
        sys = parse_system(COUNTEREX3_TEXT, 3, 3)
        assert len(sys.apolar) == 12
        assert len(sys.generators) == 8
        assert sys.artinian

    def test_tuple_tokens(self):
        sys = parse_system("S: (3,0,0) (0,3,0) (0,0,3) (1,1,1)", 2, 3)
        assert sys.generators == ((0, 0, 3), (0, 3, 0), (1, 1, 1), (3, 0, 0))

    def test_comments_and_multiline(self):
        text = "# leading comment\nS: x0^3 x1^3  # trailing\n x2^3 x0*x1*x2\n"
        sys = parse_system(text, 2, 3)
        assert len(sys.generators) == 4

    def test_index_out_of_range(self):
        with pytest.raises(ParseError):
            parse_system("P: x0^2*x1", 0, 3)

    def test_duplicate_monomial(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_system("S: x0^2*x1 x0^2*x1", 2, 3)

    def test_wrong_degree(self):
        with pytest.raises(ParseError, match="degree"):
            parse_system("S: x0^2", 2, 3)

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_system("x0^3 x1^3", 1, 3)

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_system("S: x0^3\nx1^3\nbogus", 1, 3)
        assert err.value.line == 3

    def test_monomial_roundtrip(self):
        for mono in lattice_points_simplex(3, 3):
            assert parse_monomial(monomial_str(mono), 3, 3) == mono


class TestMonomialSystem:
    def test_partition_of_simplex(self):
        sys = parse_system(BRENNER_KAID_TEXT, 2, 3)
        assert sorted(sys.generators + sys.apolar) == lattice_points_simplex(2, 3)
        assert not set(sys.generators) & set(sys.apolar)

    def test_artinian_detection(self):
        sys = MonomialSystem.from_generators(2, 3, [(3, 0, 0), (0, 3, 0)])
        assert not sys.artinian

    def test_duplicate_rejected(self):
        with pytest.raises(InvalidArgumentError):
            MonomialSystem.from_generators(2, 3, [(3, 0, 0), (3, 0, 0)])

    def test_wrong_degree_rejected(self):
        with pytest.raises(InvalidArgumentError):
            MonomialSystem.from_generators(2, 3, [(2, 0, 0)])

    def test_non_integer_exponents_rejected(self):
        # degree 3 and non-negative, but no lattice point of 3*Delta
        with pytest.raises(InvalidArgumentError, match=r"outside 3\*Delta"):
            MonomialSystem.from_generators(2, 3, [(0.5, 2.5, 0)])


class TestCanonicalForm:
    def test_symmetric_system_fixed(self, brenner_kaid):
        assert canonical_form(brenner_kaid).encoding() == brenner_kaid.encoding()

    def test_swap_invariance(self, brenner_kaid):
        swapped = brenner_kaid.permuted((1, 0, 2))
        assert canonical_form(swapped).encoding() == canonical_form(brenner_kaid).encoding()

    def test_counterex_swap(self, counterex3):
        swapped = counterex3.permuted((0, 1, 3, 2))
        assert canonical_form(swapped).encoding() == canonical_form(counterex3).encoding()

    def test_idempotent(self, counterex3):
        once = canonical_form(counterex3)
        assert canonical_form(once).encoding() == once.encoding()

    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    def test_class_function(self, sys_seed, perm_seed):
        # canonical_form(sigma . sys) == canonical_form(sys) for random sigma
        import conftest

        rng = conftest.seeded_rng(sys_seed)
        n = rng.choice([2, 3, 4, 5])
        sys = conftest.random_artinian_system(rng, n)
        perm = list(range(n + 1))
        conftest.seeded_rng(perm_seed).shuffle(perm)
        assert (
            canonical_form(sys.permuted(tuple(perm))).encoding()
            == canonical_form(sys).encoding()
        )


class TestCanonicalFormMatchesOrbitScan:
    """The position-by-position search returns the encoding of the scan over
    all of S_{n+1}, byte for byte."""

    @staticmethod
    def assert_same(sys):
        assert canonical_form(sys).encoding() == canonical_form_by_orbit_scan(sys).encoding()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_family_members_and_perturbations(self, n):
        # each member under a seeded relabelling, and with one apolar point
        # moved into S, as the bench's algebra_n6 workload builds them
        rng = seeded_rng(n)
        for spec in valid_partitions(n):
            perm = list(range(n + 1))
            rng.shuffle(perm)
            sys = family_system(spec).sys.permuted(tuple(perm))
            self.assert_same(sys)
            moved = rng.choice(sys.apolar)
            self.assert_same(MonomialSystem.from_generators(n, 3, sys.generators + (moved,)))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_random_artinian(self, n):
        rng = seeded_rng(100 + n)
        for _ in range(30):
            self.assert_same(random_artinian_system(rng, n))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_non_artinian(self, n):
        # without the pure cubes a block part can be a proper prefix of
        # another, which a plain tuple comparison of the parts gets wrong
        rng = seeded_rng(200 + n)
        points = lattice_points_simplex(n, 3)
        for _ in range(150):
            gens = rng.sample(points, rng.randint(0, len(points)))
            sys = MonomialSystem.from_generators(n, 3, gens)
            self.assert_same(sys)
            self.assert_same(sys.permuted(tuple(rng.sample(range(n + 1), n + 1))))

    @pytest.mark.parametrize(
        "gens, expected",
        [([(3, 0, 0)], ((0, 0, 3),)), ([(2, 1, 0)], ((0, 1, 2),))],
    )
    def test_prefix_part_wins(self, gens, expected):
        # on the block of x2 the empty part is a proper prefix of a nonempty
        # one, and must lose to it
        sys = MonomialSystem.from_generators(2, 3, gens)
        assert canonical_form(sys).encoding() == expected
        self.assert_same(sys)


class TestSerialize:
    def test_roundtrip_generators(self, counterex3):
        text = serialize(counterex3, "S")
        assert parse_system(text, 3, 3).encoding() == counterex3.encoding()

    def test_roundtrip_apolar(self, counterex3):
        text = serialize(counterex3, "P")
        assert parse_system(text, 3, 3).encoding() == counterex3.encoding()

    def test_unknown_side_rejected(self, counterex3):
        with pytest.raises(InvalidArgumentError, match="which must be 'S' or 'P'"):
            serialize(counterex3, "Q")

    @given(st.integers(0, 10**6))
    def test_roundtrip_random(self, seed):
        import conftest

        rng = conftest.seeded_rng(seed)
        sys = conftest.random_artinian_system(rng, rng.choice([2, 3]))
        for which in ("S", "P"):
            assert parse_system(serialize(sys, which), sys.n, 3).encoding() == sys.encoding()


class TestPartitionSpec:
    def test_groups_partition_indices(self):
        spec = PartitionSpec((2, 1, 1), 3)
        flat = [i for g in spec.groups() for i in g]
        assert flat == [0, 1, 2, 3]
        assert [spec.group_of(i) for i in range(4)] == [0, 0, 1, 2]

    def test_rejects_large_part(self):
        with pytest.raises(InvalidArgumentError):
            PartitionSpec((3, 1), 3)  # a_1 > n-1

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidArgumentError):
            PartitionSpec((1, 1), 3)

    def test_rejects_zero_part(self):
        with pytest.raises(InvalidArgumentError, match="parts must be positive"):
            PartitionSpec((2, 0, 1), 2)

    def test_group_of_out_of_range(self):
        spec = PartitionSpec((2, 1, 1), 3)
        with pytest.raises(InvalidArgumentError, match="index 4 out of range"):
            spec.group_of(4)

    def test_rejects_unsorted(self):
        with pytest.raises(InvalidArgumentError):
            PartitionSpec((1, 2, 1), 3)

    def test_from_parts(self):
        spec = PartitionSpec.from_parts([2, 2])
        assert spec.n == 3
