"""Enumeration, the full-report checker, and theorem verification."""

import pytest

from togliatti import (
    BudgetExhaustedError,
    InvalidArgumentError,
    SearchConfig,
    check_command,
    enumerate_minimal_smooth,
    verify_theorem,
)
from togliatti import classify
from togliatti.family import family_system
from togliatti.monomials import PartitionSpec, canonical_form, parse_system

import conftest
from oracles import minimality_by_subset_definition


class TestEnumerateN2:
    def test_single_class(self):
        result = enumerate_minimal_smooth(SearchConfig(n=2))
        assert len(result.classes) == 1
        rec = result.classes[0]
        assert rec.partition.parts == (1, 1, 1)
        expected = canonical_form(family_system(PartitionSpec((1, 1, 1), 2)).sys)
        assert rec.sys.encoding() == expected.encoding()

    def test_max_s_three_empty(self):
        result = enumerate_minimal_smooth(SearchConfig(n=2, max_s=3))
        assert result.classes == ()

    def test_agrees_with_unpruned_bruteforce(self):
        # all artinian S with |S| <= 4 contain the cubes plus at most one
        # extra monomial: check each candidate end to end without filters
        import itertools
        from togliatti import (
            MonomialSystem,
            fails_wlp_in_degree_dminus1,
            is_minimal_togliatti,
            lattice_points_simplex,
            smoothness_check,
        )

        points = lattice_points_simplex(2, 3)
        cubes = [m for m in points if max(m) == 3]
        pool = [m for m in points if max(m) < 3]
        survivors = set()
        for k in range(2):
            for extras in itertools.combinations(pool, k):
                sys = MonomialSystem.from_generators(2, 3, cubes + list(extras))
                if not fails_wlp_in_degree_dminus1(sys).fails:
                    continue
                if not is_minimal_togliatti(sys).minimal:
                    continue
                if not smoothness_check(sys.apolar).smooth:
                    continue
                survivors.add(canonical_form(sys).encoding())
        result = enumerate_minimal_smooth(SearchConfig(n=2, max_s=4))
        assert {rec.sys.encoding() for rec in result.classes} == survivors
        assert len(survivors) == 1

    def test_subset_definition_crosscheck(self):
        # the quadric reformulation of minimality is one-sidedly stronger
        # than the direct subset-based definition: quadric-minimal implies
        # subset-minimal, and the two diverge exactly when every quadric
        # through P that meets S does so only at pure cubes (which no
        # artinian subset can drop).  Sweep all artinian candidates within
        # the cardinality bound |S| <= C(n+2,3) at n=2, and all candidates
        # with at most five extra generators at n=3 (enough to reach the
        # divergent cases while keeping the subset enumeration tractable).
        import itertools
        from math import comb
        from togliatti import (
            MonomialSystem,
            cardinality_ok,
            fails_wlp_in_degree_dminus1,
            is_minimal_togliatti,
            lattice_points_simplex,
            quadric_space,
        )

        checked = 0
        divergences = {2: 0, 3: 0}
        for n in (2, 3):
            points = lattice_points_simplex(n, 3)
            cubes = [m for m in points if max(m) == 3]
            pool = [m for m in points if max(m) < 3]
            max_extra = min(comb(n + 2, 3) - len(cubes), 5)
            for k in range(0, max_extra + 1):
                for extras in itertools.combinations(pool, k):
                    sys = MonomialSystem.from_generators(n, 3, cubes + list(extras))
                    assert cardinality_ok(sys)
                    if not fails_wlp_in_degree_dminus1(sys).fails:
                        continue
                    checked += 1
                    quad = is_minimal_togliatti(sys).minimal
                    subset = minimality_by_subset_definition(sys)
                    if quad == subset:
                        continue
                    # divergence is only ever quadric-non-minimal but
                    # subset-minimal, and only when no quadric through P
                    # vanishes at a removable (non-cube) generator
                    divergences[n] += 1
                    assert not quad and subset
                    apolar = list(sys.apolar)
                    for m in sys.generators:
                        if max(m) < 3:
                            assert not quadric_space(apolar + [m], n)
        assert checked > 100
        assert divergences[2] == 0
        assert divergences[3] > 0

    def test_subset_definition_divergence_example(self):
        # the unique quadric through P, z*(2z-x-y), vanishes at the pure
        # cube y^3: not minimal under the quadric criterion, yet no proper
        # artinian subset fails WLP because pure cubes cannot be removed
        from togliatti import (
            fails_wlp_in_degree_dminus1,
            is_minimal_togliatti,
            parse_system,
            quadric_space,
        )

        sys = parse_system("S: x0^3 x1^3 x2^3 x0*x2^2 x1*x2^2", 2, 3)
        assert fails_wlp_in_degree_dminus1(sys).fails
        assert len(quadric_space(sys.apolar, 2)) == 1
        verdict = is_minimal_togliatti(sys)
        assert not verdict.minimal
        point, quadric = verdict.violation
        assert max(point) == 3
        assert minimality_by_subset_definition(sys)

    def test_invalid_config(self):
        with pytest.raises(InvalidArgumentError):
            enumerate_minimal_smooth(SearchConfig(n=1))

    def test_budget_exhaustion(self):
        with pytest.raises(BudgetExhaustedError) as err:
            enumerate_minimal_smooth(SearchConfig(n=3, budget=0.0))
        assert err.value.partial is not None


class TestStructuralInvariants:
    def test_enumerated_classes_satisfy_propositions(self):
        from togliatti import (
            check_symmetry,
            contains_all_simplex_vertices,
            spans_full_lattice,
        )
        from togliatti.graphs import build_gp

        for n in (2, 3):
            result = enumerate_minimal_smooth(SearchConfig(n=n))
            assert result.classes
            for rec in result.classes:
                assert check_symmetry(rec.sys)
                assert contains_all_simplex_vertices(rec.sys.apolar)
                assert spans_full_lattice(rec.sys.apolar)
                # no-return filter: v_i -> v_j with v_j -> v_k -> v_j
                # forces the reverse edge v_j -> v_i
                gp = build_gp(rec.sys)
                for i, j in gp.edges:
                    if any((j, k) in gp.edges and (k, j) in gp.edges
                           for k in range(n + 1) if k not in (i, j)):
                        assert (j, i) in gp.edges


class TestCheckCommand:
    def test_brenner_kaid_report(self, brenner_kaid):
        report = check_command(brenner_kaid)
        assert report["fails_wlp"] is True
        assert report["restricted_dependence"] is True
        assert report["quadric_space_dim"] == 1
        assert report["minimal"] is True
        assert report["laplace_delta"] == 1
        assert report["smooth"] is True
        assert report["togliatti"] is True
        assert report["graphs"]["partition"] == [1, 1, 1]
        assert report["graphs"]["partition_matches_family"] is True
        assert report["polytope"]["vertex_count"] == 6

    def test_p15_report(self, p15):
        report = check_command(p15)
        assert report["fails_wlp"] is True
        assert report["minimal"] is False
        assert report["smooth"] is True

    def test_p12_report(self, p12):
        report = check_command(p12)
        assert report["fails_wlp"] is True
        assert report["smooth"] is False
        assert report["polytope"]["failure"] is not None

    def test_non_artinian_short_report(self):
        sys = parse_system("S: x0^3 x0^2*x1 x0*x1^2", 1, 3)  # x1^3 missing
        report = check_command(sys)
        assert report["artinian"] is False
        assert report["togliatti"] is False

    def test_wlp_holding_system(self):
        sys = parse_system("S: x0^3 x1^3 x2^3", 2, 3)
        report = check_command(sys)
        assert report["fails_wlp"] is False
        assert report["minimal"] is None
        assert report["togliatti"] is False

    def test_verbose_includes_details(self, brenner_kaid):
        report = check_command(brenner_kaid, verbose=True)
        assert "vertices" in report["polytope"]
        assert "gp_adjacency" in report["graphs"]

    def test_n7_member_matches_family_without_orbit_scan(self, monkeypatch):
        # membership is decided by one witness permutation: an S_8 orbit
        # scan (canonical_form) must not be reached from check
        def orbit_scan(sys):
            raise AssertionError("canonical_form called by check")

        monkeypatch.setattr(classify, "canonical_form", orbit_scan)
        spec = PartitionSpec((6, 1, 1), 7)
        perm = list(range(8))
        conftest.seeded_rng(7).shuffle(perm)
        sys = family_system(spec).sys.permuted(perm)
        report = check_command(sys)
        assert report["graphs"]["partition"] == [6, 1, 1]
        assert report["graphs"]["partition_matches_family"] is True
        assert report["togliatti"] and report["minimal"] and report["smooth"]


class TestVerifyTheorem:
    def test_n2(self):
        report = verify_theorem(2)
        assert report["status"] == "pass"
        assert report["class_count"] == 1
        assert report["bound"] == 4

    def test_budget_inconclusive(self):
        report = verify_theorem(3, budget=0.0)
        assert report["status"] == "inconclusive"

    def test_class_outside_family_fails(self, monkeypatch):
        # a class that is no family member is unexpected, and its partition
        # is then missing
        monkeypatch.setattr(classify, "member_partition", lambda sys: None)
        report = verify_theorem(2)
        assert report["status"] == "fail"
        failures = [f for f in report["failures"] if isinstance(f, dict)]
        assert {"missing_partitions": [[1, 1, 1]]} in failures
        assert {"unexpected_classes": [["x2^3", "x1^3", "x0*x1*x2", "x0^3"]]} in failures

    def test_mutated_search_fails(self):
        # restrict the search below the classification sizes: classes go
        # missing and the report must say fail, not pass
        report = verify_theorem(2, max_s=3)
        assert report["status"] == "fail"
        assert any("missing_partitions" in f for f in report["failures"]
                   if isinstance(f, dict))
