"""Enumeration, the full-report checker, and theorem verification."""

import itertools
import types

import pytest

from togliatti import (
    BudgetExhaustedError,
    InternalError,
    InvalidArgumentError,
    check_command,
    enumerate_minimal_smooth,
    verify_theorem,
)
from togliatti import classify, lefschetz, polytope
from togliatti.family import family_system
from togliatti.monomials import MonomialSystem, PartitionSpec, canonical_form, parse_system

import conftest
from oracles import bruteforce_minimal_orbits, minimality_by_subset_definition

STATS_KEYS = (
    "candidates", "quadric_filtered", "minimality_filtered", "duplicate_orbit",
    "smoothness_filtered", "digraphs", "nodes",
)


class TestEnumerateN2:
    def test_single_class(self):
        result = enumerate_minimal_smooth(2)
        assert len(result.classes) == 1
        rec = result.classes[0]
        assert rec.partition.parts == (1, 1, 1)
        expected = canonical_form(family_system(PartitionSpec((1, 1, 1), 2)).sys)
        assert rec.sys.encoding() == expected.encoding()

    def test_agrees_with_unpruned_bruteforce(self):
        # all artinian S within the bound |S| <= C(4,3) = 4 contain the cubes
        # plus at most one extra monomial: check each candidate end to end
        # without filters
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
        result = enumerate_minimal_smooth(2)
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
            enumerate_minimal_smooth(1)

    def test_budget_exhaustion(self, monkeypatch):
        # a zero budget runs out while the digraphs are generated: no total
        with pytest.raises(BudgetExhaustedError) as err:
            enumerate_minimal_smooth(3, budget=0.0)
        assert err.value.partial is not None
        assert err.value.partial.stats == dict.fromkeys(STATS_KEYS, 0)
        assert err.value.progress == {"digraphs_done": 0, "digraphs_total": None}
        assert "after 0 of ? digraphs" in str(err.value)
        # a clock that ticks once per reading runs out in the middle of the
        # digraphs: the counters so far and the digraphs done of all 218
        ticks = itertools.count()
        monkeypatch.setattr(classify, "time", types.SimpleNamespace(monotonic=lambda: next(ticks)))
        generate = classify._canonical_digraphs
        monkeypatch.setattr(classify, "_canonical_digraphs", lambda n1, deadline: generate(n1, None))
        with pytest.raises(BudgetExhaustedError) as err:
            enumerate_minimal_smooth(3, budget=150)
        stats, progress = err.value.partial.stats, err.value.progress
        assert progress == {"digraphs_done": stats["digraphs"], "digraphs_total": 218}
        assert 0 < stats["digraphs"] < 218
        assert 0 < stats["nodes"] and 0 < stats["candidates"]
        assert f"after {stats['digraphs']} of 218 digraphs" in str(err.value)
        full = enumerate_minimal_smooth(3).stats
        assert all(stats[key] <= full[key] for key in STATS_KEYS)


class TestMatchesBruteForceOracle:
    @pytest.mark.parametrize("n", [2, 3])
    def test_same_minimal_orbits(self, n, monkeypatch):
        # the orbit-first search finds the subset search's smooth classes,
        # and sends the same non-smooth minimal orbits to the smoothness
        # decision (polytope.is_smooth)
        smooth, non_smooth, old_stats = bruteforce_minimal_orbits(n)
        verdicts = {}
        check = polytope.is_smooth

        def recording_check(points):
            verdict = check(points)
            verdicts[MonomialSystem.from_apolar(n, 3, points).encoding()] = verdict
            return verdict

        monkeypatch.setattr(polytope, "is_smooth", recording_check)
        result = enumerate_minimal_smooth(n)
        assert {rec.sys.encoding() for rec in result.classes} == smooth
        assert {key for key, ok in verdicts.items() if ok} == smooth
        assert {key for key, ok in verdicts.items() if not ok} == non_smooth
        stats = result.stats
        assert stats["smoothness_filtered"] == old_stats["smoothness_filtered"] == len(non_smooth)
        survivors = stats["candidates"] - stats["quadric_filtered"] - stats["minimality_filtered"]
        assert survivors - stats["duplicate_orbit"] == len(smooth) + len(non_smooth)
        if n == 3:
            assert len(smooth) == 3 and len(non_smooth) == 19
            assert stats["digraphs"] == 218
            # the oracle is the subset search whose counters the n=3
            # goldens held
            assert old_stats == {
                "candidates": 14893,
                "quadric_filtered": 10867,
                "minimality_filtered": 3760,
                "duplicate_orbit": 244,
                "smoothness_filtered": 19,
            }


class TestCanonicalDigraphs:
    def test_canonical_digraph_counts(self):
        # digraphs on 3, 4 and 5 vertices up to relabelling (OEIS A000273)
        for n1, count in ((3, 16), (4, 218), (5, 9608)):
            found = classify._canonical_digraphs(n1, None)
            assert len(found) == len(set(found)) == count

    @pytest.mark.parametrize("n1", [3, 4])
    def test_canonical_digraphs_are_the_orbit_minima(self, n1):
        # every digraph's lex-smallest relabelling is found, and nothing else
        arcs = [(i, j) for i in range(n1) for j in range(n1) if i != j]
        perms = list(itertools.permutations(range(n1)))
        minima = set()
        for mask in range(1 << len(arcs)):
            graph = [arcs[a] for a in range(len(arcs)) if mask >> a & 1]
            minima.add(min(tuple(sorted((p[i], p[j]) for i, j in graph)) for p in perms))
        found = classify._canonical_digraphs(n1, None)
        assert set(found) == minima
        # preorder: each digraph's parent comes before it
        position = {graph: k for k, graph in enumerate(found)}
        assert all(position[graph[:-1]] < position[graph] for graph in found if graph)


class TestStructuralInvariants:
    def test_enumerated_classes_satisfy_propositions(self, minimal_smooth_n2_n3):
        from togliatti import contains_all_simplex_vertices, smoothness_check, spans_full_lattice
        from togliatti.graphs import build_gp

        for n in (2, 3):
            result = minimal_smooth_n2_n3[n]
            assert result.classes
            for rec in result.classes:
                assert build_gp(rec.sys).is_symmetric()
                assert contains_all_simplex_vertices(rec.sys.apolar)
                assert spans_full_lattice(rec.sys.apolar)
                # the search kept only the verdict; the full certificate agrees
                assert smoothness_check(rec.sys.apolar).smooth
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


class TestCrossChecks:
    """Verdicts that must agree, forced apart: each cross-check raises."""

    def test_search_and_direct_minimality(self, monkeypatch):
        non_minimal = lefschetz.MinimalityResult(False, None, None)
        monkeypatch.setattr(lefschetz, "is_minimal_togliatti", lambda sys: non_minimal)
        with pytest.raises(InternalError, match="search filters and direct verdicts disagree"):
            enumerate_minimal_smooth(2)

    def test_wlp_and_hyperplane_restriction(self, brenner_kaid, monkeypatch):
        restricted = lefschetz.restricted_dependence
        monkeypatch.setattr(lefschetz, "restricted_dependence", lambda sys: not restricted(sys))
        with pytest.raises(InternalError, match="hyperplane-restriction verdicts disagree"):
            check_command(brenner_kaid)

    def test_wlp_and_quadric_space(self, brenner_kaid, monkeypatch):
        holds = lefschetz.WlpResult(False, None)
        monkeypatch.setattr(lefschetz, "fails_wlp_in_degree_dminus1", lambda sys: holds)
        monkeypatch.setattr(lefschetz, "restricted_dependence", lambda sys: False)
        with pytest.raises(InternalError, match="quadric-space verdicts disagree"):
            check_command(brenner_kaid)

    def test_wlp_and_laplace_equation(self, brenner_kaid, monkeypatch):
        monkeypatch.setattr(lefschetz, "laplace_delta", lambda apolar, n: 0)
        with pytest.raises(InternalError, match="Laplace-equation verdicts disagree"):
            check_command(brenner_kaid)


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

    def test_mutated_search_fails(self, monkeypatch):
        # restrict the search below the classification sizes: classes go
        # missing and the report must say fail, not pass
        monkeypatch.setattr(lefschetz, "cardinality_bound", lambda n, d: 3)
        report = verify_theorem(2)
        assert report["status"] == "fail"
        assert any("missing_partitions" in f for f in report["failures"]
                   if isinstance(f, dict))

    def test_class_above_bound_fails(self, monkeypatch):
        # a generator bound below the class sizes: every class violates it,
        # and none is at equality any more
        monkeypatch.setattr(classify, "generator_bound", lambda n: 3)
        report = verify_theorem(2)
        assert report["status"] == "fail"
        assert report["bound"] == 3
        failures = [f for f in report["failures"] if isinstance(f, dict)]
        assert {"bound_violation": ["x2^3", "x1^3", "x0*x1*x2", "x0^3"]} in failures
        assert {"equality_mismatch": {"found": [], "predicted": [[1, 1, 1]]}} in failures
