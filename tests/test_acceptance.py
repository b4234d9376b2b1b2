"""Acceptance gate: the nine top-level criteria, one pass/fail line each.

Run with -s (or read the -v result lines) to see one `criterion N: PASS`
line per criterion.
"""

import functools
import itertools
import random
import time
from math import comb

from togliatti import (
    MonomialSystem,
    PartitionSpec,
    build_multiplication_map,
    canonical_form,
    build_gp,
    check_command,
    contains_all_simplex_vertices,
    equality_partitions,
    extract_partition,
    fails_wlp_in_degree_dminus1,
    family_system,
    hull_structure,
    is_minimal_togliatti,
    laplace_delta,
    mu_formula,
    parse_system,
    quadric_space,
    restricted_dependence,
    smoothness_check,
    spans_full_lattice,
    valid_partitions,
    verify_theorem,
)
from togliatti.linalg import kernel_basis

import conftest
from test_polytope import oracle_hull, random_point_set


def criterion(num, desc):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num} ({desc}): FAIL")
                raise
            print(f"criterion {num} ({desc}): PASS")
        return wrapper
    return decorate


@criterion(1, "uniqueness at n=2")
def test_criterion_1_uniqueness_n2():
    start = time.monotonic()
    report = verify_theorem(2)
    elapsed = time.monotonic() - start
    assert report["status"] == "pass"
    assert report["class_count"] == 1
    fam = family_system(PartitionSpec((1, 1, 1), 2)).sys
    expected = [
        "x2^3", "x1^3", "x0*x1*x2", "x0^3",
    ]
    got = sorted(report["classes"][0]["generators"])
    assert got == sorted(expected)
    assert canonical_form(fam).generators == (
        (0, 0, 3), (0, 3, 0), (1, 1, 1), (3, 0, 0)
    )
    assert elapsed < 1.0


@criterion(2, "classification at n=3")
def test_criterion_2_classification_n3():
    start = time.monotonic()
    report = verify_theorem(3)
    elapsed = time.monotonic() - start
    assert report["status"] == "pass"
    assert report["class_count"] == 3
    partitions = sorted(tuple(c["partition"]) for c in report["classes"])
    assert partitions == [(1, 1, 1, 1), (2, 1, 1), (2, 2)]
    assert all(c["size"] == 8 == comb(4, 3) + 4 for c in report["classes"])
    assert elapsed < 600.0


@criterion(3, "kernel witness against the line cubic")
def test_criterion_3_kernel_witness():
    sys = parse_system(conftest.BRENNER_KAID_TEXT, 2, 3)
    result = fails_wlp_in_degree_dminus1(sys)
    assert result.fails
    f = result.witness
    assert f
    # exact expansion of (x0 + x1 + x2) * f
    product = {}
    for mono, coeff in f.items():
        for i in range(3):
            shifted = mono[:i] + (mono[i] + 1,) + mono[i + 1:]
            product[shifted] = product.get(shifted, 0) + coeff
    product = {m: c for m, c in product.items() if c}
    scale = product[(3, 0, 0)]
    assert scale != 0
    assert product == {
        (3, 0, 0): scale,
        (0, 3, 0): scale,
        (0, 0, 3): scale,
        (1, 1, 1): -3 * scale,
    }


@criterion(4, "family soundness sweep 2 <= n <= 5")
def test_criterion_4_family_sweep():
    start = time.monotonic()
    specs = [spec for n in range(2, 6) for spec in valid_partitions(n)]
    # 18 valid partitions in total (1 + 3 + 5 + 9), verified at build time
    assert len(specs) == 18
    for spec in specs:
        fam = family_system(spec)
        assert fails_wlp_in_degree_dminus1(fam.sys).fails
        assert is_minimal_togliatti(fam.sys).minimal
        assert smoothness_check(fam.sys.apolar).smooth
        # the 2 / 4 / -5 witness quadric spans the quadric space
        space = quadric_space(fam.sys.apolar, spec.n)
        assert len(space) == 1
        w = fam.witness_quadric.coeff_vector()
        q = space[0].coeff_vector()
        assert q == w or tuple(-x for x in q) == w
        assert extract_partition(fam.sys) == spec
    assert time.monotonic() - start < 300.0


@criterion(5, "generator-count bound table 3 <= n <= 8")
def test_criterion_5_bound_table():
    for n in range(3, 9):
        bound = comb(n + 1, 3) + n + 1
        mus = {spec.parts: mu_formula(spec) for spec in valid_partitions(n)}
        assert max(mus.values()) == bound
        argmax = sorted(p for p, mu in mus.items() if mu == bound)
        expected = {(n - 1, 1, 1), tuple([1] * (n + 1))}
        if n == 3:
            expected.add((2, 2))
        assert argmax == sorted(expected)
        assert sorted(p.parts for p in equality_partitions(n)) == argmax


@criterion(6, "four-way equivalence on 500 random systems")
def test_criterion_6_oracle_equivalence():
    start = time.monotonic()
    rng = conftest.seeded_rng(20260823)
    mismatches = []
    for trial in range(500):
        n = (2, 3, 4)[trial % 3]
        sys = conftest.random_artinian_system(rng, n, max_s=comb(n + 2, 3))
        assert len(sys.generators) <= comb(n + 2, 3)
        mm = build_multiplication_map(sys)
        kernel_nonzero = bool(kernel_basis(list(mm.matrix), len(mm.source)))
        verdicts = (
            kernel_nonzero,
            restricted_dependence(sys),
            len(quadric_space(sys.apolar, n)) > 0,
            laplace_delta(sys.apolar, n) >= 1,
        )
        if len(set(verdicts)) != 1:
            mismatches.append((sys.generators, verdicts))
    assert mismatches == []
    assert time.monotonic() - start < 120.0


@criterion(7, "negative fixtures: non-minimal and non-smooth")
def test_criterion_7_negative_fixtures():
    p15 = parse_system(conftest.P15_TEXT, 4, 3)
    report15 = check_command(p15)
    assert report15["fails_wlp"] is True
    assert report15["minimal"] is False

    p12 = parse_system(conftest.P12_TEXT, 3, 3)
    report12 = check_command(p12)
    assert report12["fails_wlp"] is True
    assert report12["smooth"] is False


@criterion(8, "hull agrees with the supporting-hyperplane oracle")
def test_criterion_8_geometry_oracle():
    fixtures = [
        parse_system(conftest.BRENNER_KAID_TEXT, 2, 3).apolar,
        parse_system(conftest.COUNTEREX3_TEXT, 3, 3).apolar,
        parse_system(conftest.P15_TEXT, 4, 3).apolar,
        parse_system(conftest.P12_TEXT, 3, 3).apolar,
    ]
    rng = random.Random(88)
    point_sets = list(fixtures)
    for _ in range(100):
        dim = rng.randint(2, 4)
        point_sets.append(random_point_set(rng, dim, rng.randint(4, 25)))
    for pts in point_sets:
        model = hull_structure(pts)
        verts, edges = oracle_hull(pts)
        assert sorted(model.vertices) == verts
        assert sorted(model.edges) == edges


@criterion(9, "structural propositions on every enumerated class")
def test_criterion_9_structural_properties(minimal_smooth_n2_n3):
    for n in (2, 3):
        result = minimal_smooth_n2_n3[n]
        assert result.classes
        for rec in result.classes:
            assert build_gp(rec.sys).is_symmetric()
            assert contains_all_simplex_vertices(rec.sys.apolar)
            assert spans_full_lattice(rec.sys.apolar)
