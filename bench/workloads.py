"""The benchmark's workloads: seeded inputs, one operation per input, and
correctness checks that re-derive each verdict in integer arithmetic.

Each workload is a closed loop with one caller.  ``inputs`` runs at set-up,
``op`` is the timed call into the package, and ``check`` runs untimed after
it and returns a list of failure messages (empty when the output is right).
Checks never compare whole reports, so reports may gain fields freely.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from math import comb
from typing import Any, Optional

# Literals copied from tests/conftest.py.
# n=4: fails WLP, smooth, not minimal.
P15_TEXT = (
    "P: x0^2*x1 x0*x1^2 x0*x1*x2 x0^2*x3 x0*x2*x3 x2^2*x3 x1*x2*x3 x1^2*x3 "
    "x0*x1*x3 x0^2*x4 x0*x1*x4 x1^2*x4 x0*x2*x4 x2^2*x4 x1*x2*x4"
)
# n=3: fails WLP, quasi-smooth only (vertex semigroups not free), not minimal.
P12_TEXT = (
    "P: x0*x2*x3 x1*x2*x3 x0^2*x2 x0^2*x3 x0*x2^2 x0*x3^2 "
    "x1^2*x2 x1^2*x3 x1*x2^2 x1*x3^2 x2^2*x3 x2*x3^2"
)

# The classification at n=3 (three classes, all at the bound C(4,3)+4 = 8).
N3_CLASSES = [(1, 1, 1, 1), (2, 1, 1), (2, 2)]
N3_EQUALITY = [(1, 1, 1, 1), (2, 1, 1), (2, 2)]


@dataclass
class Input:
    label: str
    n: int
    kind: str  # "verify", "member", "P12", "P15" or "perturbed"
    sys: Any = None  # the MonomialSystem handed to the program
    spec: Any = None  # PartitionSpec of a family member
    path: Optional[str] = None  # P: file for the cli


def _perm(rng, n):
    perm = list(range(n + 1))
    rng.shuffle(perm)
    return tuple(perm)


# ---------------------------------------------------------------------------
# integer re-checks shared by the workloads

def _poly_from_text(pkg, text, n, d):
    """Parse 'c*mono + c*mono' (the report's polynomial text) into {exponent: coeff}."""
    poly = {}
    for term in text.split(" + "):
        coeff, mono = term.split("*", 1)
        poly[pkg.monomials.parse_monomial(mono, n, d)] = int(coeff)
    return poly


def _evaluate(poly, point):
    total = 0
    for mono, coeff in poly.items():
        value = coeff
        for a, e in zip(point, mono):
            value *= a ** e
        total += value
    return total


def _witness_failures(pkg, sys, witness):
    if not witness:
        return ["WLP kernel witness is missing or zero"]
    if not pkg.lefschetz.witness_product_in_ideal(sys, witness):
        return ["(x0+...+xn) * witness is not supported on S"]
    return []


def _unique_quadric_failures(quadric, sys):
    out = []
    if any(_evaluate(quadric, p) != 0 for p in sys.apolar):
        out.append("unique quadric does not vanish on all of P")
    if any(_evaluate(quadric, s) == 0 for s in sys.generators):
        out.append("unique quadric vanishes at a point of S")
    return out


class _CanonicalReference:
    """canonical_form of the unpermuted system, computed once per run and untimed."""

    def __init__(self):
        self._cache = {}

    def failures(self, pkg, inp, canon):
        key = inp.spec.parts
        if key not in self._cache:
            member = pkg.family.family_system(inp.spec).sys
            self._cache[key] = pkg.monomials.canonical_form(member).encoding()
        if canon.encoding() != self._cache[key]:
            return ["canonical form of the permuted member differs from the unpermuted one"]
        return []


# ---------------------------------------------------------------------------

class VerifyN3:
    """classify.verify_theorem(3): the exhaustive search.  The seed is unused."""

    name = "verify_n3"

    def __init__(self, small=False):
        self.n = 2 if small else 3

    def inputs(self, pkg, seed, workdir):
        return [Input(f"verify n={self.n}", self.n, "verify")]

    def op(self, pkg, inp):
        return pkg.classify.verify_theorem(inp.n)

    def check(self, pkg, inp, report):
        out = []
        if report.get("status") != "pass":
            out.append(f"status {report.get('status')!r}, failures {report.get('failures')}")
        classes = report.get("classes", [])
        found = sorted(tuple(c["partition"] or ()) for c in classes)
        at_bound = sorted(tuple(c["partition"] or ()) for c in classes if c["size"] == report.get("bound"))
        if inp.n == 3:
            expected, equality = N3_CLASSES, N3_EQUALITY
        else:
            expected = equality = [(1, 1, 1)]
        if found != expected:
            out.append(f"classes {found}, expected {expected}")
        if at_bound != equality:
            out.append(f"equality at {at_bound}, expected {equality}")
        if report.get("bound") != comb(inp.n + 1, 3) + inp.n + 1:
            out.append(f"bound {report.get('bound')} is not C(n+1,3)+n+1")
        return out


class CheckFamily:
    """`togliatti check <file> --json` in-process on permuted family members and two fixtures."""

    name = "check_family"

    def __init__(self, small=False):
        self.n_max = 3 if small else 5
        self._canonical = _CanonicalReference()

    def inputs(self, pkg, seed, workdir):
        rng = random.Random(seed)
        inputs = []
        for n in range(2, self.n_max + 1):
            for spec in pkg.family.valid_partitions(n):
                sys = pkg.family.family_system(spec).sys.permuted(_perm(rng, n))
                label = f"n={n} partition={','.join(map(str, spec.parts))}"
                inputs.append(Input(label, n, "member", sys, spec))
        for kind, text, n in (("P12", P12_TEXT, 3), ("P15", P15_TEXT, 4)):
            inputs.append(Input(f"{kind} fixture", n, kind, pkg.monomials.parse_system(text, n, 3)))
        os.makedirs(workdir, exist_ok=True)
        for i, inp in enumerate(inputs):
            inp.path = os.path.join(workdir, f"system_{i:02d}.txt")
            with open(inp.path, "w") as fh:
                fh.write(pkg.monomials.serialize(inp.sys, "P") + "\n")
        return inputs

    def op(self, pkg, inp):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = pkg.cli.main(["check", inp.path, "--json"])
        return code, buf.getvalue()

    def check(self, pkg, inp, output):
        code, text = output
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            return [f"exit {code}, output is not JSON"]
        sys, n = inp.sys, inp.n
        out = []
        if report.get("generator_count") != len(sys.generators):
            out.append("report has another generator count than the input")
        if not report.get("fails_wlp"):
            out.append("fails_wlp is not true")
        else:
            out += _witness_failures(pkg, sys, _poly_from_text(pkg, report["wlp_witness"], n, 2))
        if inp.kind == "member":
            if code != 0:
                out.append(f"exit {code}, expected 0")
            for key in ("togliatti", "minimal", "smooth"):
                if report.get(key) is not True:
                    out.append(f"{key} is {report.get(key)!r}, expected true")
            unique = (report.get("minimal_certificate") or {}).get("unique_quadric")
            if unique is None:
                out.append("no unique quadric in the report")
            else:
                out += _unique_quadric_failures(_poly_from_text(pkg, unique, n, 2), sys)
            partition = tuple(report.get("graphs", {}).get("partition") or ())
            if partition != inp.spec.parts:
                out.append(f"extracted partition {partition}, expected {inp.spec.parts}")
            out += self._canonical.failures(pkg, inp, pkg.monomials.canonical_form(sys))
        elif inp.kind == "P12":
            if code != 1 or report.get("smooth") is not False:
                out.append(f"P12: exit {code}, smooth {report.get('smooth')!r}; expected 1, false")
        else:
            if report.get("minimal") is not False or report.get("smooth") is not True:
                out.append(f"P15: minimal {report.get('minimal')!r}, smooth {report.get('smooth')!r};"
                           " expected false, true")
        return out


class AlgebraN6:
    """The algebraic half of `check`, without the polytope, on the n=6 family
    members and on one-point perturbations of them."""

    name = "algebra_n6"

    def __init__(self, small=False):
        self.n = 4 if small else 6
        self._canonical = _CanonicalReference()

    def inputs(self, pkg, seed, workdir):
        rng = random.Random(seed)
        inputs = []
        for spec in pkg.family.valid_partitions(self.n):
            sys = pkg.family.family_system(spec).sys.permuted(_perm(rng, self.n))
            label = f"n={self.n} partition={','.join(map(str, spec.parts))}"
            inputs.append(Input(label, self.n, "member", sys, spec))
            # moving one apolar point into S keeps the WLP failure (R/I shrinks
            # only in degree 3) and breaks minimality (the point lay on the quadric)
            moved = rng.choice(sys.apolar)
            perturbed = pkg.monomials.MonomialSystem.from_generators(
                self.n, 3, sys.generators + (moved,))
            inputs.append(Input(label + " perturbed", self.n, "perturbed", perturbed, spec))
        return inputs

    def op(self, pkg, inp):
        lef, sys = pkg.lefschetz, inp.sys
        out = {
            "wlp": lef.fails_wlp_in_degree_dminus1(sys),
            "dependent": lef.restricted_dependence(sys),
            "space": lef.quadric_space(sys.apolar, sys.n),
            "minimality": lef.is_minimal_togliatti(sys),
            "delta": lef.laplace_delta(sys.apolar, sys.n),
        }
        try:
            out["partition"] = pkg.graphs.extract_partition(sys)
        except (pkg.errors.StructureFailureError, pkg.errors.PreconditionError):
            out["partition"] = None
        out["canonical"] = pkg.monomials.canonical_form(sys)
        return out

    def check(self, pkg, inp, out):
        sys, n = inp.sys, inp.n
        failures = []
        wlp, minimality = out["wlp"], out["minimality"]
        if not wlp.fails:
            failures.append("fails is not true")
        failures += _witness_failures(pkg, sys, wlp.witness)
        if out["dependent"] is not True:
            failures.append("generators are not dependent on the restriction hyperplane")
        if not out["delta"] >= 1:
            failures.append(f"Laplace count {out['delta']}, expected >= 1")
        canon = out["canonical"]
        if inp.kind == "member":
            if len(out["space"]) != 1 or not minimality.minimal:
                failures.append(f"quadric space dim {len(out['space'])}, minimal {minimality.minimal}")
            else:
                failures += _unique_quadric_failures(_poly_from_text(pkg, str(minimality.quadric), n, 2), sys)
            parts = out["partition"].parts if out["partition"] is not None else None
            if parts != inp.spec.parts:
                failures.append(f"extracted partition {parts}, expected {inp.spec.parts}")
            failures += self._canonical.failures(pkg, inp, canon)
        else:
            if minimality.minimal is not False:
                failures.append("perturbed system reported minimal")
            point, quadric = minimality.violation or (None, None)
            if point is not None:
                q = _poly_from_text(pkg, str(quadric), n, 2)
                if _evaluate(q, point) != 0 or any(_evaluate(q, p) != 0 for p in sys.apolar):
                    failures.append("non-minimality witness quadric does not vanish on P and the point")
            # the canonical form is the least encoding in the orbit
            if (canon.generators > sys.generators
                    or sorted(tuple(sorted(m)) for m in canon.generators)
                    != sorted(tuple(sorted(m)) for m in sys.generators)):
                failures.append("canonical form is not a smaller relabelling of the system")
        return failures


WORKLOADS = {w.name: w for w in (VerifyN3, CheckFamily, AlgebraN6)}
