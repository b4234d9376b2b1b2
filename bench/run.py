"""Benchmark of the togliatti package: end-to-end and per-layer metrics.

    python3 bench/run.py --workload verify_n3 --seed 1 --seconds 5 --trace 0
    python3 bench/run.py --smoke

Runs from the root of a source checkout and imports the package from its
``src`` directory.  One process, one thread, one caller in a closed loop:
each operation starts when the previous one has returned and been checked.
Operations are repeated, cycling through the inputs, until ``--seconds`` of
operation time is measured and at least one full pass is done.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
first times one untraced pass, then traces a set-up and a pass, prints the
per-layer metrics and writes the spans to ``bench/out``.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
``--smoke`` runs every workload at a small size in both modes and checks
that every metric of BENCHMARK.json is printed with its unit.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import warnings

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 15

sys.path.insert(0, BENCH_DIR)
from spans import TRACED_MODULES, Tracer  # noqa: E402
from speed import RawClock, SpeedProbe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def environment(seed):
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def import_package():
    """Import togliatti afresh from this checkout's src, dropping any earlier import."""
    if not os.path.isfile(os.path.join(SRC, "togliatti", "__init__.py")):
        raise SystemExit(f"error: no togliatti package under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "togliatti" or m.startswith("togliatti.")]:
        del sys.modules[name]
    pkg = importlib.import_module("togliatti")
    for name in TRACED_MODULES + ("errors",):
        importlib.import_module(f"togliatti.{name}")  # cli is not imported by the package
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: togliatti was imported from {pkg.__file__}, not {SRC}")
    return pkg


def set_up(workload, seed, clock):
    """Import the package and make the inputs; returns (interval, package, inputs)."""
    spent = clock.spent
    start = time.perf_counter()
    pkg = import_package()
    inputs = workload.inputs(pkg, seed, os.path.join(OUT, workload.name))
    return (start, time.perf_counter(), clock.spent - spent), pkg, inputs


class Loop:
    """Timed operations and their checks; counts attempts and failures.

    Records raw intervals only; ``op_seconds`` and ``wall_s`` convert them
    with the run's clock once the run is over.
    """

    def __init__(self, workload, pkg, inputs, clock):
        self.workload, self.pkg, self.inputs, self.clock = workload, pkg, inputs, clock
        self.records = []  # (input n, start, end, probe seconds inside, pass number)
        self.passes = 0  # complete passes
        self.attempted = self.failed = self.warnings = 0
        self.top_n = max(inp.n for inp in inputs)

    def run(self, seconds, tracer=None):
        measured = 0.0
        while True:
            for i, inp in enumerate(self.inputs):
                measured += self._one(inp, i, tracer)
                if measured >= seconds and self.passes and i + 1 < len(self.inputs):
                    return
            self.passes += 1
            if measured >= seconds:
                return

    def _one(self, inp, index, tracer):
        self.attempted += 1
        output, error = None, None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if tracer is not None:
                tracer.op = index
            spent = self.clock.spent
            start = time.perf_counter()
            try:
                output = self.workload.op(self.pkg, inp)
            except Exception:  # a raising operation is a failed operation, not a crash
                error = traceback.format_exc(limit=3)
            end = time.perf_counter()
            if tracer is not None:
                tracer.op = None
        self.records.append((inp.n, start, end, self.clock.spent - spent, self.passes))
        for w in caught:
            if issubclass(w.category, UserWarning):
                self.warnings += 1
                print(f"warning [{self.workload.name} {inp.label}]: {w.message}", file=sys.stderr)
        if error is not None:
            failures = [error]
        else:
            try:
                failures = self.workload.check(self.pkg, inp, output)
            except Exception:
                failures = ["check raised: " + traceback.format_exc(limit=3)]
        if failures:
            self.failed += 1
            print(f"FAILED [{self.workload.name} {inp.label}]: " + "; ".join(failures), file=sys.stderr)
        return end - start

    def op_seconds(self, clock=None):
        clock = clock or self.clock
        return [(n, clock.seconds(start, end, spent)) for n, start, end, spent, _ in self.records]

    def wall_s(self, clock=None):
        """Median over complete passes of the seconds the pass's operations took."""
        passes = [0.0] * self.passes
        for (_, seconds), record in zip(self.op_seconds(clock), self.records):
            if record[4] < self.passes:
                passes[record[4]] += seconds
        return statistics.median(passes)


def end_to_end(loop, setup_s):
    ops = loop.op_seconds()
    return {
        "wall_s": (loop.wall_s(), "s"),
        "op_p50_s": (statistics.median(t for _, t in ops), "s"),
        "top_n_op_p50_s": (statistics.median(t for n, t in ops if n == loop.top_n), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ops": (loop.attempted, "count"),
    }


SELF_S = (
    "linalg.rref", "linalg.kernel_basis", "linalg.rank", "linalg.hnf",
    "lefschetz.quadric_space", "lefschetz.fails_wlp_in_degree_dminus1",
    "lefschetz.restricted_dependence", "lefschetz.is_minimal_togliatti", "lefschetz.laplace_delta",
    "polytope.smoothness_check", "polytope.hull_structure", "polytope.lattice_coordinates",
    "monomials.canonical_form", "monomials.parse_system",
    "graphs.extract_partition", "graphs.build_gp", "family.family_system",
    "classify.enumerate_minimal_smooth", "classify.check_command", "cli.main", "cli.cmd_check",
)
CALLS = ("linalg.rref", "lefschetz.quadric_space", "polytope.smoothness_check", "monomials.canonical_form")
INCL_S = ("lefschetz.quadric_space", "polytope.hull_structure")


def per_layer(tracer, traced_wall, untraced_wall):
    out = {}
    for name in CALLS:
        out[f"{name}.calls"] = (tracer.calls[name], "count")
    for name in SELF_S:
        out[f"{name}.self_s"] = (tracer.self_s[name], "s")
    for name in INCL_S:
        out[f"{name}.incl_s"] = (tracer.incl_s[name], "s")
    c = tracer.counts
    out["polytope.vertices"] = (c["polytope.vertices"], "count")
    out["polytope.edges"] = (c["polytope.edges"], "count")
    candidates = c["classify.candidates"]
    survivors = candidates - c["classify.quadric_filtered"] - c["classify.minimality_filtered"]
    out["classify.candidates"] = (candidates, "count")
    out["classify.survivor_ratio"] = (survivors / candidates if candidates else 0.0, "ratio")
    out["classify.duplicate_ratio"] = (c["classify.duplicate_orbit"] / survivors if survivors else 0.0, "ratio")
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.untraced_wall_s"] = (untraced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out


# The layer predicted to take most of a workload's time: quadric_space with its
# linalg children on the search, the hull LPs on the cli checks.
DOMINANT = {"verify_n3": "lefschetz.quadric_space", "check_family": "polytope.hull_structure"}


def run(workload, seed, seconds, trace):
    """One benchmark run; returns (result object, extra info).

    Pass and operation times are at reference speed (see speed.py).  Span
    times of the traced run are raw seconds less the probe's own time.
    """
    info = {"workload": workload.name, **environment(seed)}
    with SpeedProbe() as clock:
        intervals = []
        for _ in range(SETUP_REPEATS + 1):
            interval, pkg, inputs = set_up(workload, seed, clock)
            intervals.append(interval)
            clock.sample()  # set-ups are short: correct them by samples taken between them
        loop = Loop(workload, pkg, inputs, clock)
        loop.run(seconds)
        counted = [loop]
        if trace:
            tracer = Tracer(clock)
            tracer.install(pkg)
            try:
                tracer.op = -1  # the set-up, traced once
                inputs = workload.inputs(pkg, seed, os.path.join(OUT, workload.name))
                tracer.op = None
                traced = Loop(workload, pkg, inputs, clock)
                traced.run(seconds, tracer)
            finally:
                tracer.uninstall()
            counted.append(traced)
    info["speed"] = {"mean_factor": clock.mean_factor(), "samples": len(clock.durations),
                     "raw_wall_s": loop.wall_s(RawClock())}
    if not trace:
        # the first set-up also compiles bytecode and imports the standard library
        setup_s = statistics.median(clock.seconds(*interval) for interval in intervals[1:])
        metrics = end_to_end(loop, setup_s)
    else:
        metrics = per_layer(tracer, traced.wall_s(), loop.wall_s())
        dominant = DOMINANT.get(workload.name)
        if dominant:
            share = tracer.incl_s[dominant] / traced.wall_s(RawClock())
            info["dominant_layer"] = {"name": dominant, "share_of_traced_wall_s": share,
                                      "as_predicted": share > 0.5}
            if share <= 0.5:
                print(f"mismatch: {dominant} took {share:.0%} of the traced pass, predicted > 50 %",
                      file=sys.stderr)
        os.makedirs(OUT, exist_ok=True)
        info["trace_file"] = os.path.relpath(
            os.path.join(OUT, f"trace-{workload.name}-seed{seed}.json.gz"), ROOT)
        tracer.write(os.path.join(ROOT, info["trace_file"]), info)
    attempted = sum(lp.attempted for lp in counted)
    failed = sum(lp.failed for lp in counted)
    info.update(ops=attempted, ops_failed=failed, user_warnings=sum(lp.warnings for lp in counted))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, info


def report(result, info):
    for name, m in result["metrics"].items():
        print(f"{name:45s} {m['value']:>16.6f} {m['unit']}")
    print(json.dumps({"info": info}))
    print(json.dumps(result))


def smoke():
    """Every workload at a small size, both modes; every named metric present with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for name, cls in WORKLOADS.items():
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, info = run(cls(small=True), seed=1, seconds=0, trace=trace)
            report(result, info)
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: {result['failed']} failed")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={trace}: metrics {sorted(set(got.items()) ^ set(want.items()))}")
    for p in problems:
        print("SMOKE:", p, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    report(*run(WORKLOADS[args.workload](), args.seed, args.seconds, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
