"""Tests of the benchmark itself, at the small smoke sizes (a few seconds).

    python3 bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _flip_first(corrupt):
    """Wrap a workload's op so that the first output is corrupted by ``corrupt``."""
    def wrap(op):
        state = {"done": False}

        def corrupted(pkg, inp):
            out = op(pkg, inp)
            if not state["done"]:
                state["done"] = True
                out = corrupt(out)
            return out
        return corrupted
    return wrap


def _not_pass(report):
    return {**report, "status": "fail"}


def _not_smooth(output):
    code, text = output
    report = json.loads(text)
    report["smooth"] = not report["smooth"]
    return code, json.dumps(report)


def _not_minimal(out):
    return {**out, "minimality": out["minimality"]._replace(minimal=not out["minimality"].minimal)}


CORRUPTIONS = {"verify_n3": _not_pass, "check_family": _not_smooth, "algebra_n6": _not_minimal}


def quiet_run(workload, trace=0):
    with contextlib.redirect_stderr(io.StringIO()):
        return run.run(workload, seed=3, seconds=0, trace=trace)


class SmokeTest(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
            code = run.smoke()
        self.assertEqual(code, 0)
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        lines = out.getvalue().splitlines()
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertTrue(any(line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
                                for line in lines), metric["name"])

    def test_last_line_is_the_result_object(self):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            run.report(*quiet_run(WORKLOADS["algebra_n6"](small=True)))
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)


class CorruptedVerdictTest(unittest.TestCase):
    def test_corrupted_verdict_counts_as_failed(self):
        for name, corrupt in CORRUPTIONS.items():
            for trace in (0, 1):
                with self.subTest(workload=name, trace=trace):
                    workload = WORKLOADS[name](small=True)
                    workload.op = _flip_first(corrupt)(workload.op)
                    result, info = quiet_run(workload, trace)
                    self.assertFalse(result["correct"])
                    self.assertEqual(result["failed"], 1)
                    self.assertEqual(info["ops_failed"], 1)

    def test_raising_operation_counts_as_failed(self):
        workload = WORKLOADS["check_family"](small=True)

        def broken(pkg, inp):
            raise RuntimeError("injected")
        workload.op = broken
        result, _ = quiet_run(workload)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertFalse(result["correct"])


if __name__ == "__main__":
    unittest.main()
