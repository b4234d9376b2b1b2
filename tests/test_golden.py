"""Byte-for-byte stability of the JSON reports.

The files under golden/ were written by the rational-arithmetic
implementation that the integer elimination core replaced (Fraction RREF and
Fraction phase-1 simplex); any change in a kernel witness, a quadric, a
vertex or an edge shows up here as a byte difference.

verify_n4.json is the report of ``togliatti verify --n 4 --json`` (about
11 s on a 2-vCPU box), too slow to re-run here: its classes are re-checked
one by one.
"""

import json
import pathlib

import pytest

from togliatti import check_command
from togliatti.cli import EXIT_FAIL, EXIT_PASS, main
from togliatti.family import equality_partitions, family_system, member_partition, valid_partitions
from togliatti.monomials import PartitionSpec, canonical_form, parse_system

import conftest

GOLDEN = pathlib.Path(__file__).parent / "golden"

FIXTURES = {
    "brenner_kaid": (conftest.BRENNER_KAID_TEXT, EXIT_PASS),
    "counterex3": (conftest.COUNTEREX3_TEXT, EXIT_PASS),
    "p12": (conftest.P12_TEXT, EXIT_FAIL),
    "p15": (conftest.P15_TEXT, EXIT_FAIL),
}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_check_verbose_report(name, tmp_path, capsys):
    text, expected_code = FIXTURES[name]
    path = tmp_path / f"{name}.txt"
    path.write_text(text + "\n")
    assert main(["check", str(path), "--json", "--verbose"]) == expected_code
    assert capsys.readouterr().out == (GOLDEN / f"check_{name}.json").read_text()


@pytest.mark.parametrize("command", ["verify", "enumerate"])
def test_n3_report(command, capsys):
    assert main([command, "--n", "3", "--json"]) == EXIT_PASS
    assert capsys.readouterr().out == (GOLDEN / f"{command}_n3.json").read_text()


class TestVerifyN4Record:
    REPORT = json.loads((GOLDEN / "verify_n4.json").read_text())

    def test_report_passes_with_the_family_classes(self):
        report = self.REPORT
        assert report["status"] == "pass" and report["failures"] == []
        assert report["n"] == 4 and report["bound"] == 15
        partitions = sorted(c["partition"] for c in report["classes"])
        assert partitions == sorted(list(p.parts) for p in valid_partitions(4))
        sizes = {tuple(c["partition"]): c["size"] for c in report["classes"]}
        assert sizes == {(3, 2): 14, (3, 1, 1): 15, (2, 2, 1): 13, (2, 1, 1, 1): 14,
                         (1, 1, 1, 1, 1): 15}
        at_bound = sorted(p for p, size in sizes.items() if size == report["bound"])
        assert at_bound == sorted(p.parts for p in equality_partitions(4))

    @pytest.mark.parametrize("index", range(5))
    def test_class_is_a_smooth_minimal_family_member(self, index):
        cls = self.REPORT["classes"][index]
        sys = parse_system("S: " + " ".join(cls["generators"]), 4, 3)
        assert len(sys.generators) == cls["size"]
        report = check_command(sys)
        assert report["togliatti"] and report["minimal"] and report["smooth"]
        # partition -> family system -> canonical form gives the class back
        spec = PartitionSpec(tuple(cls["partition"]), 4)
        assert report["graphs"]["partition"] == cls["partition"]
        assert member_partition(sys) == spec
        assert canonical_form(family_system(spec).sys).generators == sys.generators
