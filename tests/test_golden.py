"""Byte-for-byte stability of the JSON reports.

The files under golden/ were written by the rational-arithmetic
implementation that the integer elimination core replaced (Fraction RREF and
Fraction phase-1 simplex); any change in a kernel witness, a quadric, a
vertex or an edge shows up here as a byte difference.
"""

import pathlib

import pytest

from togliatti.cli import EXIT_FAIL, EXIT_PASS, main

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
