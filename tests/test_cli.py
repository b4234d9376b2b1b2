"""Command-line surface: subcommands, exit codes, JSON stability."""

import json

import pytest

from togliatti.cli import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_PASS,
    EXIT_USAGE,
    main,
)

import conftest


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def bk_file(tmp_path):
    path = tmp_path / "bk.txt"
    path.write_text(conftest.BRENNER_KAID_TEXT + "\n")
    return str(path)


class TestCheck:
    def test_togliatti_system_passes(self, bk_file, capsys):
        code, out, _ = run_cli(["check", bk_file], capsys)
        assert code == EXIT_PASS
        assert "fails_wlp: True" in out
        assert "togliatti: True" in out

    def test_json_report(self, bk_file, capsys):
        code, out, _ = run_cli(["check", bk_file, "--json"], capsys)
        assert code == EXIT_PASS
        report = json.loads(out)
        assert report["fails_wlp"] is True
        assert report["minimal"] is True
        assert report["smooth"] is True
        assert report["quadric_space_dim"] == 1
        assert report["graphs"]["partition"] == [1, 1, 1]

    def test_verbose_json_includes_details(self, bk_file, capsys):
        code, out, _ = run_cli(["check", bk_file, "--json", "--verbose"], capsys)
        report = json.loads(out)
        assert "vertices" in report["polytope"]
        assert "gp_adjacency" in report["graphs"]

    def test_non_togliatti_exits_one(self, tmp_path, capsys):
        path = tmp_path / "cubes.txt"
        path.write_text("S: x0^3 x1^3 x2^3\n")
        code, out, _ = run_cli(["check", str(path), "--json"], capsys)
        assert code == EXIT_FAIL
        assert json.loads(out)["togliatti"] is False

    def test_quasi_smooth_fixture_exits_one(self, tmp_path, capsys):
        path = tmp_path / "p12.txt"
        path.write_text(conftest.P12_TEXT + "\n")
        code, out, _ = run_cli(["check", str(path), "--json"], capsys)
        assert code == EXIT_FAIL
        assert json.loads(out)["smooth"] is False

    def test_n_inferred_from_variables(self, tmp_path, capsys):
        path = tmp_path / "c3.txt"
        path.write_text(conftest.COUNTEREX3_TEXT + "\n")
        code, out, _ = run_cli(["check", str(path), "--json"], capsys)
        report = json.loads(out)
        assert report["n"] == 3

    def test_n_inferred_from_tuples(self, tmp_path, capsys):
        path = tmp_path / "tuples.txt"
        path.write_text("S: (3,0,0) (0,3,0) (0,0,3) (1,1,1)\n")
        code, out, _ = run_cli(["check", str(path), "--json"], capsys)
        assert code == EXIT_PASS
        assert json.loads(out)["n"] == 2

    def test_missing_file_usage_error(self, capsys):
        code, _, err = run_cli(["check", "/nonexistent/path.txt"], capsys)
        assert code == EXIT_USAGE
        assert "error" in err

    def test_unparsable_input_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("S: x0^2*banana\n")
        code, _, err = run_cli(["check", str(path)], capsys)
        assert code == EXIT_USAGE
        assert "error" in err


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_enumerate_requires_n(self, capsys):
        assert main(["enumerate"]) == EXIT_USAGE

    def test_help_exits_clean(self, capsys):
        assert main(["--help"]) == EXIT_PASS


class TestEnumerate:
    def test_n2_single_class(self, capsys):
        code, out, _ = run_cli(["enumerate", "--n", "2", "--json"], capsys)
        assert code == EXIT_PASS
        payload = json.loads(out)
        assert payload["class_count"] == 1
        cls = payload["classes"][0]
        assert cls["partition"] == [1, 1, 1]
        assert cls["size"] == 4
        assert cls["smooth"] is True

    def test_budget_exhausted_inconclusive(self, capsys):
        code, out, _ = run_cli(
            ["enumerate", "--n", "3", "--budget", "0.0", "--json"], capsys
        )
        assert code == EXIT_INCONCLUSIVE
        assert json.loads(out)["status"] == "inconclusive"

    def test_json_output_stable(self, capsys):
        outputs = []
        for jobs in ("1", "4"):
            _, out, _ = run_cli(
                ["enumerate", "--n", "2", "--jobs", jobs, "--json"], capsys
            )
            outputs.append(out)
        assert outputs[0] == outputs[1]


class TestFamily:
    def test_partition_211(self, capsys):
        code, out, _ = run_cli(["family", "--partition", "2,1,1", "--json"], capsys)
        assert code == EXIT_PASS
        payload = json.loads(out)
        assert payload["n"] == 3
        assert payload["mu"] == 8
        assert payload["system"].startswith("S:")

    def test_invalid_partition_fails(self, capsys):
        # part n = 3 is excluded for n = 3
        code, _, err = run_cli(["family", "--partition", "3,1"], capsys)
        assert code == EXIT_FAIL
        assert "error" in err


class TestBound:
    def test_json_rows(self, capsys):
        code, out, _ = run_cli(["bound", "--n-max", "4", "--json"], capsys)
        assert code == EXIT_PASS
        rows = json.loads(out)
        assert len(rows) == 1 + 3 + 5
        top = [r for r in rows if r["n"] == 4 and r["at_bound"]]
        assert sorted(tuple(r["partition"]) for r in top) == [
            (1, 1, 1, 1, 1), (3, 1, 1)
        ]

    def test_text_table_has_header(self, capsys):
        code, out, _ = run_cli(["bound", "--n-max", "3"], capsys)
        assert code == EXIT_PASS
        assert "partition" in out.splitlines()[0]


class TestVerify:
    def test_n2_passes(self, capsys):
        code, out, _ = run_cli(["verify", "--n", "2", "--json"], capsys)
        assert code == EXIT_PASS
        payload = json.loads(out)
        assert payload["status"] == "pass"
        assert payload["class_count"] == 1

    def test_budget_inconclusive(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--n", "3", "--budget", "0.0", "--json"], capsys
        )
        assert code == EXIT_INCONCLUSIVE
        assert json.loads(out)["status"] == "inconclusive"


class TestMalformedArguments:
    @pytest.mark.parametrize(
        "argv",
        [
            ["family", "--partition", "a,b"],
            ["check", "{dir}"],
            ["check", "{latin1}"],
            ["check", "--n", "0", "{bk}"],
            ["verify", "--n", "1"],
            ["verify", "--n", "2", "--budget", "nan"],
            ["enumerate", "--n", "1"],
            ["enumerate", "--n", "2", "--jobs", "0"],
            ["enumerate", "--n", "2", "--budget", "-1"],
            ["enumerate", "--n", "2", "--max-s", "-1"],
        ],
    )
    def test_usage_error_exits_two(self, argv, tmp_path, bk_file, capsys):
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes("S: x0^3 x1^3 x2^3 x0*x1*x2 # café\n".encode("latin-1"))
        paths = {"{dir}": str(tmp_path), "{latin1}": str(latin1), "{bk}": bk_file}
        code, _, err = run_cli([paths.get(a, a) for a in argv], capsys)
        assert code == EXIT_USAGE
        assert "Traceback" not in err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
