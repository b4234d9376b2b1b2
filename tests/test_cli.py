"""Command-line surface: subcommands, exit codes, JSON stability."""

import contextlib
import io
import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from togliatti import classify, lefschetz
from togliatti.cli import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_PASS,
    EXIT_USAGE,
    main,
)
from togliatti.family import family_system
from togliatti.monomials import PartitionSpec

import conftest


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def digraphs_ignore_the_deadline(monkeypatch):
    """Let the digraph generation finish, so a zero budget runs out at the
    first digraph of the search, with the total known."""
    generate = classify._canonical_digraphs
    monkeypatch.setattr(classify, "_canonical_digraphs", lambda n1, deadline: generate(n1, None))


def assert_budget_progress(payload, total):
    # out of budget before the first digraph is searched
    assert payload["digraphs_done"] == 0
    assert payload["digraphs_total"] == total
    assert payload["classes_found_so_far"] == 0
    assert payload["stats"] == dict.fromkeys(
        ["candidates", "quadric_filtered", "minimality_filtered", "duplicate_orbit",
         "smoothness_filtered", "digraphs", "nodes"], 0)


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

    def test_quadric_system_reports(self, tmp_path, capsys):
        # d = 2: the Laplace count is of order d-1 = 1, which agrees with
        # the WLP verdict, so the cross-check raises nothing
        path = tmp_path / "squares.txt"
        path.write_text("S: x0^2 x1^2 x2^2\n")
        code, out, err = run_cli(["check", str(path), "--d", "2", "--json"], capsys)
        assert err == ""
        report = json.loads(out)
        assert report["d"] == 2 and report["fails_wlp"] is False
        assert report["laplace_delta"] == 0
        assert code == EXIT_FAIL  # a report on a system that is not Togliatti

    def test_quasi_smooth_fixture_exits_one(self, tmp_path, capsys):
        path = tmp_path / "p12.txt"
        path.write_text(conftest.P12_TEXT + "\n")
        code, out, _ = run_cli(["check", str(path), "--json"], capsys)
        assert code == EXIT_FAIL
        assert json.loads(out)["smooth"] is False

    def test_partition_failure_is_reported_not_raised(self, tmp_path, capsys):
        # the G_P complement of P = {x0*x1*x2} is one component of size 3 > n-1
        path = tmp_path / "one_point.txt"
        path.write_text("P: x0*x1*x2\n")
        code, out, err = run_cli(["check", str(path), "--json"], capsys)
        assert code == EXIT_FAIL
        assert not [line for line in err.splitlines() if "error:" in line]
        graphs = json.loads(out)["graphs"]
        assert graphs["partition"] is None
        assert graphs["partition_failure"] == "largest part 3 exceeds n-1 = 1"

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

    def test_internal_error_exits_one_without_traceback(self, bk_file, monkeypatch, capsys):
        restricted = lefschetz.restricted_dependence
        monkeypatch.setattr(lefschetz, "restricted_dependence", lambda sys: not restricted(sys))
        code, out, err = run_cli(["check", bk_file], capsys)
        assert code == EXIT_FAIL
        assert err == "error: WLP kernel and hyperplane-restriction verdicts disagree\n"
        assert out == ""

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

    def test_n2_text_output(self, capsys):
        code, out, err = run_cli(["enumerate", "--n", "2"], capsys)
        assert code == EXIT_PASS
        assert "x0*x1*x2" in out
        assert err == ""

    def test_budget_exhausted_inconclusive(self, monkeypatch, capsys):
        argv = ["enumerate", "--n", "3", "--budget", "0.0", "--json"]
        for total in (None, 218):
            code, out, _ = run_cli(argv, capsys)
            assert code == EXIT_INCONCLUSIVE
            payload = json.loads(out)
            assert payload["status"] == "inconclusive"
            assert payload["reason"].startswith("budget of 0.0s exhausted")
            assert_budget_progress(payload, total)
            digraphs_ignore_the_deadline(monkeypatch)

    def test_json_output_stable(self, capsys):
        outputs = []
        for _ in range(2):
            code, out, _ = run_cli(["enumerate", "--n", "2", "--json"], capsys)
            assert code == EXIT_PASS
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["class_count"] == 1


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
        # beta is the family system's apolar count
        for r in rows:
            fam = family_system(PartitionSpec.from_parts(r["partition"]))
            assert r["beta"] == fam.beta == len(fam.sys.apolar)

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

    def test_n2_text_output(self, capsys):
        code, out, err = run_cli(["verify", "--n", "2"], capsys)
        assert code == EXIT_PASS
        assert "x0*x1*x2" in out
        assert err == ""

    def test_n3_text_output_marks_each_class(self, capsys):
        code, out, _ = run_cli(["verify", "--n", "3"], capsys)
        assert code == EXIT_PASS
        lines = out.splitlines()
        start = lines.index("classes:") + 1
        end = next(i for i in range(start, len(lines)) if not lines[i].startswith(" "))
        # one bare marker per class; the scalars inside keep "- value"
        assert [line for line in lines[start:end] if line.strip() == "-"] == ["  -"] * 3

    def test_closed_stdout_exits_one_silently(self, monkeypatch, capsys):
        class ClosedPipe:
            def write(self, *args):
                raise BrokenPipeError(32, "Broken pipe")

            flush = write

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["verify", "--n", "2"]) == EXIT_FAIL
        assert sys.stdout is None  # nothing is left to flush at exit
        assert capsys.readouterr().err == ""

    def test_budget_inconclusive(self, monkeypatch, capsys):
        argv = ["verify", "--n", "3", "--budget", "0.0", "--json"]
        for total in (None, 218):
            code, out, _ = run_cli(argv, capsys)
            assert code == EXIT_INCONCLUSIVE
            payload = json.loads(out)
            assert payload["status"] == "inconclusive"
            assert payload["failures"][0].startswith("budget of 0.0s exhausted")
            assert_budget_progress(payload, total)
            digraphs_ignore_the_deadline(monkeypatch)

    def test_bound_violation_exits_one(self, monkeypatch, capsys):
        monkeypatch.setattr(classify, "generator_bound", lambda n: 3)
        code, out, _ = run_cli(["verify", "--n", "2", "--json"], capsys)
        assert code == EXIT_FAIL
        payload = json.loads(out)
        assert payload["status"] == "fail"
        assert any("bound_violation" in f for f in payload["failures"])


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
            ["enumerate", "--n", "2", "--max-s", "3"],
            ["family", "--partition", "2,1,1", "--n", "3"],
            ["bound", "--n-max", "0"],
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

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("S: x0^3 x1^3\n(1,1", 2, "unterminated tuple"),
            ("S: x0^3\nx1^3 (1,a,2)", 2, "malformed tuple"),
            ("S: (1,1,1,0)", 1, "has 4 entries, expected 3"),
            ("S:\nx0^3\n(4,-1,0)", 3, "negative exponent"),
            ("# no header here\n", 1, "missing header"),
        ],
    )
    def test_check_parse_error_names_the_line(self, text, line, message, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, _, err = run_cli(["check", "--n", "2", str(path)], capsys)
        assert code == EXIT_USAGE
        errors = [row for row in err.splitlines() if "error:" in row]
        assert len(errors) == 1
        assert f"line {line}:" in errors[0] and message in errors[0]


# ---------------------------------------------------------------------------
# fuzz: argv for every command, and check files, from valid and broken tokens

NUMBER = st.sampled_from(["2", "3", "4", "2", "3", "1", "0", "-1", "x", "", "2.5", "1e9"])
BUDGET = st.sampled_from(["0", "0.0", "0", "-1", "nan", "x"])  # never unbounded
MONOMIAL = st.sampled_from([
    "x0^3", "x1^3", "x2^3", "x0^2*x1", "x0^2*x2", "x0*x1^2", "x1^2*x2", "x0*x2^2",
    "x1*x2^2", "x0*x1*x2", "x3^3", "x0*x1*x3", "x2*x3*x4", "(1,1,1)", "(3,0,0)",
])
BROKEN = st.sampled_from([
    "(1,1", "(1,a,1)", "(4,-1,0)", "(2,1,0,0)", "()", "x9^3", "x0^^2", "x0*",
    "x0^2", "banana", "S:", "Q:", "#", "caf\u00e9",
])
STRAY = st.sampled_from([[], [], [], [], ["--verbose"], ["--max-s", "3"], ["--n"]])


def _flag(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


@st.composite
def check_text(draw):
    """A header, distinct monomials and at most one broken token, over one or two lines."""
    tokens = draw(st.lists(MONOMIAL, unique=True, max_size=10))
    tokens += draw(st.lists(BROKEN, max_size=1))
    tokens = draw(st.permutations(tokens))
    cut = draw(st.integers(0, len(tokens)))
    header = draw(st.sampled_from(["S:", "P:"] * 4 + ["Q:", ""]))
    return f"{header} {' '.join(tokens[:cut])}\n{' '.join(tokens[cut:])}"


@st.composite
def cli_case(draw):
    """(argv, check file text); '{file}' in argv stands for the file's path."""
    command = draw(st.sampled_from(["check", "check", "enumerate", "family", "bound", "verify",
                                    "nope"]))
    groups = [draw(STRAY), draw(st.sampled_from([[], ["--json"]]))]
    if command == "check":
        groups += [
            [draw(st.sampled_from(["{file}"] * 8 + ["{missing}", "{dir}"]))],
            draw(_flag("--n", NUMBER)),
            draw(_flag("--d", st.sampled_from(["3", "3", "2", "4", "1", "0", "x"]))),
            draw(st.sampled_from([[], ["--verbose"]])),
        ]
    elif command in ("enumerate", "verify"):
        groups += [["--n", draw(NUMBER)], ["--budget", draw(BUDGET)]]
    elif command == "family":
        parts = draw(st.lists(st.sampled_from(["1", "2", "3", "1", "4", "0", "-1", "a", ""]),
                              max_size=5))
        groups.append(["--partition", ",".join(parts)])
    elif command == "bound":
        groups.append(["--n-max", draw(NUMBER)])
    groups = draw(st.permutations(groups))
    return [command] + [token for group in groups for token in group], draw(check_text())


class TestFuzz:
    @given(case=cli_case())
    @settings(max_examples=150, deadline=None)
    def test_exit_code_table_and_no_traceback(self, case, tmp_path_factory):
        argv, text = case
        root = tmp_path_factory.mktemp("fuzz")
        path = root / "system.txt"
        path.write_text(text, encoding="utf-8")
        paths = {"{file}": str(path), "{missing}": str(root / "missing.txt"), "{dir}": str(root)}
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([paths.get(a, a) for a in argv])
        assert code in (EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_INCONCLUSIVE)
        assert "Traceback" not in err.getvalue()
