import argparse
import subprocess
import sys

import pytest

from xham import parse_formula, planted_formula, serialize_formula
from xham.cli import build_parser, main, parse_args

from conftest import formula


@pytest.fixture
def instance(tmp_path):
    def write(f, name="instance.xsat"):
        path = tmp_path / name
        path.write_text(serialize_formula(f))
        return str(path)

    return write


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSolve:
    def test_satisfiable(self, capsys, instance):
        code, out, _ = run(capsys, "solve", instance(formula((1, 2, 3))))
        assert code == 10
        lines = out.splitlines()
        assert lines[0] == "s XSAT"
        assert lines[1].startswith("v ") and lines[1].endswith(" 0")

    def test_unsatisfiable(self, capsys, instance):
        code, out, _ = run(capsys, "solve", instance(formula((1,), (-1,))))
        assert code == 20
        assert out.splitlines()[0] == "s UNSAT"


class TestMaxham:
    def test_algo_q(self, capsys, instance):
        code, out, _ = run(capsys, "maxham", "--algo", "q", instance(formula((1, 2, 3))))
        assert code == 10
        assert out.splitlines()[0] == "s MAXHAM 2"

    def test_unsat_exit_20(self, capsys, instance):
        code, out, _ = run(capsys, "maxham", "--algo", "p", instance(formula((1,), (-1,))))
        assert code == 20
        assert out.splitlines()[0] == "s UNSATISFIABLE"

    def test_algos_agree_on_status_line(self, capsys, instance, tiny):
        path = instance(tiny)
        lines = set()
        for algo in ("p", "q", "brute"):
            _, out, _ = run(capsys, "maxham", "--algo", algo, path)
            lines.add(out.splitlines()[0])
        assert lines == {"s MAXHAM 3"}

    def test_witness_lines(self, capsys, instance, tiny):
        code, out, _ = run(capsys, "maxham", "--algo", "p", "--witness", instance(tiny))
        assert code == 10
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("v ") and lines[2].startswith("v ")

    def test_witness_rejected_for_q(self, capsys, instance, tiny):
        code, _, err = run(capsys, "maxham", "--algo", "q", "--witness", instance(tiny))
        assert code == 1
        assert "witness" in err

    def test_stats_line(self, capsys, instance, tiny):
        _, out, _ = run(capsys, "maxham", "--algo", "q", "--stats", instance(tiny))
        assert any(line.startswith("c stats nodes=") for line in out.splitlines())

    def test_count_free_adds_unused_variables(self, capsys, instance):
        f = parse_formula("p xsat 5 1\n1 2 3 0\n")
        path = instance(f)
        _, out, _ = run(capsys, "maxham", "--algo", "q", path)
        assert out.splitlines()[0] == "s MAXHAM 2"
        _, out, _ = run(capsys, "maxham", "--algo", "q", "--count-free", path)
        assert out.splitlines()[0] == "s MAXHAM 4"

    def test_count_free_witnesses_verify(self, capsys, instance, tmp_path):
        f = parse_formula("p xsat 4 1\n1 2 3 0\n")
        path = instance(f)
        code, out, _ = run(capsys, "maxham", "--algo", "brute", "--witness", "--count-free", path)
        assert out.splitlines()[0] == "s MAXHAM 3"
        witness_path = tmp_path / "w.txt"
        witness_path.write_text("\n".join(out.splitlines()[1:]) + "\n")
        code, out, _ = run(capsys, "verify", path, str(witness_path))
        assert code == 10
        assert out.splitlines()[0] == "s VERIFIED 3"


class TestModels:
    def test_lists_all_models(self, capsys, instance):
        code, out, _ = run(capsys, "models", instance(formula((1, 2))))
        assert code == 0
        assert out.splitlines() == ["v -1 2 0", "v 1 -2 0"]


class TestTau:
    def test_single_spec_spanning_args(self, capsys):
        code, out, _ = run(capsys, "tau", "7^2", "3^6")
        assert code == 0
        assert out.splitlines() == ["1.834765"]

    def test_comma_separates_specs(self, capsys):
        code, out, _ = run(capsys, "tau", "1 1,", "2 2")
        values = [float(line) for line in out.splitlines()]
        assert values[0] == pytest.approx(2.0, abs=1e-6)
        assert values[1] == pytest.approx(2 ** 0.5, abs=1e-6)

    def test_bad_spec_exits_1(self, capsys):
        code, _, err = run(capsys, "tau", "0^2")
        assert code == 1
        assert err

    def test_oversized_spec_exits_1_without_expanding(self, capsys):
        code, out, err = run(capsys, "tau", "2^1000000000")
        assert code == 1
        assert "branches" in err and not out


class TestGen:
    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "gen", "--vars", "6", "--clauses", "4", "--len", "3", "--seed", "9")
        _, second, _ = run(capsys, "gen", "--vars", "6", "--clauses", "4", "--len", "3", "--seed", "9")
        assert first == second
        f = parse_formula(first)
        assert f.num_vars == 6 and f.num_clauses == 4

    def test_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "gen.xsat"
        code, _, _ = run(
            capsys, "gen", "--vars", "5", "--clauses", "3", "--len", "2", "--seed", "1",
            "-o", str(out_path),
        )
        assert code == 0
        parse_formula(out_path.read_text())

    def test_seed_defaults_to_zero(self, capsys):
        _, default, _ = run(capsys, "gen", "--vars", "5", "--clauses", "3", "--len", "2")
        _, explicit, _ = run(capsys, "gen", "--vars", "5", "--clauses", "3", "--len", "2", "--seed", "0")
        assert default == explicit

    def test_planted(self, capsys):
        code, out, _ = run(capsys, "gen", "--vars", "12", "--planted", "3,2", "--seed", "4")
        assert code == 0
        assert parse_formula(out) == planted_formula(12, 3, 2, 4)

    @pytest.mark.parametrize(
        "args",
        [
            ("--vars", "12", "--planted", "3,x"),
            ("--vars", "12", "--planted", "3,2", "--len", "3"),
            ("--vars", "10", "--planted", "4,3"),  # 30 slots do not fill length-4 clauses
            ("--vars", "12", "--clauses", "4"),
        ],
    )
    def test_bad_shapes_exit_1(self, capsys, args):
        assert main(["gen", *args]) == 1


class TestBench:
    def test_csv_stable_except_wall_time(self, capsys):
        args = ("bench", "--algo", "q", "--runs", "4", "--vars", "6", "--clauses", "5",
                "--len", "3", "--seed", "3")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        strip = lambda text: [line.rsplit(",", 1)[0] for line in text.splitlines()]
        assert strip(first) == strip(second)
        header = first.splitlines()[0]
        assert header == "id,n,m,len,algo,result,nodes,leaves,ms"

    def test_q_rows_have_positive_nodes(self, capsys):
        _, out, _ = run(capsys, "bench", "--algo", "q", "--runs", "3", "--vars", "5",
                        "--clauses", "4", "--len", "3", "--seed", "0")
        for line in out.splitlines()[1:]:
            nodes = int(line.split(",")[6])
            assert nodes >= 1


class TestVerify:
    def test_round_trips_witness_output(self, capsys, instance, tiny, tmp_path):
        path = instance(tiny)
        _, out, _ = run(capsys, "maxham", "--algo", "p", "--witness", path)
        reported = int(out.splitlines()[0].split()[-1])
        witness_path = tmp_path / "w.txt"
        witness_path.write_text("\n".join(out.splitlines()[1:]) + "\n")
        code, out, _ = run(capsys, "verify", path, str(witness_path))
        assert code == 10
        assert out.splitlines()[0] == f"s VERIFIED {reported}"

    def test_rejects_non_model(self, capsys, instance, tmp_path):
        path = instance(formula((1, 2, 3)))
        witness_path = tmp_path / "w.txt"
        witness_path.write_text("v 1 2 3 0\nv 1 -2 -3 0\n")
        code, _, err = run(capsys, "verify", path, str(witness_path))
        assert code == 1
        assert "x-model" in err

    def test_rejects_literal_out_of_range(self, capsys, instance, tmp_path):
        """Two models at distance 2, padded with a variable the instance lacks."""
        path = instance(parse_formula("p xsat 4 2\n1 2 3 0\n1 2 4 0\n"))
        witness_path = tmp_path / "w.txt"
        witness_path.write_text("v 1 -2 -3 -4 99 0\nv -1 2 -3 -4 -99 0\n")
        code, out, err = run(capsys, "verify", path, str(witness_path))
        assert code == 1
        assert "VERIFIED" not in out
        assert "99 out of range" in err

    def test_rejects_variable_with_both_signs(self, capsys, instance, tmp_path):
        path = instance(parse_formula("p xsat 4 2\n1 2 3 0\n1 2 4 0\n"))
        witness_path = tmp_path / "w.txt"
        witness_path.write_text("v 1 -2 -3 -4 0\nv -1 2 -3 4 -4 0\n")
        code, out, err = run(capsys, "verify", path, str(witness_path))
        assert code == 1
        assert "VERIFIED" not in out
        assert "variable 4 with both signs" in err

    def test_arity_mismatch(self, capsys, instance, tmp_path):
        path = instance(formula((1, 2, 3)))
        witness_path = tmp_path / "w.txt"
        witness_path.write_text("v 1 -2 -3 0\n")
        code, _, err = run(capsys, "verify", path, str(witness_path))
        assert code == 1


class TestUsageErrors:
    def test_unknown_flag_exits_1(self, capsys):
        assert main(["maxham", "--bogus", "f"]) == 1

    def test_unreadable_file_exits_1(self, capsys):
        assert main(["solve", "/nonexistent/f.xsat"]) == 1

    def test_parse_error_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.xsat"
        bad.write_text("p xsat 2 1\n1 9 0\n")
        assert main(["solve", str(bad)]) == 1


ARGVS = [
    ["solve", "f"],
    ["maxham", "f"],
    ["maxham", "--algo", "p", "--witness", "--stats", "--count-free", "f"],
    ["maxham", "--stats", "f", "--algo", "brute"],
    ["models", "f"],
    ["tau", "7^2", "3^6"],
    ["tau", "1 1,", "2 2"],
    ["gen", "--vars", "6", "--clauses", "4", "--len", "3", "--seed", "9", "-o", "out"],
    ["gen", "--vars", "12", "--planted", "3,2"],
    ["bench", "--algo", "p", "--runs", "2", "--vars", "5", "--clauses", "3", "--len", "2"],
    ["verify", "f", "w"],
    # help at both levels
    ["-h"],
    ["--help"],
    ["--he"],
    ["-h", "maxham"],
    ["maxham", "-h"],
    ["gen", "--help"],
    ["maxham", "f", "-h"],
    ["maxham", "--he"],
    # usage errors
    [],
    ["nosuch"],
    ["nosuch", "f"],
    ["--bogus"],
    ["maxham", "--bogus", "f"],
    ["solve", "-x", "f"],
    ["maxham", "f", "extra"],
    ["solve", "f", "g", "h"],
    ["verify", "f"],
    ["maxham"],
    ["bench", "--runs", "2"],
    ["maxham", "--algo=x", "f"],
    ["maxham", "--algo=p", "f"],
    ["maxham", "--alg", "q", "--wit", "f"],
    ["maxham", "--algo"],
    ["gen", "--vars", "x"],
    ["gen", "--vars", "12", "--planted", "3,x"],
    ["tau"],
    ["tau", "-1"],
    ["maxham", "--", "f"],
    ["maxham", "-1"],
    ["--", "maxham", "f"],
    # read off the action table, or handed to argparse by it
    ["maxham", "--stats", "--stats", "f"],
    ["maxham", "--algo", "p", "--algo", "q", "f"],
    ["maxham", "f", "--algo", "p"],
    ["maxham", "--algo", "-1", "f"],
    ["maxham", "--algo", "x", "f"],
    ["gen", "--vars", "3", "--clauses", "1", "--len", "3", "-o", "--seed"],
    ["maxham", "-"],
    ["maxham", ""],
    ["verify", "f", "-"],
    ["gen", "--vars", "-5", "--clauses", "2", "--len", "3"],
    ["gen", "--clauses", "4", "--len", "3"],
    ["gen", "-oout", "--vars", "3", "--clauses", "1", "--len", "3"],
    ["bench", "--runs", "2", "--vars", "5", "--clauses", "3", "--len", "2", "--algo", "q"],
]


def parse_outcome(parse, argv, capsys):
    """The Namespace `parse` returns, or its exit code; then what it printed."""
    try:
        result = parse(argv)
    except SystemExit as exc:
        result = exc.code
    out = capsys.readouterr()
    return result, out.out, out.err


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_parse_args_matches_the_two_level_parse(capsys, argv):
    expected = parse_outcome(build_parser().parse_args, list(argv), capsys)
    assert parse_outcome(parse_args, list(argv), capsys) == expected


def test_well_formed_calls_never_enter_argparse(monkeypatch):
    """The benchmark's two argv forms and `solve F` are read off their
    subcommand's action table: with argparse's parse made to raise, they
    still parse to the Namespace argparse gives."""
    argvs = [
        ["maxham", "--algo", "q", "--stats", "F"],
        ["maxham", "--algo", "p", "--witness", "--stats", "F"],
        ["solve", "F"],
    ]
    expected = [build_parser().parse_args(argv) for argv in argvs]

    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a well-formed call")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    assert [parse_args(argv) for argv in argvs] == expected


@pytest.mark.parametrize("argv", [["tau", "7^2", "3^6"], ["maxham", "f", "extra"], ["-h"]], ids=" ".join)
def test_parse_args_reads_sys_argv_when_given_none(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "argv", ["xham", *argv])
    expected = parse_outcome(build_parser().parse_args, None, capsys)
    assert parse_outcome(parse_args, None, capsys) == expected


def test_main_reads_sys_argv_when_given_none(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["xham", "tau", "7^2", "3^6"])
    assert main(None) == 0
    assert capsys.readouterr().out == "1.834765\n"


def test_extra_arguments_raise_the_top_level_error(capsys):
    assert run(capsys, "maxham", "f", "extra", "--more") == (
        1, "", "xham: error: unrecognized arguments: extra --more\n"
    )


class TestReadPath:
    """Bytes that are not an instance end in one error line and exit 1."""

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"p xsat 1 1\n\xff 0\n", "'utf-8' codec can't decode byte 0xff in position 11: invalid start byte"),
            (b"p xsat 1 1\n1\x00 0\n", "line 2: expected integer literal, got '1\\x00'"),
            (b"\xef\xbb\xbfp xsat 1 1\n1 0\n", "line 1: malformed header, expected 'p xsat <vars> <clauses>'"),
            (b"", "line 1: missing 'p xsat <vars> <clauses>' header"),
        ],
        ids=["non-utf-8", "nul", "bom", "empty"],
    )
    def test_bad_bytes_exit_1(self, capsys, tmp_path, data, message):
        path = tmp_path / "bad.xsat"
        path.write_bytes(data)
        assert run(capsys, "maxham", str(path)) == (1, "", f"xham: error: {message}\n")

    def test_directory_exits_1(self, capsys, tmp_path):
        code, out, err = run(capsys, "solve", str(tmp_path))
        assert (code, out) == (1, "")
        assert err.startswith("xham: error: ") and err.count("\n") == 1

    def test_crlf_instance_answers(self, capsys, tmp_path):
        path = tmp_path / "crlf.xsat"
        path.write_bytes(b"c made on Windows\r\np xsat 3 1\r\n1 2 3 0\r\n")
        assert run(capsys, "maxham", str(path)) == (10, "s MAXHAM 2\n", "")

    def test_parse_error_names_its_line_through_crlf(self, capsys, tmp_path):
        path = tmp_path / "crlf.xsat"
        path.write_bytes(b"p xsat 3 1\r\n\r\n1 2 9 0\r\n")
        assert run(capsys, "solve", str(path)) == (
            1, "", "xham: error: line 3: variable 9 exceeds declared count 3\n"
        )


def test_module_entry_point(tmp_path):
    path = tmp_path / "f.xsat"
    path.write_text("p xsat 3 1\n1 2 3 0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "xham", "maxham", "--algo", "q", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 10
    assert proc.stdout.splitlines()[0] == "s MAXHAM 2"


def test_repeated_calls_match_fresh_processes(capsys, instance, tiny):
    """main builds its parser once per process; a usage error, then maxham,
    then solve, each called in turn here, must answer as a fresh process does."""
    path = instance(tiny)
    for argv in (["maxham", "--algo", "x", path], ["maxham", "--algo", "p", "--witness", path], ["solve", path]):
        fresh = subprocess.run([sys.executable, "-m", "xham", *argv], capture_output=True, text=True)
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_importing_the_cli_leaves_numpy_unloaded():
    """No module of the package imports numpy; only the tests' reference
    scan uses it."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, xham.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_importing_the_cli_loads_the_package_and_no_convenience_modules():
    """A fresh `import xham.cli` newly loads none of `dataclasses`,
    `inspect`, `typing` or `csv`, which every call would pay for, and does
    load every module that `maxham` and `solve` run. Only what the import
    newly loads counts: `site` may load `typing` first, as a `.pth` file
    can."""
    script = "; ".join(
        [
            "import sys",
            "before = set(sys.modules)",
            "import xham.cli",
            "print(' '.join(sorted(set(sys.modules) - before)))",
        ]
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert not loaded & {"dataclasses", "inspect", "typing", "csv"}, sorted(loaded)
    run_by_maxham_and_solve = {"branching", "propagation", "formula", "dimacs", "solver", "subset_scan"}
    assert {f"xham.{name}" for name in run_by_maxham_and_solve} <= loaded, sorted(loaded)


def test_brute_and_models_run_without_numpy(instance, tiny):
    """With numpy unimportable, `import xham` works, and brute and `models`
    give their answers, witness pair and exit codes."""
    sat, unsat = instance(tiny, "sat.xsat"), instance(formula((1,), (-1,)), "unsat.xsat")
    script = "; ".join(
        [
            "import sys",
            "sys.modules['numpy'] = None",
            "import xham",
            "from xham.cli import main",
            f"print(main(['maxham', '--algo', 'brute', '--witness', {sat!r}]))",
            f"print(main(['maxham', '--algo', 'brute', {unsat!r}]))",
            f"print(main(['models', {sat!r}]))",
        ]
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "s MAXHAM 3",
        "v -1 -2 3 4 0",
        "v -1 2 -3 -4 0",
        "10",
        "s UNSATISFIABLE",
        "20",
        "v -1 -2 3 4 0",
        "v -1 2 -3 -4 0",
        "v 1 -2 -3 -4 0",
        "0",
    ]
