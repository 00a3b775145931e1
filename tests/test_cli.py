"""Command-line surface: flags, outputs, exit statuses."""

import json
import re
import shlex
from pathlib import Path
from unittest import mock

import pytest

from ofdm_papr import harness
from ofdm_papr.cli import _PARSER, cli_main

README = Path(__file__).resolve().parent.parent / "README.md"
BASE = ["--n", "16", "--oversample", "1", "--trials", "20",
        "--seed", "5", "--thresholds", "0:13:0.5"]


def test_writes_csv(tmp_path):
    out = tmp_path / "curve.csv"
    code = cli_main(BASE + ["--method", "slm", "--slm-m", "4",
                            "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "papr_db,ccdf"
    assert len(lines) == 28  # header + 27 grid points
    first = lines[1].split(",")
    assert first[0] == "0.000000"


def test_repeated_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(BASE + ["--out", str(a)]) == 0
    assert cli_main(BASE + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_stdout_when_no_out(capsys):
    assert cli_main(BASE) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("papr_db,ccdf\n")


def test_json_with_analytic(tmp_path):
    out = tmp_path / "r.json"
    code = cli_main(BASE + ["--format", "json", "--analytic", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert "analytic_ccdf" in payload
    assert payload["config"]["n_subcarriers"] == 16

    out2 = tmp_path / "p.json"
    code = cli_main(BASE + ["--method", "pts", "--pts-v", "4", "--format", "json",
                            "--analytic", "--out", str(out2)])
    assert code == 0
    assert "analytic_ccdf" not in json.loads(out2.read_text())


def test_divisibility_validation(tmp_path):
    out = tmp_path / "never.csv"
    code = cli_main(["--n", "64", "--method", "pts", "--pts-v", "3", "--out", str(out)])
    assert code == 1
    assert not out.exists()


@pytest.mark.parametrize("n", ["1", "2"])
@pytest.mark.parametrize("methods", [["--method", "none"], ["--method", "slm"],
                                     ["--compare", "none", "--compare", "slm"]])
def test_the_pts_flags_do_not_reject_a_none_or_slm_run(n, methods, tmp_path):
    # --pts-v defaults to 4, which does not divide N = 1 or 2; only PTS reads it.
    out = tmp_path / "curve.csv"
    assert cli_main(["--n", n, "--trials", "3", "--out", str(out)] + methods) == 0
    never = tmp_path / "never.csv"
    assert cli_main(["--n", n, "--trials", "3", "--method", "pts", "--out", str(never)]) == 1
    assert not never.exists()


@pytest.mark.parametrize("argv", [
    ["--no-such-flag"],
    ["--n", "0"],
    ["--mod", "16qam"],
    ["--thresholds", "0:13"],
    ["--thresholds", "5:1:0.5"],
    ["--thresholds", "a:b:c"],
    ["--pts-w", "3"],
    ["--trials", "0"],
    ["--method", "slm", "--compare", "pts"],
    ["--compare", "slm", "--compare", "slm", "--out", "x.csv"],
    ["--compare", "slm"],  # --compare requires --out
    ["--thresholds", "0:inf:1"],
    ["--thresholds", "0:1:inf"],
    ["--thresholds", "0:13:1e-15"],
    ["--n", "2097152", "--oversample", "1"],
    ["--trials", "100000001"],
    ["--method", "slm", "--slm-m", "1000000"],
    ["--method", "pts", "--n", "64", "--pts-v", "16"],
    ["--compare", "none", "--compare", "pts", "--pts-v", "64", "--out", "x.csv"],
])
def test_usage_errors_exit_1(argv, capsys):
    assert cli_main(argv) == 1
    assert "error:" in capsys.readouterr().err


def test_compare_writes_one_file_per_method(tmp_path):
    # none and slm share one search at SLM's M=4; PTS (W^(V-1) = 8) searches alone.
    out = tmp_path / "fig.csv"
    widths = []

    def counted(members, analytic, search=harness._search):
        widths.append([harness._candidates(config) for config in members])
        return search(members, analytic)

    with mock.patch.object(harness, "_search", counted):
        code = cli_main(BASE + ["--n", "64", "--compare", "none", "--compare", "slm",
                                "--compare", "pts", "--pts-w", "2", "--out", str(out)])
    assert code == 0
    assert widths == [[1, 4], [8]]
    for method in ("none", "slm", "pts"):
        path = tmp_path / f"fig_{method}.csv"
        assert path.exists()
        assert path.read_text().startswith("papr_db,ccdf\n")
    assert not out.exists()


def test_io_error_exits_2(tmp_path):
    out = tmp_path / "missing_dir" / "x.csv"
    assert cli_main(BASE + ["--out", str(out)]) == 2


def test_help_exits_0(capsys):
    assert cli_main(["--help"]) == 0
    assert "--thresholds" in capsys.readouterr().out


def test_the_readme_flags_are_the_parsers_long_options():
    paragraph = README.read_text().split("\nFlags: ", 1)[1].split("\n\n", 1)[0]
    options = {option for action in _PARSER._actions for option in action.option_strings
               if option.startswith("--")}
    assert set(re.findall(r"`(--[a-z-]+)", paragraph)) == options - {"--help"}


def readme_commands():
    """Every ``ofdm-papr`` command in the sh blocks of the README's CLI section."""
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    lines = "".join(re.findall(r"```sh\n(.*?)```", section, re.S)).replace("\\\n", " ")
    return [shlex.split(line) for line in lines.splitlines() if line.startswith("ofdm-papr ")]


def test_readme_commands_run(tmp_path):
    commands = readme_commands()
    assert commands
    for argv in commands:
        args = argv[1:]
        args[args.index("--trials") + 1] = "20"
        args[args.index("--out") + 1] = str(tmp_path / args[args.index("--out") + 1])
        assert cli_main(args) == 0, argv
