"""CLI surface: commands, exit codes, file formats, settings precedence."""

import dataclasses
import json
import re
import shlex
from pathlib import Path

import pytest

from maxentsum import (
    OptimizerConfig,
    binomial_half_entropy,
    cli,
    conjectured_inputs,
    read_pmf,
    suites,
    sum_distribution,
)
from maxentsum.cli import COMMAND_SETTINGS, CSV_HEADER, _build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundCommand:
    def test_single_summand(self, capsys):
        code, out, _ = run(capsys, "bound", "--n", "1", "--r", "7")
        assert code == 0
        assert "bound_bits = 3" in out

    def test_binary_alphabet(self, capsys):
        code, out, _ = run(capsys, "bound", "--n", "5", "--r", "1")
        assert code == 0
        expected = f"{binomial_half_entropy(5):.12g}"
        assert f"bound_bits = {expected}" in out

    def test_json_ternary_three_summands(self, capsys):
        code, out, _ = run(capsys, "bound", "--n", "3", "--r", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["w0"] == pytest.approx(0.5537321007147962, abs=1e-12)
        assert payload["special_case"] == "n3r2"


class TestExitCodes:
    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--suite", "nope"])
        assert excinfo.value.code == 2

    def test_missing_required_setting(self, capsys):
        code, _, err = run(capsys, "bound", "--n", "2")
        assert code == 2
        assert "--r" in err

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "bound", "--n", "0", "--r", "2")
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("optimize", "--n", "2", "--r", "2", "--starts", "1"),
            ("sweep", "--n-max", "1", "--r-max", "1", "--starts", "1"),
            ("verify", "--suite", "sign", "--trials", "10"),
        ],
        ids=["optimize", "sweep", "verify"],
    )
    def test_negative_seed_is_domain_error(self, capsys, argv):
        code, _, err = run(capsys, *argv, "--seed", "-1")
        assert code == 3
        assert "seed" in err

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_sweep_tol_must_be_finite_and_non_negative(self, capsys, tol):
        code, out, err = run(
            capsys, "sweep", "--n-max", "1", "--r-max", "1", "--starts", "1",
            "--strict-conjecture", "--tol", tol,
        )
        assert code == 3
        assert "--tol" in err and out == ""

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_optimize_tol_must_be_finite_and_positive(self, capsys, tol):
        code, out, err = run(
            capsys, "optimize", "--n", "1", "--r", "1", "--starts", "1", "--tol", tol,
        )
        assert code == 3
        assert "outer_tol" in err and out == ""

    @pytest.mark.parametrize("argv, name", [
        (("sweep", "--n-max", "0", "--r-max", "1"), "--n-max"),
        (("sweep", "--n-max", "1", "--r-max", "0"), "--r-max"),
        (("sweep", "--n-max", "1", "--r-max", "1", "--starts", "0"), "starts"),
    ], ids=["n-max", "r-max", "starts"])
    def test_out_of_range_count_is_domain_error(self, capsys, argv, name):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert name in err and out == ""

    def test_io_error_on_unwritable_sweep_path(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "multistart_maximize", lambda *args: calls.append(args))
        code, out, err = run(
            capsys,
            "sweep", "--n-max", "1", "--r-max", "1", "--starts", "1",
            "--out", "/nonexistent-dir/sweep.csv",
        )
        assert code == 4
        assert calls == [] and out == ""  # the path fails before the first cell
        assert err.startswith("i/o error:")

    def test_io_error_on_unwritable_verify_path(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(suites, "ulc_suite", lambda **kwargs: calls.append(kwargs))
        code, out, err = run(
            capsys,
            "verify", "--suite", "ulc", "--n", "3", "--r", "2", "--trials", "200000",
            "--out", "/nonexistent-dir/report.json",
        )
        assert code == 4
        assert calls == [] and out == ""  # the path fails before the first chunk
        assert err.startswith("i/o error:")

    def test_clean_verify_is_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "identity", "--trials", "2000")
        assert code == 0
        assert "violations = 0" in out


class TestConstructCommand:
    def test_files_roundtrip(self, capsys, tmp_path):
        out_dir = tmp_path / "construction"
        code, out, _ = run(
            capsys, "construct", "--n", "4", "--r", "3", "--out", str(out_dir)
        )
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["input_01.pmf", "input_02.pmf", "input_03.pmf", "input_04.pmf", "sum.pmf"]
        expected_inputs = conjectured_inputs(4, 3)
        for i, expected in enumerate(expected_inputs, start=1):
            stored = read_pmf(out_dir / f"input_{i:02d}.pmf")
            assert stored.probs.tolist() == expected.probs.tolist()
        stored_sum = read_pmf(out_dir / "sum.pmf")
        expected_sum = sum_distribution(expected_inputs)
        assert stored_sum.probs.tolist() == expected_sum.probs.tolist()


class TestOptimizeCommand:
    def test_human_output(self, capsys):
        code, out, _ = run(
            capsys, "optimize", "--n", "2", "--r", "2", "--starts", "4", "--seed", "1"
        )
        assert code == 0
        assert "best_value" in out and "gap" in out

    def test_json_with_restriction(self, capsys):
        code, out, _ = run(
            capsys,
            "optimize", "--n", "3", "--r", "2", "--ell", "2", "--starts", "4",
            "--seed", "1", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ell"] == 2
        assert abs(payload["gap_to_bound"]) < 1e-5
        assert len(payload["per_start"]) == 5

    def test_json_lists_steps_per_start(self, capsys):
        code, out, _ = run(
            capsys, "optimize", "--n", "2", "--r", "4", "--starts", "3", "--seed", "6", "--json"
        )
        assert code == 0
        per_start = json.loads(out)["per_start"]
        steps = [rec["steps"] for rec in per_start]
        assert len(steps) == 4 and all(isinstance(s, int) for s in steps)
        assert all(s > 0 for s in steps[:-1])  # the conjectured start may need none
        jumps = [rec["jumps"] for rec in per_start]
        assert all(isinstance(j, int) for j in jumps)
        assert jumps[1] > 0  # start 1 crawls along a ridge and extrapolates


class TestSweepCommand:
    def test_schema_and_content(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, _, err = run(
            capsys,
            "sweep", "--n-max", "2", "--r-max", "2", "--seed", "7", "--starts", "4",
            "--no-timing", "--out", str(path),
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "1"
        assert first[5] == "true"  # (1, 1) is a proven case
        assert first[8] == "0.0"  # timing zeroed
        assert "summary:" in err

    def test_out_file_holds_the_stdout_bytes(self, capsys, tmp_path):
        args = ["sweep", "--n-max", "2", "--r-max", "2", "--seed", "5", "--starts", "2",
                "--no-timing"]
        path = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, *args, "--out", str(path))
        assert code == 0 and out == ""
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert path.read_bytes() == out.encode("ascii")

    def test_byte_identical_with_no_timing(self, capsys, tmp_path):
        args = [
            "sweep", "--n-max", "2", "--r-max", "2", "--seed", "42", "--starts", "4",
            "--no-timing",
        ]
        first = run(capsys, *args)
        second = run(capsys, *args)
        assert first[0] == second[0] == 0
        assert first[1] == second[1]

    def test_strict_conjecture_flag_passes_on_proven_grid(self, capsys):
        code, _, _ = run(
            capsys,
            "sweep", "--n-max", "2", "--r-max", "2", "--seed", "1", "--starts", "2",
            "--no-timing", "--strict-conjecture",
        )
        assert code == 0

    def test_proven_case_column_matches_the_documented_set(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--n-max", "4", "--r-max", "3", "--starts", "1", "--no-timing"
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        proven = {(int(row[0]), int(row[1])) for row in rows if row[5] == "true"}
        assert proven == {
            (n, r) for n in range(1, 5) for r in range(1, 4)
            if n == 1 or r == 1 or n == 2 or (n, r) == (3, 2)
        }

    def test_every_gap_over_the_tolerance_is_reported(self, capsys, monkeypatch):
        real = cli.multistart_maximize
        faked = {(1, 1): 1e-3, (3, 3): 2e-3}  # a proven cell and an open one

        def spy(n, r, config):
            result = real(n, r, config)
            if (n, r) in faked:
                result = dataclasses.replace(result, gap_to_bound=faked[n, r])
            return result

        monkeypatch.setattr(cli, "multistart_maximize", spy)
        code, _, err = run(
            capsys, "sweep", "--n-max", "3", "--r-max", "3", "--starts", "2", "--no-timing",
            "--strict-conjecture",
        )
        assert code == 1
        assert [line for line in err.splitlines() if "exceeds" in line] == [
            "GAP IN PROVEN CELL: (n=1, r=1) gap=+1.000000e-03 exceeds 1e-06",
            "POTENTIAL COUNTEREXAMPLE: (n=3, r=3) gap=+2.000000e-03 exceeds 1e-06",
        ]
        assert "gaps > +1e-06: 1" in err


class TestVerifyCommand:
    def test_report_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "verify", "--suite", "ulc", "--n", "2", "--r", "2", "--trials", "2000",
            "--seed", "3", "--out", str(path),
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["suite"] == "ulc"
        assert payload["passed"] is True
        assert payload["violation_count"] == 0

    def test_report_file_holds_the_suite_report(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "verify", "--suite", "decomposition", "--r", "3", "--trials", "300",
            "--seed", "4", "--out", str(path),
        )
        assert code == 0
        report = suites.decomposition_suite(trials=300, seed=4, r=3)
        assert path.read_text() == json.dumps(report.as_dict(), indent=2) + "\n"
        assert out.splitlines()[:3] == ["suite = decomposition", "trials = 300", "seed = 4"]
        assert out.endswith(f"report written to {path}\n")

    def test_report_file_is_strict_json_when_no_class_has_an_interior_index(
        self, capsys, tmp_path
    ):
        path = tmp_path / "u.json"
        code, out, _ = run(
            capsys,
            "verify", "--suite", "ulc", "--n", "1", "--r", "3", "--trials", "100",
            "--out", str(path),
        )
        assert code == 0
        assert "min_margin = None" in out

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        payload = json.loads(path.read_text(), parse_constant=reject)
        assert payload["stats"]["min_margin"] is None

    def test_prints_the_first_five_witnesses_without_out(self, capsys, monkeypatch):
        real = suites.ulc_order_margins
        monkeypatch.setattr(suites, "ulc_order_margins", lambda u, order: real(u, order) - 10.0)
        code, out, _ = run(capsys, "verify", "--suite", "ulc", "--trials", "50", "--seed", "2")
        assert code == 1
        assert "violations = 50" in out
        witnesses = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
        assert [w["trial"] for w in witnesses] == [0, 1, 2, 3, 4]
        assert all(w["residue"] == 0 and w["witness"] == 1 for w in witnesses)

    @pytest.mark.parametrize("suite", ["identity", "sign", "preserve", "decomposition"])
    def test_all_suites_run(self, capsys, suite):
        code, out, _ = run(capsys, "verify", "--suite", suite, "--trials", "500")
        assert code == 0
        assert f"suite = {suite}" in out


class TestIdentityCommand:
    """The identity suite through ``verify``, which replaced the ``identity`` subcommand."""

    def test_human(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "identity", "--trials", "2000")
        assert code == 0
        assert "max_relative_gap" in out

    def test_json(self, capsys, tmp_path):
        path = tmp_path / "identity.json"
        code, _, _ = run(
            capsys, "verify", "--suite", "identity", "--trials", "1000", "--out", str(path)
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["passed"] is True
        assert payload["stats"]["max_relative_gap"] <= 1e-12


def help_text(capsys, *argv):
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--help"])
    assert excinfo.value.code == 0
    return capsys.readouterr().out


class TestSettingsPerCommand:
    def test_five_subcommands(self, capsys):
        out = help_text(capsys)
        assert "{bound,construct,optimize,sweep,verify}" in out

    @pytest.mark.parametrize("command", sorted(COMMAND_SETTINGS))
    def test_help_lists_exactly_the_settings(self, capsys, command):
        options = set(re.findall(r"^  (-[-\w]+)", help_text(capsys, command), re.M))
        assert options == {"-h", "--config"} | {f"--{n}" for n in COMMAND_SETTINGS[command]}

    def test_flag_of_another_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bound", "--n", "2", "--r", "2", "--starts", "5"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("suite, argv", [
        ("sign", ["--n", "5"]),
        ("identity", ["--r", "3"]),
        ("preserve", ["--n", "2", "--r", "2"]),
        ("decomposition", ["--n", "2"]),
    ])
    def test_verify_rejects_n_and_r_the_suite_does_not_read(self, capsys, suite, argv):
        code, _, err = run(capsys, "verify", "--suite", suite, "--trials", "10", *argv)
        assert code == 2
        assert "does not read" in err

    def test_verify_rejects_n_from_config_too(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("suite = sign\nn = 5\n")
        code, _, err = run(capsys, "verify", "--config", str(config))
        assert code == 2
        assert "--n" in err

    def test_decomposition_reads_r(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "decomposition", "--r", "3", "--trials", "20"
        )
        assert code == 0
        assert "suite = decomposition" in out

    def test_config_supplies_suite(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("suite = identity\ntrials = 100\n")
        code, out, _ = run(capsys, "verify", "--config", str(config))
        assert code == 0
        assert "suite = identity" in out

    def test_unknown_suite_from_config_is_usage_error(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("suite = nope\n")
        code, _, err = run(capsys, "verify", "--config", str(config))
        assert code == 2
        assert "nope" in err

    def test_unknown_config_key_is_usage_error(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("strats = 128\n")
        code, _, err = run(capsys, "sweep", "--config", str(config), "--n-max", "1", "--r-max", "1")
        assert code == 2
        assert "strats" in err

    def test_config_key_of_another_subcommand_is_usage_error(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("n = 1\nr = 3\nstarts = 8\n")
        code, _, err = run(capsys, "bound", "--config", str(config))
        assert code == 2
        assert "starts" in err

    def test_bad_thread_count_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("MAXENT_THREADS", "banana")
        code, _, err = run(capsys, "bound", "--n", "1", "--r", "1")
        assert code == 2
        assert "MAXENT_THREADS" in err


class TestTolerance:
    @pytest.fixture
    def captured(self, monkeypatch):
        configs = []
        real = cli.multistart_maximize

        def spy(n, r, config):
            configs.append(config)
            return real(n, r, config)

        monkeypatch.setattr(cli, "multistart_maximize", spy)
        return configs

    def test_sweep_tol_is_the_gap_tolerance_only(self, capsys, captured):
        code, _, err = run(
            capsys, "sweep", "--n-max", "1", "--r-max", "2", "--starts", "2", "--no-timing",
            "--tol", "1e-3",
        )
        assert code == 0
        assert "gaps > +0.001" in err
        assert [c.outer_tol for c in captured] == [OptimizerConfig.outer_tol] * 2
        assert OptimizerConfig.outer_tol == 1e-12

    def test_optimize_tol_is_the_outer_tolerance(self, capsys, captured):
        code, _, _ = run(
            capsys, "optimize", "--n", "2", "--r", "2", "--starts", "2", "--tol", "1e-3"
        )
        assert code == 0
        assert [c.outer_tol for c in captured] == [1e-3]

    def _run_without_settings(self, capsys, monkeypatch):
        for name in ("MAXENT_STARTS", "MAXENT_SEED", "MAXENT_TOL"):
            monkeypatch.delenv(name, raising=False)
        assert run(capsys, "optimize", "--n", "1", "--r", "1")[0] == 0
        assert run(capsys, "sweep", "--n-max", "1", "--r-max", "1", "--no-timing")[0] == 0

    def test_unset_settings_take_the_config_defaults(self, capsys, captured, monkeypatch):
        self._run_without_settings(capsys, monkeypatch)
        assert captured == [OptimizerConfig()] * 2

    def test_a_changed_config_default_reaches_the_cli(self, capsys, captured, monkeypatch):
        @dataclasses.dataclass(frozen=True)
        class Changed(OptimizerConfig):
            starts: int = 3
            seed: int = 9
            outer_tol: float = 1e-9

        monkeypatch.setattr(cli, "OptimizerConfig", Changed)
        self._run_without_settings(capsys, monkeypatch)
        assert captured == [Changed()] * 2


def _readme_commands():
    """Every ``maxentsum ...`` command line in the README's ``sh`` blocks."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = [line for block in blocks for line in block.splitlines()]
    return [m.group(1) for line in lines if (m := re.search(r"\bmaxentsum (.*)", line))]


def test_readme_has_command_lines():
    assert len(_readme_commands()) >= 5


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_parses(line):
    _build_parser().parse_args(shlex.split(line, comments=True))


def test_readme_settings_table_matches_the_parser():
    """The README's Settings table lists exactly each subcommand's settings."""
    rows = re.findall(r"^\| `([a-z]+)` +\| (`.*`) +\|$", README.read_text(encoding="utf-8"), re.M)
    table = {command: tuple(re.findall(r"`([-\w]+)`", cells)) for command, cells in rows}
    assert table == COMMAND_SETTINGS


def test_readme_package_layout_lists_every_module():
    """The README's Package layout table lists exactly the package's modules."""
    rows = re.findall(r"^\| `maxentsum\.(\w+)` +\|", README.read_text(encoding="utf-8"), re.M)
    modules = {path.stem for path in (README.parent / "src" / "maxentsum").glob("*.py")}
    assert sorted(rows) == sorted(modules - {"__init__"})


class TestSettingsPrecedence:
    def test_config_file_supplies_flags(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("# demo config\nn = 1\nr = 3\n")
        code, out, _ = run(capsys, "bound", "--config", str(config))
        assert code == 0
        assert "bound_bits = 2\n" in out  # log2(4)

    def test_flags_override_config(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("n = 1\nr = 3\n")
        code, out, _ = run(capsys, "bound", "--config", str(config), "--r", "7")
        assert code == 0
        assert "bound_bits = 3" in out  # log2(8)

    def test_env_is_lowest_precedence(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("MAXENT_N", "1")
        monkeypatch.setenv("MAXENT_R", "1")
        config = tmp_path / "run.conf"
        config.write_text("r = 3\n")
        # env supplies n; config overrides env for r
        code, out, _ = run(capsys, "bound", "--config", str(config))
        assert code == 0
        assert "bound_bits = 2\n" in out

    def test_repeated_config_key_is_usage_error_naming_both_lines(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("n = 2\nr = 3\n# again\nn = 3\n")
        code, out, err = run(capsys, "bound", "--config", str(config))
        assert code == 2 and out == ""
        assert "'n'" in err and "lines 1 and 4" in err

    def test_malformed_config_is_usage_error(self, capsys, tmp_path):
        config = tmp_path / "bad.conf"
        config.write_text("this line has no equals sign\n")
        code, _, err = run(capsys, "bound", "--config", str(config), "--n", "1", "--r", "1")
        assert code == 2
        assert "key = value" in err

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_config_is_usage_error_naming_the_file(self, capsys, tmp_path, kind):
        config = tmp_path / "run.conf"
        if kind == "directory":
            config.mkdir()
        elif kind == "not-utf8":
            config.write_bytes(b"n = 1\nr = \xff\n")
        code, out, err = run(capsys, "bound", "--config", str(config), "--n", "1", "--r", "1")
        assert code == 2 and out == ""
        assert err.startswith("usage error:") and str(config) in err

    def test_config_may_start_with_a_byte_order_mark(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_bytes(b"\xef\xbb\xbfn = 1\nr = 3\n")
        code, out, err = run(capsys, "bound", "--config", str(config))
        assert code == 0 and err == ""
        assert "bound_bits = 2\n" in out  # log2(4)

    def test_config_boolean_words(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("json = yes\n")
        code, out, _ = run(capsys, "bound", "--config", str(config), "--n", "1", "--r", "3")
        assert code == 0
        assert json.loads(out)["bound_bits"] == 2.0

    @pytest.mark.parametrize("word", ["off", "no", "false", "0"])
    def test_config_false_words(self, capsys, tmp_path, word):
        config = tmp_path / "run.conf"
        config.write_text(f"json = {word}\n")
        code, out, _ = run(capsys, "bound", "--config", str(config), "--n", "1", "--r", "3")
        assert code == 0
        assert "bound_bits = 2\n" in out

    def test_env_boolean_zeroes_sweep_timing(self, capsys, monkeypatch):
        monkeypatch.setenv("MAXENT_NO_TIMING", "1")
        code, out, _ = run(capsys, "sweep", "--n-max", "1", "--r-max", "2", "--starts", "1")
        assert code == 0
        assert [line.split(",")[-1] for line in out.splitlines()[1:]] == ["0.0", "0.0"]

    def test_env_value_that_is_not_a_boolean_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("MAXENT_JSON", "maybe")
        code, out, err = run(capsys, "bound", "--n", "1", "--r", "3")
        assert code == 2 and out == ""
        assert "MAXENT_JSON" in err and "maybe" in err

    def test_bad_env_value_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("MAXENT_R", "banana")
        code, _, err = run(capsys, "bound", "--n", "1")
        assert code == 2

    @pytest.mark.parametrize("name", ["MAXENT_STRATS", "MAXENT_CONFIG"])
    def test_unknown_env_variable_is_usage_error(self, capsys, monkeypatch, name):
        monkeypatch.setenv(name, "128")
        code, out, err = run(capsys, "optimize", "--n", "2", "--r", "2", "--starts", "1")
        assert code == 2 and out == ""
        assert name in err

    def test_env_setting_of_another_subcommand_is_allowed(self, capsys, monkeypatch):
        monkeypatch.setenv("MAXENT_SEED", "7")  # read by optimize, sweep and verify
        code, out, _ = run(capsys, "bound", "--n", "1", "--r", "3")
        assert code == 0
        assert "bound_bits = 2\n" in out
