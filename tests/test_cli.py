"""Tests for the command-line front end: exit codes, emission, determinism."""

import json
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stretchwalk import cli


def run_cli(argv, capsys):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        rc, _, err = run_cli([], capsys)
        assert rc == 1
        assert "usage" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        rc, _, _ = run_cli(["bounds", "--bogus", "1"], capsys)
        assert rc == 1

    def test_help_exits_zero(self, capsys):
        rc, out, _ = run_cli(["--help"], capsys)
        assert rc == 0
        assert "bounds" in out

    def test_missing_required_flag(self, capsys):
        rc, _, err = run_cli(["bounds", "--model", "exp"], capsys)
        assert rc == 1
        assert "--n" in err

    def test_unknown_plan(self, capsys):
        rc, _, err = run_cli(["conditions", "--plan", "nope"], capsys)
        assert rc == 1
        assert "example1-case2" in err

    def test_numeric_failure_names_error_class(self, capsys):
        rc, _, err = run_cli(
            ["localize", "--model", "weibull:k=3", "--n", "5", "--a", "2",
             "--eps", "0.5", "--trials", "500"],
            capsys,
        )
        assert rc == 2
        assert err.startswith("DomainError")

    @pytest.mark.parametrize("eps", ["0", "-0.5", "1e400"])
    def test_empty_or_unbounded_band_is_domain_error(self, eps, capsys):
        # (a - eps, a + eps) is empty for eps <= 0; 1e400 is not finite.
        rc, out, err = run_cli(
            ["localize", "--model", "weibull:k=3", "--n", "5", "--a", "2",
             f"--eps={eps}", "--trials", "1000"],
            capsys,
        )
        assert out == ""
        if eps == "1e400":
            assert rc == 1 and "--eps" in err
        else:
            assert rc == 2 and err.startswith("DomainError")

    def test_one_gibbs_sweep_is_domain_error(self, capsys):
        # One recorded sweep leaves batch means nothing to compare.
        rc, out, err = run_cli(
            ["localize", "--model", "weibull:k=3", "--n", "5", "--a", "2", "--eps", "0.5",
             "--method", "FixedSumGibbs", "--trials", "1"],
            capsys,
        )
        assert rc == 2
        assert out == ""
        assert err.startswith("DomainError")

    @pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
    def test_unresolvable_pair_table_is_numeric_failure(self, capsys):
        # exp at pair sum 1600: e^u + e^(1600 - u) overflows for every u, so
        # the pair conditional has no finite log-density anywhere.
        rc, out, err = run_cli(
            ["localize", "--model", "exp", "--n", "2", "--a", "800", "--eps", "0.5",
             "--method", "FixedSumGibbs", "--trials", "100"],
            capsys,
        )
        assert rc == 2
        assert out == ""
        assert err.startswith("NonIntegrable")

    def test_bad_model_spec(self, capsys):
        rc, _, err = run_cli(
            ["rate", "--model", "cauchy", "--a", "5"], capsys
        )
        assert rc == 2
        assert "InvalidModel" in err

    def test_key_must_match_kind(self, capsys):
        # weibull takes k=; a power key is refused, not read as k.
        rc, out, err = run_cli(
            ["rate", "--model", "weibull:beta=3", "--a", "5"], capsys
        )
        assert rc == 2
        assert out == ""
        assert err.startswith("InvalidModel")

    @pytest.mark.parametrize("argv", [
        ["bounds", "--model", "exp", "--n", "3", "--a", "800", "--eps", "0.5"],
        ["bounds", "--model", "power:beta=2", "--n", "3", "--a", "1e200", "--eps", "0.5"],
        ["conditions", "--plan", "example2", "--alpha", "0"],
        ["conditions", "--plan", "example1-case2", "--alpha", "0.001"],
    ])
    def test_overflowing_inputs_are_domain_errors(self, argv, capsys):
        # g(a) or the plan level a_n = n**(1/alpha) leaves the float range.
        rc, out, err = run_cli(argv, capsys)
        assert rc == 2
        assert out == ""
        assert err.startswith("DomainError")


class TestBounds:
    def test_oracle_agreement_json(self, capsys):
        rc, out, _ = run_cli(
            ["bounds", "--model", "weibull:k=3", "--n", "4", "--a", "3",
             "--eps", "0.5", "--oracle", "--format", "json"],
            capsys,
        )
        assert rc == 0
        data = json.loads(out)
        row = data["rows"][0]
        assert row["oracle_rel_gap"] <= 1e-4
        assert row["escape_infimum"] == min(row["high_exit"], row["low_exit"])

    def test_grid_expands(self, capsys):
        rc, out, _ = run_cli(
            ["bounds", "--model", "power:beta=2", "--n", "2,3", "--a", "2,3",
             "--eps", "0.4"],
            capsys,
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "# seed=0"
        assert lines[1].startswith("n,a,eps,")
        assert len(lines) == 2 + 4

    def test_perturbed_model_rejected(self, capsys):
        rc, _, err = run_cli(
            ["bounds", "--model", "power:beta=2/sin", "--n", "2", "--a", "2",
             "--eps", "0.4"],
            capsys,
        )
        assert rc == 1
        assert "pure" in err


class TestConditions:
    def test_case2_with_documented_overrides(self, capsys):
        rc, out, _ = run_cli(
            ["conditions", "--plan", "example1-case2", "--beta", "3",
             "--alpha", "0.5", "--format", "json"],
            capsys,
        )
        assert rc == 0
        data = json.loads(out)
        assert data["c32_trend"] == "decreasing"
        assert data["c33_trend"] == "decreasing"
        assert data["final_ratio32"] < 1e-2

    def test_csv_columns(self, capsys):
        rc, out, _ = run_cli(
            ["conditions", "--plan", "example1-case1"], capsys
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[1] == "n,a,eps,ratio_growth,ratio32,ratio33,H,G"

    def test_custom_grid(self, capsys):
        rc, out, _ = run_cli(
            ["conditions", "--plan", "example1-case2", "--n", "100,1000"],
            capsys,
        )
        assert rc == 0
        assert len(out.strip().splitlines()) == 4


class TestRate:
    def test_tabulated_model(self, tmp_path, capsys):
        # A tabulated g = x^2 reproduces the power beta=2 law (EX = 1/sqrt(pi)).
        grid = np.linspace(1e-3, 14.0, 3000)
        path = tmp_path / "steps.csv"
        np.savetxt(path, np.column_stack([grid, grid**2]), delimiter=",")
        rc, out, _ = run_cli(
            ["rate", "--model", f"tabulated:path={path}", "--a", "3"], capsys
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[1] == "x,I,t_star"
        assert len(lines) == 2 + 129
        x0, i0, t0 = (float(v) for v in lines[2].split(","))
        assert x0 == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-4)
        assert i0 == 0.0 and t0 == 0.0


class TestLocalize:
    def test_csv_rows_per_n(self, capsys):
        rc, out, _ = run_cli(
            ["localize", "--model", "weibull:k=3", "--n", "5,10", "--a", "2",
             "--eps", "0.5", "--trials", "5000", "--seed", "11"],
            capsys,
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "# seed=11"
        assert lines[1] == "n,p_hat,std_err,n_eff,replications,wilson_lo,wilson_hi"
        assert len(lines) == 4

    def test_zero_hits_keep_an_upper_bound(self, capsys):
        # No draw lands in the narrow band: p_hat = std_err = 0, and the
        # Wilson interval still bounds p away from a certain 0.
        rc, out, _ = run_cli(
            ["localize", "--model", "weibull:k=3", "--n", "5", "--a", "2",
             "--eps", "0.01", "--trials", "1000"],
            capsys,
        )
        assert rc == 0
        row = dict(zip(out.splitlines()[1].split(","), out.splitlines()[2].split(",")))
        assert float(row["p_hat"]) == float(row["std_err"]) == 0.0
        assert float(row["wilson_lo"]) == 0.0
        assert float(row["wilson_hi"]) == pytest.approx(
            1.96**2 / (float(row["n_eff"]) + 1.96**2))

    @pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
    def test_gibbs_resolves_a_collapsed_pair_table(self, capsys):
        # exp at pair sum 800: log p(u) p(800 - u) is about -1e174, so
        # peak - MASS_DROP rounds to the peak, and the conditional's sd
        # (about e^-200) is far below float resolution: the row is a point
        # mass at 400, where every draw lands.
        rc, out, _ = run_cli(
            ["localize", "--model", "exp", "--n", "2", "--a", "400", "--eps", "0.01",
             "--method", "FixedSumGibbs", "--trials", "100", "--format", "json"],
            capsys,
        )
        assert rc == 0
        assert json.loads(out)["rows"][0]["p_hat"] == 1.0

    def test_gibbs_method(self, capsys):
        rc, out, _ = run_cli(
            ["localize", "--model", "power:beta=2", "--n", "4", "--a", "2",
             "--eps", "1.0", "--method", "FixedSumGibbs", "--trials", "300",
             "--format", "json"],
            capsys,
        )
        assert rc == 0
        row = json.loads(out)["rows"][0]
        assert 0.0 <= row["p_hat"] <= 1.0


class TestPaths:
    def test_json_summary(self, capsys):
        rc, out, _ = run_cli(
            ["paths", "--model", "weibull:k=3", "--n", "50", "--a", "2",
             "--k", "5", "--alpha", "1.5", "--trials", "10",
             "--format", "json", "--seed", "3"],
            capsys,
        )
        assert rc == 0
        data = json.loads(out)
        assert set(data) >= {"argmax_j", "max_slope", "a_k_event",
                             "p_ak", "p_ak_std_err", "note"}
        assert 0 <= data["argmax_j"] <= 45

    def test_all_hits_keep_a_lower_bound(self, capsys):
        rc, out, _ = run_cli(
            ["paths", "--model", "weibull:k=3", "--n", "50", "--a", "2",
             "--k", "5", "--alpha", "1.0", "--trials", "10",
             "--format", "json", "--seed", "3"],
            capsys,
        )
        assert rc == 0
        data = json.loads(out)
        assert data["p_ak"] == 1.0 and data["p_ak_std_err"] == 0.0
        assert data["p_ak_wilson_hi"] == 1.0
        assert 0.0 < data["p_ak_wilson_lo"] < 1.0

    def test_csv_trajectory(self, capsys):
        rc, out, _ = run_cli(
            ["paths", "--model", "weibull:k=3", "--n", "20", "--a", "2",
             "--k", "4", "--alpha", "1.5", "--trials", "5", "--seed", "3"],
            capsys,
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[1] == "j,increment,partial_sum"
        assert len(lines) == 2 + 20


class TestDeterminism:
    def test_stdout_byte_identical(self, capsys):
        argv = ["localize", "--model", "weibull:k=3", "--n", "5", "--a", "2",
                "--eps", "0.5", "--trials", "5000", "--seed", "4"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second

    def test_seed_changes_output(self, capsys):
        base = ["localize", "--model", "weibull:k=3", "--n", "5", "--a", "2",
                "--eps", "0.5", "--trials", "5000"]
        _, first, _ = run_cli(base + ["--seed", "4"], capsys)
        _, second, _ = run_cli(base + ["--seed", "5"], capsys)
        assert first != second

    def test_file_output_with_sidecar(self, tmp_path, capsys):
        argv = ["conditions", "--plan", "example1-case1", "--out", str(tmp_path)]
        rc, out, _ = run_cli(argv, capsys)
        assert rc == 0
        assert out == ""
        primary = tmp_path / "conditions.csv"
        meta = tmp_path / "conditions.meta.json"
        assert primary.exists() and meta.exists()
        sidecar = json.loads(meta.read_text())
        assert "written_at" in sidecar
        assert "written_at" not in primary.read_text()


class TestConfigFile:
    def test_config_overrides_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": [4], "a": 2.5}))
        rc, out, _ = run_cli(
            ["localize", "--model", "power:beta=2", "--n", "99", "--a", "1.0",
             "--eps", "1.0", "--trials", "2000", "--format", "json",
             "--config", str(cfg)],
            capsys,
        )
        assert rc == 0
        data = json.loads(out)
        assert data["a"] == 2.5
        assert data["rows"][0]["n"] == 4

    def test_non_string_model_is_invalid(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": 3}))
        for command in (["bounds", "--n", "2", "--a", "2", "--eps", "0.4"],
                        ["rate", "--a", "5"]):
            rc, _, err = run_cli(command + ["--model", "exp", "--config", str(cfg)], capsys)
            assert rc == 2
            assert err.startswith("InvalidModel")

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        rc, _, err = run_cli(
            ["localize", "--model", "power:beta=2", "--n", "4", "--a", "2",
             "--eps", "1.0", "--config", str(cfg)],
            capsys,
        )
        assert rc == 1
        assert "bogus" in err


class TestConfigParse:
    """Config keys are parsed as ``--key=value`` by the flags' own declarations."""

    _BOUNDS = ["bounds", "--model", "weibull:k=3", "--n", "2", "--a", "3", "--eps", "0.5"]

    @staticmethod
    def _run_with(tmp_path, capsys, argv, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return run_cli(argv + ["--config", str(path)], capsys)

    @pytest.mark.parametrize("command, cfg, flag", [
        ("localize", {"trials": "many"}, "--trials"),
        ("conditions", {"seed": "x"}, "--seed"),
        ("localize", {"format": "xml"}, "--format"),
        ("localize", {"method": "Rejection"}, "--method"),
    ])
    def test_bad_value_is_usage_error(self, tmp_path, capsys, command, cfg, flag):
        argv = {
            "localize": ["localize", "--model", "power:beta=2", "--n", "4", "--a", "2",
                         "--eps", "1.0", "--trials", "2000"],
            "conditions": ["conditions", "--plan", "example1-case1"],
        }[command]
        rc, out, err = self._run_with(tmp_path, capsys, argv, cfg)
        assert rc == 1
        assert out == ""
        assert flag in err
        assert "Traceback" not in err

    def test_required_flag_from_config(self, tmp_path, capsys):
        rc, out, _ = self._run_with(tmp_path, capsys, ["bounds", "--model", "exp"],
                                    {"n": [2, 3], "a": 2, "eps": 0.4})
        assert rc == 0
        assert len(out.strip().splitlines()) == 2 + 2

    def test_oracle_switch_from_config(self, tmp_path, capsys):
        rc, out, _ = self._run_with(tmp_path, capsys, self._BOUNDS, {"oracle": True})
        assert rc == 0
        assert out.splitlines()[1].endswith(",oracle_escape,oracle_rel_gap")
        rc, out, _ = self._run_with(tmp_path, capsys, self._BOUNDS + ["--oracle"],
                                    {"oracle": False})
        assert rc == 0
        assert out.splitlines()[1].endswith(",volume_correction")

    @pytest.mark.parametrize("cfg, key", [
        ({"n": {"value": 2}}, "n"),
        ({"n": None}, "n"),
        ({"config": "other.json"}, "config"),
        ({"conf": "other.json"}, "conf"),
    ])
    def test_bad_shape_or_key_is_usage_error(self, tmp_path, capsys, cfg, key):
        rc, out, err = self._run_with(tmp_path, capsys, self._BOUNDS, cfg)
        assert rc == 1
        assert out == ""
        assert f"config key {key!r}" in err


class TestVerifySubcommand:
    def test_single_fast_criterion(self, capsys):
        rc, out, _ = run_cli(["verify", "--criteria", "9"], capsys)
        assert rc == 0
        data = json.loads(out)
        assert data["all_passed"] is True
        assert data["criteria"][0]["index"] == 9
        assert data["criteria"][0]["passed"] is True

    def test_bad_criteria_range(self, capsys):
        rc, _, err = run_cli(["verify", "--criteria", "0,12"], capsys)
        assert rc == 1
        assert "1..11" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "stretchwalk.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "stretchwalk" in proc.stdout


def test_cli_import_leaves_scipy_unloaded():
    # The package runs on numpy alone, so no command loads scipy.  numpy.ma,
    # which np.unique imports, does not load at all.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import stretchwalk.cli, sys; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy')), "
         "'numpy.ma' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] False"


def test_rate_command_leaves_scipy_unloaded():
    # The rate table's derivative check solves its spline in numpy, and
    # importance sampling sums its weights with a numpy log-sum-exp.
    for argv in (["rate", "--model", "power:beta=2", "--a", "6"],
                 ["localize", "--model", "weibull:k=3", "--n", "5", "--a", "2", "--eps", "0.5",
                  "--method", "TiltedIS", "--trials", "2000"]):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from stretchwalk import cli; "
             f"code = cli.main({argv!r}); "
             "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "0 []", argv


def test_tabulated_commands_run_with_scipy_unimportable(tmp_path):
    # A tabulated g and q are read by the package's own PCHIP, so a model
    # with a q column builds, solves its rate and runs fixed-sum chains
    # where scipy cannot be imported.
    x = np.linspace(0.05, 60.0, 400)
    path = tmp_path / "cubic_q.csv"
    np.savetxt(path, np.column_stack([x, x**3, 0.3 * np.sin(x)]), delimiter=",")
    model = f"tabulated:path={path}"
    for argv in (["rate", "--model", model, "--a", "6"],
                 ["localize", "--model", model, "--n", "5", "--a", "3", "--eps", "0.5",
                  "--method", "FixedSumGibbs", "--trials", "100"]):
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-c",
             "import sys; sys.modules['scipy'] = None; from stretchwalk import cli; "
             f"sys.exit(cli.main({argv!r}))"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("# seed=0\n"), argv


_README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


@pytest.mark.parametrize("command, lead", [
    ("stretchwalk localize --model weibull:k=3", "The `TiltedIS` example above prints"),
    ("stretchwalk paths", "The example above prints"),
], ids=["localize", "paths"])
def test_readme_output_matches_cli(command, lead, capsys):
    # The README shows the output of two of its command examples; running
    # the same argv must print those blocks byte for byte.
    lines = re.sub(r"\\\n\s*", " ", _README).splitlines()
    (argv,) = [shlex.split(line)[1:] for line in lines if line.startswith(command)]
    (block,) = re.findall(re.escape(lead) + r"\n\n```\n(.*?)```", _README, re.S)
    rc, out, _ = run_cli(argv, capsys)
    assert rc == 0
    assert out == block
