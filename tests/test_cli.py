import json

import numpy as np
import pytest

from bregopt.cli import cli_main
from bregopt.problems import get_problem


def test_validate_exits_zero(capsys):
    assert cli_main(["validate", "P3", "--n-pairs", "25"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_validate_unknown_problem_is_usage_error(capsys):
    assert cli_main(["validate", "NOPE"]) == 2


def test_a_library_key_error_is_not_a_usage_error(monkeypatch):
    # only the problem-id lookup maps KeyError to exit code 2; one raised
    # inside a handler is a fault and propagates
    def broken(*args, **kwargs):
        raise KeyError("atoms")

    monkeypatch.setattr("bregopt.cli.sweep", broken)
    with pytest.raises(KeyError, match="atoms"):
        cli_main(["sweep", "P3", "--horizons", "8", "--seeds", "2"])


@pytest.mark.parametrize("args", [["--seeds", "0"], ["--seeds", "-2"],
                                  ["--seeds", "two"], ["--horizons", "4,x"],
                                  ["--horizons", "8,4"], ["--threads", "2"],
                                  ["--horizons=-3,4"], ["--alpha", "0"], ["--lambda", "-1"]])
def test_bad_sweep_arguments_are_usage_errors(args, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["sweep", "P1", "--horizons", "4", "--seeds", "1"] + args)
    assert exc.value.code == 2
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("args", [["run", "P1", "--T", "-2", "--seed", "0"],
                                  ["run", "P1", "--T", "4", "--seed", "0", "--lambda", "-1"],
                                  ["run", "P1", "--T", "4", "--seed", "0", "--alpha", "0"],
                                  ["validate", "P1", "--n-pairs", "0"],
                                  ["validate", "P1", "--n-pairs", "-4"],
                                  ["oracle", "P1", "--resolution", "0"],
                                  ["oracle", "P1", "--resolution", "-0.01"],
                                  ["oracle", "P1", "--descent-iterations", "-5"],
                                  ["run", "P1", "--T", "5", "--seed", "-1"],
                                  ["validate", "P1", "--seed", "-1"],
                                  ["validate", "P1", "--seed", "one"],
                                  ["oracle", "P4", "--descent-iterations", "0"]])
def test_bad_numbers_are_usage_errors(args, capsys):
    # rejected at parse time, before any problem is built or run
    with pytest.raises(SystemExit) as exc:
        cli_main(args)
    assert exc.value.code == 2
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("command, seed", [(["run", "P1", "--T", "5", "--seed", "0"], "abc"),
                                           (["validate", "P1"], "-1")])
def test_a_bad_seed_in_the_environment_is_a_usage_error(command, seed, capsys, monkeypatch):
    # BREGOPT_SEED is read by the rule of --seed, before any run
    def started(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr("bregopt.cli.run_for_regime", started)
    monkeypatch.setenv("BREGOPT_SEED", seed)
    with pytest.raises(SystemExit) as exc:
        cli_main(command)
    assert exc.value.code == 2
    assert "BREGOPT_SEED" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["oracle", "P1", "--box-lo", "1", "--box-hi", "-1", "--resolution", "0.1"],
    ["oracle", "P1", "--box-lo", "nan"],
    ["oracle", "P1", "--box-lo", "inf"],
    ["run", "P1", "--T", "4", "--seed", "0", "--lambda", "100"],
    ["sweep", "P1", "--horizons", "4", "--seeds", "2", "--lambda", "100"],
    ["run", "P3", "--T", "0", "--seed", "0", "--lambda", "0.1"],
    ["sweep", "P4", "--horizons", "0,4", "--seeds", "1", "--lambda", "0.1",
     "--strongly-convex"]])
def test_inputs_across_options_or_the_problem_are_usage_errors(args, capsys, monkeypatch):
    # an empty box, a non-finite box end, and steps the library refuses for
    # the problem (driver._resolve_etas) end before any run
    def started(*args, **kwargs):
        raise AssertionError("a run started")

    for name in ("run_for_regime", "sweep", "brute_force_min"):
        monkeypatch.setattr("bregopt.cli." + name, started)
    with pytest.raises(SystemExit) as exc:
        cli_main(args)
    assert exc.value.code == 2
    assert "error: " in capsys.readouterr().err


def test_an_oracle_box_of_one_point_runs(capsys):
    assert cli_main(["oracle", "P1", "--box-lo", "1", "--box-hi", "1",
                     "--resolution", "0.1"]) == 0
    assert json.loads(capsys.readouterr().out)["argmin"] == ["1.0"]


def test_bad_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli_main(["frobnicate"])
    assert exc.value.code == 2


def test_run_t0_emits_one_iteration_row(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    env = tmp_path / "env.json"
    code = cli_main(["run", "P1", "--T", "0", "--seed", "1",
                     "--out", str(out), "--envelope-json", str(env)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2  # header plus exactly one iteration row
    assert lines[0] == "problem_id,t,eta,model_value,r_value,step_divergence"
    report = json.loads(env.read_text())
    assert report["problem_id"] == "P1" and report["t_star"] == 0


def test_run_seed_env_override(tmp_path, monkeypatch):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    monkeypatch.setenv("BREGOPT_SEED", "777")
    cli_main(["run", "P1", "--T", "5", "--seed", "1", "--out", str(a)])
    cli_main(["run", "P1", "--T", "5", "--seed", "2", "--out", str(b)])
    assert a.read_text() == b.read_text()
    monkeypatch.delenv("BREGOPT_SEED")
    cli_main(["run", "P1", "--T", "5", "--seed", "2", "--out", str(b)])
    assert a.read_text() != b.read_text()


def test_sweep_writes_csv_and_slope_json(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    js_path = tmp_path / "slope.json"
    code = cli_main(["sweep", "P3", "--horizons", "8,16", "--seeds", "2",
                     "--out", str(csv_path), "--slope-json", str(js_path)])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == ("regime,problem_id,T,seed,eta0,lambda,"
                        "metric_name,metric_value,wall_ms")
    assert len(lines) == 1 + 4  # one metric row per (T, seed) cell
    slope = json.loads(js_path.read_text())
    assert set(slope) == {"slope", "intercept", "r2", "horizons", "n_seeds"}
    assert slope["horizons"] == [8, 16] and slope["n_seeds"] == 2


def test_oracle_subcommand(capsys):
    assert cli_main(["oracle", "P3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["method"] == "grid"
    abar = np.mean(np.asarray(get_problem("P3").config["atoms"]), axis=0)
    assert float(out["value"]) == pytest.approx(float(abar.min()))


def test_config_subcommand(capsys):
    assert cli_main(["config", "P1"]) == 0
    cfg = json.loads(capsys.readouterr().out)
    assert cfg["id"] == "P1"
    # numeric payloads are decimal strings for bit-exact parsing
    assert isinstance(cfg["a"][0], str)
    assert float(cfg["a"][0]) == float(cfg["a"][0])
