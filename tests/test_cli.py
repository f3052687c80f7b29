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
                     "--threads", "2", "--out", str(csv_path),
                     "--slope-json", str(js_path)])
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
