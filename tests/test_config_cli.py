import copy
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kacbath
from kacbath.cli import main
from kacbath.config import (MAX_BUFFER_BYTES, MAX_EVENTS_PER_TRAJECTORY, MAX_TRAJECTORIES, ConfigError,
                            ExperimentConfig, canonical_hash, load_config, parse_config)
from kacbath.engine import EnsembleConfig, InitialCondition, result_bytes
from kacbath.model import AngleDistribution, GeneratorParams
from kacbath.words import sum_rule_bytes
from kacbath.output import read_snapshots, write_snapshots

BASE_CONFIG = {
    "params": {"M": 2, "N": 8, "lambda_S": 1.0, "lambda_R": 1.0, "mu": 1.0, "dimension": 1},
    "rho": {"type": "uniform"},
    "initial": {"kind": "gaussian_product", "s": 1.0 / math.pi},
    "ensemble": {"n_traj": 1500, "t_grid": [0, 0.5, 1], "seed": 99},
}


def write_config(tmp_path, overrides=None, name="config.json"):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for key, value in (overrides or {}).items():
        if value is None:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


# ------------------------------------------------------------------- parsing


def test_parse_full_config(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.params.M == 2 and cfg.params.N == 8
    assert cfg.rho.kind == "uniform"
    assert cfg.ensemble.seed == 99
    assert len(cfg.config_hash) == 64


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"bogus": 1}))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"params": {"M": 2, "N": 8, "gamma": 1}}))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"ensemble": {"n_traj": 10, "t_grid": [0], "seed": 1, "x": 2}}))


def test_negative_rate_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"params": {"M": 2, "N": 8, "mu": -1.0}}))


def test_missing_rho_rejected_for_1d(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"rho": None}))


def test_classical_preset(tmp_path):
    path = write_config(tmp_path, {"params": {"M": 2, "N": 8, "preset": "classical_kac"}})
    cfg = load_config(path)
    assert cfg.params.mu == pytest.approx(16.0 / 9.0)
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"params": {"M": 2, "N": 8, "preset": "classical_kac", "mu": 1.0}}))


def test_rho_variants(tmp_path):
    atoms = {"type": "atoms", "atoms": [[math.pi / 2, 0.5], [-math.pi / 2, 0.5]]}
    cfg = load_config(write_config(tmp_path, {"rho": atoms}))
    assert cfg.rho.sin2_moment == pytest.approx(1.0)
    thetas = np.linspace(-math.pi, math.pi, 401)
    table = {
        "type": "density_table",
        "thetas": thetas.tolist(),
        "values": ((1 + np.cos(thetas)) / (2 * math.pi)).tolist(),
    }
    cfg = load_config(write_config(tmp_path, {"rho": table}))
    assert cfg.rho.kind == "density"
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"rho": {"type": "nonsense"}}))


def test_initial_variants(tmp_path):
    cfg = load_config(write_config(tmp_path, {"initial": {"kind": "thermal"}}))
    assert cfg.initial.s == pytest.approx(1.0 / (2 * math.pi))
    cfg = load_config(write_config(
        tmp_path, {"initial": {"kind": "two_temperature", "s_hot": 0.5, "s_cold": 0.1}}
    ))
    assert cfg.initial.s_hot == 0.5
    cfg = load_config(write_config(
        tmp_path, {"initial": {"kind": "shifted_gaussian", "mean": [0.5, 0.0]}}
    ))
    assert cfg.initial.mean == (0.5, 0.0)
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"initial": {"kind": "custom"}}))


def test_omitted_rates_are_zero(tmp_path):
    path = write_config(tmp_path, {"params": {"M": 2, "N": 8}})
    params = load_config(path).params
    assert (params.lambda_S, params.lambda_R, params.mu, params.dimension) == (0.0, 0.0, 0.0, 1)
    assert main(["envelope", "--config", str(path), "--out", str(tmp_path / "env")]) == 0


def test_canonical_hash_is_key_order_independent():
    a = {"x": 1, "y": [1, 2]}
    b = {"y": [1, 2], "x": 1}
    assert canonical_hash(a) == canonical_hash(b)


@pytest.mark.parametrize("field", ["lambda_S", "M"])
def test_parse_config_rejects_integers_past_the_float_range(field):
    raw = {"params": {"M": 2, "N": 8, "lambda_S": 1.0, "lambda_R": 1.0, "mu": 1.0, field: 10 ** 400},
           "rho": {"type": "uniform"}}
    with pytest.raises(ConfigError, match=f"params.{field}"):
        parse_config(raw)


def test_parse_config_requires_mapping():
    with pytest.raises(ConfigError):
        parse_config([1, 2])


@pytest.mark.parametrize("raw", [
    {"params": {"M": 2, "N": 8, 1: 0, "x": 0}, "rho": {"type": "uniform"}},
    {"params": {"M": 2, "N": 8}, "rho": {"type": "uniform"}, 1: 0, "x": 0},
], ids=["in-params", "top-level"])
def test_parse_config_rejects_non_string_keys(raw):
    # JSON keys are strings, but a dict built in Python may mix in others, which cannot be sorted with them
    with pytest.raises(ConfigError, match="keys must be strings"):
        parse_config(raw)


def test_experiment_config_runs_the_checks_across_sections():
    params = GeneratorParams(M=2, N=8, lambda_S=1.0, lambda_R=1.0, mu=1.0)
    rho = AngleDistribution.uniform()
    with pytest.raises(ConfigError, match="requires a 'rho'"):
        ExperimentConfig(params=params, config_hash="")
    with pytest.raises(ConfigError, match="invalid initial"):
        ExperimentConfig(params=params, rho=rho, initial=InitialCondition.shifted_gaussian([0.5]), config_hash="")
    ensemble = EnsembleConfig(n_traj=10, t_grid=(0.0, MAX_EVENTS_PER_TRAJECTORY / params.total_rate * 2), seed=1)
    with pytest.raises(ConfigError, match="MAX_EVENTS_PER_TRAJECTORY"):
        ExperimentConfig(params=params, rho=rho, ensemble=ensemble, config_hash="")


def test_config_hash_is_taken_when_the_config_is_parsed():
    # the hash was recomputed from the caller's dict on every read, so editing it after parsing moved the hash
    raw = {"params": {"M": 2, "N": 8}, "rho": {"type": "uniform"}}
    cfg = parse_config(raw)
    digest = canonical_hash(raw)
    raw["params"]["M"] = 3
    assert cfg.params.M == 2
    assert cfg.config_hash == digest


def test_omitted_entropy_section_takes_the_defaults():
    cfg = parse_config({"params": {"M": 2, "N": 8}, "rho": {"type": "uniform"}})
    assert cfg.entropy == {"k": 4, "bootstrap": 50}
    assert cfg.envelope == {}


# ----------------------------------------------------------------- binary IO


def test_snapshot_roundtrip(tmp_path):
    snaps = np.arange(2 * 3 * 4, dtype=float).reshape(2, 3, 4) / 7.0
    path = tmp_path / "snaps.bin"
    write_snapshots(path, 2, 2, 5, snaps)
    header, data = read_snapshots(path)
    assert header == {"d": 2, "M": 2, "N": 5, "n_traj": 2, "n_times": 3}
    assert np.array_equal(data, snaps)


# ----------------------------------------------------------------- CLI runs


def test_cli_simulate_and_artifacts(tmp_path):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    moments = (out / "moments.csv").read_text().splitlines()
    assert moments[0].startswith("# config_hash=")
    assert "seed=99" in moments[0]
    assert moments[1] == "t,mean_v2_system,se,n_traj"
    manifest = json.loads((out / "manifest.json").read_text())
    assert "moments.csv" in manifest["files"]
    assert manifest["seed"] == 99
    header, snaps = read_snapshots(out / "snapshots.bin")
    assert header["n_traj"] == 1500 and header["n_times"] == 3


def test_cli_simulate_empty_record_skips_snapshots(tmp_path):
    cfg_path = write_config(tmp_path, {"ensemble": {**BASE_CONFIG["ensemble"], "record": []}})
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert sorted(path.name for path in out.iterdir()) == ["manifest.json", "moments.csv"]


def test_cli_worker_count_does_not_change_bytes(tmp_path):
    cfg_path = write_config(tmp_path)
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out1), "--workers", "1"]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out2), "--workers", "3"]) == 0
    assert (out1 / "moments.csv").read_bytes() == (out2 / "moments.csv").read_bytes()
    assert (out1 / "snapshots.bin").read_bytes() == (out2 / "snapshots.bin").read_bytes()


def test_cli_envelope_zero_time_row(tmp_path):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "env"
    assert main(["envelope", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = (out / "envelope.csv").read_text().splitlines()
    first = rows[2].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0
    assert float(first[2]) == 1.0


def test_cli_malformed_config_exits_2_without_outputs(tmp_path, capsys):
    bad = write_config(tmp_path, {"params": {"M": 2, "N": 8, "mu": -5.0}}, name="bad.json")
    out = tmp_path / "never"
    code = main(["simulate", "--config", str(bad), "--out", str(out)])
    assert code == 2
    assert not out.exists()
    diag = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert diag["error"] == "config"


def test_cli_seed_override(tmp_path):
    cfg_path = write_config(tmp_path)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out1), "--seed", "7"]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out2), "--seed", "8"]) == 0
    assert (out1 / "moments.csv").read_bytes() != (out2 / "moments.csv").read_bytes()
    assert "seed=7" in (out1 / "moments.csv").read_text().splitlines()[0]


def test_cli_verify_sum_rule(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "sr"
    code = main(["verify-sum-rule", "--config", str(cfg_path), "--out", str(out),
                 "--k", "2", "--n", "20000"])
    assert code == 0
    payload = json.loads((out / "sum_rule.json").read_text())
    assert set(payload) == {"k", "n_words", "C_km", "Z_hat_diag_mean", "max_offdiag", "se", "pass"}
    assert payload["pass"] is True


def test_cli_verify_sum_rule_empty_word_at_zero_rate(tmp_path, capsys):
    # k = 0 needs no jump, so every rate may be zero
    zero = {"M": 2, "N": 4, "lambda_S": 0.0, "lambda_R": 0.0, "mu": 0.0, "dimension": 1}
    cfg_path = write_config(tmp_path, {"params": zero, "initial": None, "ensemble": None})
    out = tmp_path / "sr0"
    assert main(["verify-sum-rule", "--config", str(cfg_path), "--out", str(out), "--k", "0", "--n", "10"]) == 0
    payload = json.loads((out / "sum_rule.json").read_text())
    assert payload["C_km"] == 1.0
    assert payload["pass"] is True


def test_cli_discretize_angle(tmp_path):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "da"
    assert main(["discretize-angle", "--config", str(cfg_path), "--out", str(out), "--K", "4"]) == 0
    report = json.loads((out / "angle_invariants.json").read_text())
    assert report["pass"] and report["n_atoms"] == 17
    rows = (out / "angle_measure.csv").read_text().splitlines()
    assert len(rows) == 2 + 17


def test_cli_discretize_angle_at_mass_tolerance_exits_2(tmp_path, capsys):
    # rho passes the 1e-12 mass check; its 13 grid atoms at K=3 sum to 1 - 1.0004e-12
    w = 0.25 * (1 - 1e-12)
    atoms = [[1.0, w], [-1.0, w], [math.pi - 1.0, w], [1.0 - math.pi, w]]
    cfg_path = write_config(tmp_path, {"rho": {"type": "atoms", "atoms": atoms}})
    out = tmp_path / "never"
    with pytest.warns(UserWarning):
        code = main(["discretize-angle", "--config", str(cfg_path), "--out", str(out), "--K", "3"])
    assert code == 2
    assert not out.exists()
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["error"] == "config"


def test_cli_discretize_sphere(tmp_path):
    out = tmp_path / "ds"
    assert main(["discretize-sphere", "--out", str(out), "--L", "3", "--K", "2"]) == 0
    report = json.loads((out / "sphere_invariants.json").read_text())
    assert report["pass"] and report["n_nodes"] == 3 * 4


def test_cli_workers_env_var_override(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path)
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out1)]) == 0
    monkeypatch.setenv("KACBATH_WORKERS", "3")
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out2), "--workers", "1"]) == 0
    assert (out1 / "moments.csv").read_bytes() == (out2 / "moments.csv").read_bytes()


def test_cli_entropy_small_run(tmp_path):
    cfg_path = write_config(tmp_path, {
        "ensemble": {"n_traj": 4000, "t_grid": [0, 1], "seed": 5},
        "entropy": {"k": 4, "bootstrap": 30},
    })
    out = tmp_path / "ent"
    code = main(["entropy", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    rows = (out / "entropy.csv").read_text().splitlines()
    assert rows[1] == "t,S_hat,SE,envelope_times_S0,pass_flag"
    report = json.loads((out / "entropy_report.json").read_text())
    assert report["pass"] is True
    assert report["estimator"]["k"] == 4
    # both artifacts come from one row list: the CSV is the report's rows, column for column
    csv_rows = [line.split(",") for line in rows[2:]]
    assert len(csv_rows) == len(report["rows"]) == 2
    for fields, row in zip(csv_rows, report["rows"]):
        parsed = (float(fields[0]), float(fields[1]), float(fields[2]), float(fields[3]), int(fields[4]))
        assert parsed == (row["t"], row["S_hat"], row["SE"], row["envelope"] * report["S0"], int(row["pass"]))
        assert row["margin"] == row["bound"] - row["S_hat"]


def test_cli_bad_workers_env_var_exits_2(tmp_path, monkeypatch, capsys):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "never"
    monkeypatch.setenv("KACBATH_WORKERS", "abc")
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert not out.exists()
    diag = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert diag["error"] == "config" and "KACBATH_WORKERS" in diag["detail"]


@pytest.mark.parametrize("command", ["simulate", "entropy"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_cli_nonpositive_workers_env_var_exits_2(tmp_path, monkeypatch, capsys, command, value):
    cfg_path = write_config(tmp_path, {"ensemble": SMALL_ENSEMBLE})
    out = tmp_path / "never"
    monkeypatch.setenv("KACBATH_WORKERS", value)
    assert main([command, "--config", str(cfg_path), "--out", str(out), "--workers", "1"]) == 2
    assert not out.exists()
    diag = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert diag["error"] == "config" and "KACBATH_WORKERS" in diag["detail"]


ALL_COMMANDS = [["simulate"], ["entropy"], ["envelope"], ["verify-sum-rule", "--k", "2", "--n", "50"],
                ["discretize-angle", "--K", "2"], ["discretize-sphere", "--L", "3", "--K", "2"],
                ["verify-inequalities"]]


@pytest.mark.parametrize("command", ALL_COMMANDS, ids=[c[0] for c in ALL_COMMANDS])
@pytest.mark.parametrize("flag, env", [("0", None), ("-5", None), ("1", "0"), ("abc", None), ("1", "2.5")],
                         ids=["flag-0", "flag-negative", "env-0", "flag-not-integer", "env-not-integer"])
def test_cli_bad_workers_exit_2_for_every_command(tmp_path, monkeypatch, capsys, command, flag, env):
    if env is None:
        monkeypatch.delenv("KACBATH_WORKERS", raising=False)
    else:
        monkeypatch.setenv("KACBATH_WORKERS", env)
    argv = [command[0], "--out", str(tmp_path / "never"), "--workers", flag, *command[1:]]
    if command[0] not in ("discretize-sphere", "verify-inequalities"):
        argv += ["--config", str(write_config(tmp_path, {"ensemble": SMALL_ENSEMBLE}))]
    assert main(argv) == 2
    assert not (tmp_path / "never").exists()
    diag = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert diag["error"] == "config"
    assert ("KACBATH_WORKERS" if env is not None else "--workers") in diag["detail"]


# ------------------------------------------------------------ cold import

# Runs in a fresh interpreter, because this one has already loaded scipy.
COLD_IMPORT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import kacbath
from kacbath.cli import main

def loaded():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy.") or m == "concurrent.futures.process")

config, out = sys.argv[2], sys.argv[3]
codes = [main(["envelope", "--config", config, "--out", out + "/env"]),
         main(["simulate", "--config", config, "--out", out + "/sim", "--workers", "1"])]
before = loaded()
entropy = main(["entropy", "--config", config, "--out", out + "/ent"])
print(json.dumps({"codes": codes, "before": before, "entropy": entropy, "after": loaded()}))
"""


def test_cold_import_loads_scipy_only_for_entropy(tmp_path):
    cfg_path = write_config(tmp_path, {"ensemble": {"n_traj": 200, "t_grid": [0, 1], "seed": 5}})
    env = {key: value for key, value in os.environ.items() if key != "KACBATH_WORKERS"}
    src = str(Path(kacbath.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", COLD_IMPORT, src, str(cfg_path), str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["codes"] == [0, 0]
    assert report["before"] == []
    assert report["entropy"] == 0
    assert "scipy" in report["after"] and "concurrent.futures.process" not in report["after"]


# ------------------------------------------------------- bad inputs → exit 2

NAN, INF = float("nan"), float("inf")
SMALL_ENSEMBLE = {"n_traj": 10, "t_grid": [0, 1], "seed": 1}
HUGE_RATE = {"M": 2, "N": 8, "lambda_S": 1e300, "lambda_R": 1.0, "mu": 1.0, "dimension": 1}
BASE_PARAMS = BASE_CONFIG["params"]
HUGE_BATH = {"M": 2, "N": 10 ** 18, "lambda_S": 0.0, "lambda_R": 0.0, "mu": 0.0, "dimension": 1}
TABLE_DENSITY = 1.0 / (2.0 * math.pi)  # a constant table density: the uniform law
SUM_RULE_PARAMS = {"M": 2, "N": 4, "lambda_S": 1.0, "lambda_R": 1.0, "mu": 1.0, "dimension": 1}
# 745 GiB of (n_traj, len(t_grid), d*M) snapshots
HUGE_RESULT = {"params": {"M": 1000, "N": 1000, "lambda_S": 0.0, "lambda_R": 0.0, "mu": 0.0, "dimension": 1},
               "ensemble": {"n_traj": 10 ** 6, "t_grid": list(range(100)), "seed": 1}}


@pytest.mark.parametrize("command, overrides, extra", [
    ("simulate", {"params": {"M": 2, "N": 8, "lambda_S": 0.0, "lambda_R": 0.0, "mu": NAN}}, []),
    ("simulate", {"ensemble": {"n_traj": 10, "t_grid": [0, INF], "seed": 1}}, []),
    ("entropy", {"ensemble": SMALL_ENSEMBLE, "entropy": {"bias_margin": NAN}}, []),
    ("simulate", {"initial": {"kind": "shifted_gaussian", "mean": [0.5]}}, []),
    ("entropy", {"ensemble": SMALL_ENSEMBLE, "entropy": {"k": 2.5}}, []),
    ("entropy", {"ensemble": SMALL_ENSEMBLE, "entropy": {"k": "four"}}, []),
    ("entropy", {"ensemble": SMALL_ENSEMBLE, "entropy": {"k": 0}}, []),
    ("entropy", {"ensemble": SMALL_ENSEMBLE, "entropy": {"k": 10}}, []),
    ("entropy", {"ensemble": {"n_traj": 1, "t_grid": [0, 1], "seed": 1}}, []),
    ("entropy", {"ensemble": SMALL_ENSEMBLE, "entropy": {"bootstrap": 1}}, []),
    ("envelope", {"envelope": {"t_grid": [-1, 0, 1]}}, []),
    ("envelope", {"initial": {"kind": "two_temperature", "s_hot": 0.5, "s_cold": 0.1, "n_hot": 3}}, []),
    ("simulate", {"initial": {"kind": "two_temperature", "s_hot": 0.5, "s_cold": 0.1, "n_hot": -1}}, []),
    ("discretize-angle", {}, ["--K", "0"]),
    ("discretize-sphere", None, ["--L", "1", "--K", "3"]),
    ("verify-sum-rule", {}, ["--k", "-1", "--n", "100"]),
    ("verify-sum-rule", {}, ["--k", "2", "--n", "0"]),
    ("verify-sum-rule", {}, ["--k", "2", "--n", "1"]),
    ("verify-sum-rule", {"params": {"M": 2, "N": 8}}, ["--k", "2", "--n", "100"]),
    ("simulate", {"params": HUGE_RATE}, []),
    ("entropy", {"ensemble": SMALL_ENSEMBLE, "params": HUGE_RATE}, []),
    ("envelope", {"params": HUGE_RATE}, []),
    ("envelope", {"envelope": {"t_grid": [0, 1e6]}}, []),
    ("simulate", {"ensemble": {"n_traj": 1e300, "t_grid": [0, 1], "seed": 1}}, []),
    ("entropy", {"ensemble": SMALL_ENSEMBLE, "entropy": {"bootstrap": 1e300}}, []),
    ("simulate", {"initial": {"kind": "gaussian_product", "s": 1e300}}, []),
    ("entropy", {"ensemble": SMALL_ENSEMBLE, "initial": {"kind": "gaussian_product", "s": 1e300}}, []),
    ("simulate", {"initial": {"kind": "two_temperature", "s_hot": 1e300, "s_cold": 0.1}}, []),
    ("simulate", {"initial": {"kind": "shifted_gaussian", "mean": [0.0, -1e300]}}, []),
    ("simulate", {"ensemble": {**SMALL_ENSEMBLE, "record": ["collision_counts"]}}, []),
    ("simulate", {"ensemble": {**SMALL_ENSEMBLE, "record": ["energies"]}}, []),
    ("simulate", {"ensemble": SMALL_ENSEMBLE}, ["--workers", "0"]),
    ("entropy", {"ensemble": SMALL_ENSEMBLE}, ["--workers", "-2"]),
    ("simulate", {"params": {**BASE_PARAMS, "M": 2.5}}, []),
    ("simulate", {"params": {**BASE_PARAMS, "M": True}}, []),
    ("simulate", {"params": {**BASE_PARAMS, "M": "2"}}, []),
    ("simulate", {"params": {**BASE_PARAMS, "N": 8.5}}, []),
    ("simulate", {"params": {**BASE_PARAMS, "dimension": 1.9}}, []),
    ("simulate", {"initial": {"kind": "two_temperature", "s_hot": 0.5, "s_cold": 0.1, "n_hot": 1.7}}, []),
    ("simulate", {"ensemble": {**SMALL_ENSEMBLE, "seed": 2.7}}, []),
    ("envelope", {"envelope": {"t_grid": []}}, []),
    ("envelope", {"envelope": {"t_grid": "01"}}, []),
    ("simulate", {"ensemble": {**SMALL_ENSEMBLE, "t_grid": "01"}}, []),
    ("envelope", {"envelope": {"t_grid": [0, 10 ** 400]}}, []),
    ("simulate", {"params": {**BASE_PARAMS, "M": 10 ** 400}, "initial": None}, []),
    ("simulate", {"params": {**BASE_PARAMS, "lambda_S": 10 ** 400}}, []),
    ("envelope", {"params": {**BASE_PARAMS, "lambda_R": True}}, []),
    ("envelope", {"params": {**BASE_PARAMS, "lambda_S": "1"}}, []),
    ("envelope", {"initial": {"kind": "gaussian_product", "s": "0.3"}}, []),
    ("envelope", {"rho": {"type": "atoms", "atoms": [["1.5707963267948966", "0.5"], [-1.5707963267948966, 0.5]]}}, []),
    ("envelope", {"rho": {"type": "density_table", "thetas": ["-1", "1"], "values": [TABLE_DENSITY, TABLE_DENSITY]}}, []),
    ("envelope", {"initial": {"kind": "shifted_gaussian", "mean": ["0.1", 0.0]}}, []),
    ("simulate", {"params": HUGE_BATH, "ensemble": SMALL_ENSEMBLE}, []),
    ("entropy", {"params": HUGE_BATH, "ensemble": SMALL_ENSEMBLE}, []),
    ("verify-sum-rule", {}, ["--k", str(int(MAX_EVENTS_PER_TRAJECTORY) + 1), "--n", "100"]),
    ("verify-sum-rule", {}, ["--k", "1", "--n", str(MAX_TRAJECTORIES + 1)]),
    ("verify-sum-rule", {"params": {**HUGE_BATH, "M": 10 ** 18, "N": 1}, "initial": None}, ["--k", "0", "--n", "2"]),
    ("verify-sum-rule", {"params": {**BASE_PARAMS, "N": 10 ** 18}, "ensemble": None}, ["--k", "1", "--n", "2"]),
    ("discretize-angle", {}, ["--K", "1025"]),
    ("discretize-sphere", None, ["--L", "2049", "--K", "2"]),
    ("discretize-sphere", None, ["--L", "512", "--K", "1025"]),
    ("verify-sum-rule", {"params": SUM_RULE_PARAMS}, ["--k", "1000000", "--n", "20000"]),
    ("simulate", HUGE_RESULT, []),
    ("envelope", {"rho": {"type": "density_table", "thetas": [-4, 4], "values": [0.125, 0.125]}}, []),
], ids=["mu-nan", "t_grid-infinity", "bias_margin-nan", "mean-length", "k-fraction", "k-string",
        "k-zero", "k-at-n_traj", "n_traj-one", "bootstrap-one", "envelope-negative-time",
        "n_hot-above-M", "n_hot-negative", "angle-K-0", "sphere-L-1", "sum-rule-k-negative",
        "sum-rule-n-0", "sum-rule-n-1", "sum-rule-zero-rates", "lambda-1e300-simulate",
        "lambda-1e300-entropy", "lambda-1e300-envelope", "envelope-t-1e6", "n_traj-1e300",
        "bootstrap-1e300", "s-1e300-simulate", "s-1e300-entropy", "s_hot-1e300", "mean-1e300",
        "record-collision_counts", "record-energies", "workers-0-simulate", "workers-negative-entropy", "M-fraction",
        "M-true", "M-string", "N-fraction", "dimension-fraction", "n_hot-fraction", "seed-fraction",
        "envelope-t_grid-empty", "envelope-t_grid-string", "ensemble-t_grid-string",
        "envelope-t_grid-401-digits", "M-401-digits", "lambda_S-401-digits", "rate-true", "rate-string",
        "s-string", "atom-string", "table-string", "mean-string", "N-1e18-simulate", "N-1e18-entropy",
        "sum-rule-k-above-cap", "sum-rule-n-above-cap", "sum-rule-M-1e18", "sum-rule-N-1e18", "angle-K-1025",
        "sphere-L-2049", "sphere-nodes-above-cap", "sum-rule-k-1e6", "result-745-GiB", "table-outside-pi"])
def test_cli_bad_input_exits_2_without_outputs(tmp_path, capsys, monkeypatch, command, overrides, extra):
    monkeypatch.delenv("KACBATH_WORKERS", raising=False)
    argv = [command]
    if overrides is not None:
        argv += ["--config", str(write_config(tmp_path, overrides))]
    out = tmp_path / "never"
    assert main(argv + ["--out", str(out)] + extra) == 2
    assert not out.exists()
    diag = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert diag["error"] == "config"


@pytest.mark.parametrize("overrides", [
    {"ensemble": {**SMALL_ENSEMBLE, "record": "system_velocities"}},
    {"ensemble": {**SMALL_ENSEMBLE, "record": 1}},
    {"ensemble": {**SMALL_ENSEMBLE, "record": [["system_velocities"]]}},
    {"ensemble": {**SMALL_ENSEMBLE, "record": {"system_velocities": True}}},
    {"rho": {"type": "atoms", "atoms": "ab"}},
    {"rho": {"type": "atoms", "atoms": {"1.5707963267948966": 0.5, "-1.5707963267948966": 0.5}}},
    {"rho": {"type": "atoms", "atoms": [[1.5707963267948966, 0.5, 0.0], [-1.5707963267948966, 0.5]]}},
    {"initial": {"kind": "shifted_gaussian", "mean": 0.5}},
    {"rho": {"type": ["uniform"]}},
    {"initial": {"kind": ["gaussian_product"], "s": 0.3}},
    {"params": {"M": 2, "N": 8, "preset": ["classical_kac"]}},
    {"initial": {"kind": "two_temperature", "s_hot": 0.5, "s_cold": 0.1, "n_hot": None}},
], ids=["record-string", "record-number", "record-list-of-lists", "record-object", "atoms-string", "atoms-object",
        "atoms-three-numbers", "mean-number", "rho-type-list", "initial-kind-list", "preset-list", "n_hot-null"])
def test_cli_malformed_shape_exits_2_without_outputs(tmp_path, capsys, overrides):
    cfg = write_config(tmp_path, {"ensemble": SMALL_ENSEMBLE, **overrides})
    out = tmp_path / "never"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["error"] == "config"


def test_sum_rule_budget_counts_the_draw(tmp_path):
    # 20000 words of k collisions are drawn at once, at 64 bytes a collision: k = 838 fits in 1 GiB
    params = GeneratorParams(M=2, N=4, lambda_S=1.0, lambda_R=1.0, mu=1.0)
    assert sum_rule_bytes(params, 20000, 838) <= MAX_BUFFER_BYTES < sum_rule_bytes(params, 20000, 839)
    cfg = write_config(tmp_path, {"params": SUM_RULE_PARAMS, "initial": None, "ensemble": None})
    out = tmp_path / "never"
    assert main(["verify-sum-rule", "--config", str(cfg), "--out", str(out), "--k", "839", "--n", "20000"]) == 2
    assert not out.exists()


def test_ensemble_budget_boundary():
    # snapshots (n_traj, 5, 2) and counts (n_traj, 3) of the README's (2,8) system: 104 bytes a trajectory
    params = GeneratorParams(M=2, N=8, lambda_S=1.0, lambda_R=1.0, mu=1.0)
    n_traj = MAX_BUFFER_BYTES // 104
    assert result_bytes(params, n_traj, 5, False) <= MAX_BUFFER_BYTES < result_bytes(params, n_traj + 1, 5, False)
    assert result_bytes(params, 1, 5, True) == 8 * (5 * 2 + 3 + 5)


def test_cli_envelope_runs_where_the_state_would_not_fit(tmp_path):
    # the coordinate cap guards the simulated state; the envelope is closed form
    cfg = write_config(tmp_path, {"params": HUGE_BATH})
    assert main(["envelope", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "envelope.csv").exists()


@pytest.mark.parametrize("content", [None, "directory", b"\xff\xfe{"], ids=["missing", "directory", "not-utf8"])
def test_cli_unreadable_config_exits_2_without_outputs(tmp_path, capsys, content):
    path = tmp_path / "config.json"
    if content == "directory":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    out = tmp_path / "never"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    diag = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert diag["error"] == "config"


SMALL_CONFIG = {
    **BASE_CONFIG,
    "ensemble": {"n_traj": 40, "t_grid": [0, 0.5, 1], "seed": 99},
    "entropy": {"k": 2, "bootstrap": 5},
    "envelope": {"t_grid": [0, 1]},
}
FIELDS = [(section, key) for section, body in SMALL_CONFIG.items() for key in (None, *body)]
ODD_VALUES = [NAN, INF, -INF, -1, -0.5, 0, 1e300, "x", "1", [], [0.5], [0.5, -1.0, 2.0], {}]
COMMANDS = [["simulate"], ["entropy"], ["envelope"], ["discretize-angle", "--K", "2"],
            ["verify-sum-rule", "--k", "2", "--n", "50"]]


@settings(max_examples=80, deadline=None)
@given(command=st.sampled_from(COMMANDS),
       mutations=st.lists(st.tuples(st.sampled_from(FIELDS), st.sampled_from(ODD_VALUES)), min_size=1, max_size=3))
def test_cli_any_config_exits_0_1_or_2(command, mutations):
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    for (section, key), value in mutations:
        value = copy.deepcopy(value)  # the lists and dicts of ODD_VALUES are shared by every example
        if key is None:
            cfg[section] = value
        elif isinstance(cfg[section], dict):
            cfg[section][key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(cfg))
        code = main([command[0], "--config", str(path), "--out", str(out), *command[1:]])
        assert code in (0, 1, 2)
        assert code != 2 or not out.exists()
