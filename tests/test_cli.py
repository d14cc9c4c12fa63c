import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lrdcov
from lrdcov import load_batch
from lrdcov.cli import main


def test_simulate_subcommand_writes_dump(tmp_path, capsys):
    out = tmp_path / "batch.lrdsim"
    rc = main(["simulate", "--beta", "2.0", "--n", "32", "--p", "2",
               "--structure", "toeplitz", "--seed", "7", "--out", str(out),
               "--copies", "3"])
    assert rc == 0
    batch = load_batch(out)
    assert batch.data.shape == (3, 32, 2)
    assert batch.master_seed == 7
    assert "3 copies" in capsys.readouterr().out


def test_metrics_subcommand(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("\n".join(str(x) for x in [1.0, 2.0, 3.0]))
    b.write_text("\n".join(str(x) for x in [2.0, 3.0, 4.0]))
    rc = main(["metrics", "--a", str(a), "--b", str(b)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kolmogorov"] == pytest.approx(1 / 3)
    assert report["wasserstein1"] == pytest.approx(1.0)
    assert (report["n1"], report["n2"]) == (3, 3)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_metrics_subcommand_rejects_non_finite_values(tmp_path, capsys, bad):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text(f"1.0\n{bad}\n3.0\n")
    b.write_text("2.0\n3.0\n4.0\n")
    with pytest.raises(ValueError, match="first sample has non-finite"):
        main(["metrics", "--a", str(a), "--b", str(b)])
    assert capsys.readouterr().out == ""


def test_bootstrap_ci_subcommand(tmp_path, capsys):
    rng = np.random.default_rng(3)
    data = rng.standard_normal((200, 3))
    path = tmp_path / "subject.csv"
    path.write_text("a,b,c\n" + "\n".join(",".join(f"{v}" for v in row)
                                          for row in data) + "\n")
    rc = main(["bootstrap-ci", "--data", str(path), "--alpha", "0.1",
               "--block-rule", "fixed:34", "--kind", "cov"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["n"], out["p"], out["l"]) == (200, 3, 34)
    assert out["half_width"] > 0

    rc = main(["bootstrap-ci", "--data", str(path), "--alpha", "0.1",
               "--kind", "prec"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "prec"
    assert out["l"] == 34  # default rule: floor(200^(2/3))


@pytest.mark.parametrize("kind", ["cov", "prec"])
def test_bootstrap_ci_rejects_overflowing_squares(huge_csv, capsys, kind):
    with pytest.raises(ValueError, match="column 'b'"):
        main(["bootstrap-ci", "--data", str(huge_csv), "--kind", kind])
    assert capsys.readouterr().out == ""


def test_experiment_subcommand(tmp_path, capsys):
    config = {
        "grid_n": [64], "grid_p": [2], "betas": [2.0],
        "structure": "toeplitz", "replicates": 10,
        "block_rule": "fixed:8", "targets": ["cov_ga", "cov_boot"],
        "seed": 5, "output_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    rc = main(["experiment", "--config", str(cfg_path)])
    assert rc == 0
    lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
    assert lines[0] == "n,p,beta,kind,ks,w1,runtime_ms,seed"
    assert len(lines) == 3


def test_experiment_rejects_unknown_keys(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"grid_n": [8], "grid_p": [2], "betas": [2.0],
                                    "bogus": 1}))
    with pytest.raises(ValueError, match="bogus"):
        main(["experiment", "--config", str(cfg_path)])


def run_console(*args):
    """The module entry point in a subprocess, as the console script runs it."""
    src = str(Path(lrdcov.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "lrdcov.cli", *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)


def test_console_reports_a_bad_sample_file_in_one_line(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("1.0\nnan\n3.0\n")
    b.write_text("2.0\n3.0\n4.0\n")
    done = run_console("metrics", "--a", a, "--b", b)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "lrdcov: error: first sample has non-finite values\n"


def test_console_reports_a_bad_table_in_one_line(huge_csv):
    done = run_console("bootstrap-ci", "--data", huge_csv)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("lrdcov: error: ") and "column 'b'" in done.stderr
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr


def test_console_rejects_an_unknown_target_in_one_line(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"grid_n": [64], "grid_p": [2], "betas": [2.0],
                                    "targets": ["cov_ga", "cov_bootstrap"],
                                    "output_dir": str(tmp_path / "out")}))
    done = run_console("experiment", "--config", cfg_path)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("lrdcov: error: unknown targets") \
        and "cov_bootstrap" in done.stderr
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [("grid_n", 64), ("replicates", "20"),
                                        ("targets", "cov_ga"), ("block_rule", 8),
                                        ("betas", [2.0, "0.9"]), ("structure", None),
                                        # values that ran a grid of failed or no cells
                                        ("structure", "banded:0"), ("betas", [0]),
                                        ("grid_p", [0]), ("replicates", 0),
                                        ("grid_n", [0]), ("block_rule", "theoretical:2"),
                                        ("block_rule", "theoretical:0.5:0"),
                                        ("block_rule", "fixed:0"),
                                        # values that failed without naming the key
                                        ("block_rule", "fixed:x"),
                                        ("structure", "banded:x"),
                                        # a seed numpy rejects after results.csv is opened
                                        ("seed", -3)])
def test_console_rejects_a_wrongly_typed_config_field_in_one_line(tmp_path, key, value):
    config = {"grid_n": [64], "grid_p": [2], "betas": [2.0], "replicates": 10,
              "output_dir": str(tmp_path / "out"), key: value}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    done = run_console("experiment", "--config", cfg_path)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith(f"lrdcov: error: config key {key!r} must be ")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("workers", [0, -2])
def test_console_rejects_workers_below_one_in_one_line(tmp_path, workers):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"grid_n": [64], "grid_p": [2], "betas": [2.0],
                                    "replicates": 10, "output_dir": str(tmp_path / "out")}))
    done = run_console("experiment", "--config", cfg_path, "--workers", workers)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == f"lrdcov: error: workers must be at least 1, got {workers}\n"
    assert not (tmp_path / "out").exists()


def test_console_names_an_empty_sample_file_in_one_line(tmp_path):
    a = tmp_path / "empty.txt"
    b = tmp_path / "b.txt"
    a.write_text("")
    b.write_text("2.0\n3.0\n")
    done = run_console("metrics", "--a", a, "--b", b)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == f"lrdcov: error: sample file {a} holds no values\n"


@pytest.mark.parametrize("alpha", [1.5, 0, -0.1])
def test_console_names_alpha_when_it_is_out_of_range(tmp_path, alpha):
    data = np.random.default_rng(3).standard_normal((100, 2))
    path = tmp_path / "subject.csv"
    np.savetxt(path, data, delimiter=",", header="a,b", comments="")
    done = run_console("bootstrap-ci", "--data", path, "--alpha", alpha)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "lrdcov: error: alpha must lie in (0, 1)\n"


GRAMMAR = "'default', 'fixed:<l>' or 'theoretical:<eps>[:scale]'"


@pytest.mark.parametrize("options, message", [
    (["--block-rule", "fixed:x"], f"--block-rule must be {GRAMMAR}, got 'fixed:x' "
                                  "(invalid literal for int() with base 10: 'x')"),
    (["--block-rule", "fixed:1.5"], f"--block-rule must be {GRAMMAR}, got 'fixed:1.5' "
                                    "(invalid literal for int() with base 10: '1.5')"),
    (["--block-rule", "theoretical:"], f"--block-rule must be {GRAMMAR}, got 'theoretical:' "
                                       "(could not convert string to float: '')"),
    (["--block-rule", "theoretical:0.5:1:x", "--beta", "2"],
     f"--block-rule must be {GRAMMAR}, got 'theoretical:0.5:1:x' "
     "(could not convert string to float: '1:x')"),
    (["--block-rule", "theoretical:0.5"], "--block-rule 'theoretical:0.5' needs --beta")],
    ids=["fixed:x", "fixed:1.5", "theoretical:", "theoretical-trailing-token",
         "theoretical-without-beta"])
def test_console_rejects_a_bad_bootstrap_option_in_one_line(tmp_path, options, message):
    path = tmp_path / "subject.csv"
    np.savetxt(path, np.random.default_rng(3).standard_normal((100, 2)), delimiter=",",
               header="a,b", comments="")
    done = run_console("bootstrap-ci", "--data", path, *options)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == f"lrdcov: error: {message}\n"


def simulate_args(out, **options):
    args = {"beta": 2.0, "n": 10, "p": 2, "seed": 7, "out": out, **options}
    return [token for key, value in args.items() for token in (f"--{key}", value)]


@pytest.mark.parametrize("options, message", [
    ({"seed": 2**64}, "seed = 18446744073709551616 outside [0, 2^64)"),
    ({"seed": -1}, "seed = -1 outside [0, 2^64)"),
    ({"n": 0}, "--n must be positive, got 0"),
    ({"n": -4}, "--n must be positive, got -4"),
    ({"copies": 0}, "--copies must be positive, got 0"),
    ({"copies": -1}, "--copies must be positive, got -1"),
    ({"copies": 20, "N": 100}, "--copies 20 needs --N of at least 200"),
    ({"structure": "banded:x"}, "--structure must be 'toeplitz' or 'banded:<bandwidth>', "
                                "got 'banded:x' (invalid literal for int() with base 10: 'x')")],
    ids=["seed-2^64", "seed--1", "n-0", "n--4", "copies-0", "copies--1", "copies-over-N",
         "structure-banded:x"])
def test_console_rejects_a_bad_simulation_option_in_one_line(tmp_path, options, message):
    out = tmp_path / "batch.lrdsim"
    done = run_console("simulate", *simulate_args(out, **options))
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == f"lrdcov: error: {message}\n"
    assert not out.exists()


def test_simulate_draws_more_copies_than_n_by_default(tmp_path, capsys):
    # the default N is n * max(n, copies), the length run_cell draws for as many copies
    out = tmp_path / "batch.lrdsim"
    assert main(["simulate", *map(str, simulate_args(out, copies=20))]) == 0
    assert load_batch(out).data.shape == (20, 10, 2)
    assert "20 copies" in capsys.readouterr().out


def test_simulate_defaults_to_n_squared_up_to_n_copies(tmp_path):
    for copies in (1, 10):
        default, explicit = tmp_path / f"default{copies}", tmp_path / f"explicit{copies}"
        assert main(["simulate", *map(str, simulate_args(default, copies=copies))]) == 0
        assert main(["simulate", *map(str, simulate_args(explicit, copies=copies,
                                                         N=100))]) == 0
        assert default.read_bytes() == explicit.read_bytes()
