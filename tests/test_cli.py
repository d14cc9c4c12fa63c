import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import lrdcov
from lrdcov import (SimulationPlan, load_batch, save_batch, simulate_multidimensional,
                    toeplitz_spec)
from lrdcov.cli import run


def console(capsys, *args):
    """`lrdcov <args>` in-process: its exit code and stdout.  The code of a
    failure is the one stderr line the interpreter prints; stderr itself and
    the warning record must stay empty."""
    with pytest.raises(SystemExit) as done, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run(list(map(str, args)))
    out, err = capsys.readouterr()
    assert (err, caught) == ("", [])
    return done.value.code, out


def run_module(*args):
    """`python -m lrdcov.cli <args>` in a subprocess, as the console script runs it."""
    src = str(Path(lrdcov.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "lrdcov.cli", *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)


def test_simulate_subcommand_writes_dump(tmp_path, capsys):
    out = tmp_path / "batch.lrdsim"
    rc, stdout = console(capsys, "simulate", "--beta", "2.0", "--n", "32", "--p", "2",
                         "--structure", "toeplitz", "--seed", "7", "--out", out,
                         "--copies", "3")
    assert rc == 0
    batch = load_batch(out)
    assert batch.data.shape == (3, 32, 2)
    assert batch.master_seed == 7
    assert "3 copies" in stdout


def test_simulate_subcommand_writes_the_bytes_of_a_run_with_no_helper(tmp_path, capsys):
    # at N 62 500 the command's helper draws the tail of the innovation stream
    out = tmp_path / "cli.lrdsim"
    rc, _ = console(capsys, "simulate", "--beta", "2", "--n", "250", "--p", "10",
                    "--copies", "200", "--seed", "7", "--out", out)
    assert rc == 0
    plan = SimulationPlan(toeplitz_spec(2.0, 10, truncation=62_500), 250, seed=7, N=62_500,
                          copies_requested=200)
    save_batch(simulate_multidimensional(plan), tmp_path / "serial.lrdsim")
    assert out.read_bytes() == (tmp_path / "serial.lrdsim").read_bytes()


def test_metrics_subcommand(tmp_path):
    # one of the two cases that run the module entry point in a subprocess
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("\n".join(str(x) for x in [1.0, 2.0, 3.0]))
    b.write_text("\n".join(str(x) for x in [2.0, 3.0, 4.0]))
    done = run_module("metrics", "--a", a, "--b", b)
    assert (done.returncode, done.stderr) == (0, "")
    report = json.loads(done.stdout)
    assert report["kolmogorov"] == pytest.approx(1 / 3)
    assert report["wasserstein1"] == pytest.approx(1.0)
    assert (report["n1"], report["n2"]) == (3, 3)


def test_metrics_subcommand_reads_a_byte_order_mark_as_no_value(tmp_path, capsys):
    values = "1.5\n2.5\n-3\n"
    plain, bom, b = tmp_path / "plain.txt", tmp_path / "bom.txt", tmp_path / "b.txt"
    plain.write_text(values, encoding="utf-8")
    bom.write_text(values, encoding="utf-8-sig")
    b.write_text("2.0\n0.5\n", encoding="utf-8-sig")
    with_bom = console(capsys, "metrics", "--a", bom, "--b", b)
    assert with_bom[0] == 0
    assert with_bom == console(capsys, "metrics", "--a", plain, "--b", b)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_metrics_subcommand_rejects_non_finite_values(tmp_path, capsys, bad):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text(f"1.0\n{bad}\n3.0\n")
    b.write_text("2.0\n3.0\n4.0\n")
    code, stdout = console(capsys, "metrics", "--a", a, "--b", b)
    assert (code, stdout) == ("lrdcov: error: first sample has non-finite values", "")


def test_bootstrap_ci_subcommand(tmp_path, capsys):
    rng = np.random.default_rng(3)
    data = rng.standard_normal((200, 3))
    path = tmp_path / "subject.csv"
    path.write_text("a,b,c\n" + "\n".join(",".join(f"{v}" for v in row)
                                          for row in data) + "\n")
    rc, stdout = console(capsys, "bootstrap-ci", "--data", path, "--alpha", "0.1",
                         "--block-rule", "fixed:34", "--kind", "cov")
    assert rc == 0
    out = json.loads(stdout)
    assert (out["n"], out["p"], out["l"]) == (200, 3, 34)
    assert out["half_width"] > 0

    rc, stdout = console(capsys, "bootstrap-ci", "--data", path, "--alpha", "0.1",
                         "--kind", "prec")
    assert rc == 0
    out = json.loads(stdout)
    assert out["kind"] == "prec"
    assert out["l"] == 34  # default rule: floor(200^(2/3))


def test_bootstrap_ci_rejects_repeated_column_labels(tmp_path, capsys):
    path = tmp_path / "subject.csv"
    np.savetxt(path, np.random.default_rng(3).standard_normal((100, 3)), delimiter=",",
               header="a,a,b", comments="")
    code, stdout = console(capsys, "bootstrap-ci", "--data", path)
    assert (code, stdout) == (f"lrdcov: error: {path}: columns 1 and 2 share the label 'a'",
                              "")


@pytest.mark.parametrize("kind, message", [
    ("cov", "block-length rule requires n >= 8"),
    ("prec", "smallest eigenvalue ")], ids=["7-rows", "equal-columns"])
def test_bootstrap_ci_names_the_data_it_cannot_use(tmp_path, capsys, kind, message):
    # 7 rows are too few for the default block rule; two equal columns have no precision
    x = np.random.default_rng(6).standard_normal(7 if kind == "cov" else 50)
    path = tmp_path / "subject.csv"
    np.savetxt(path, np.c_[x, x if kind == "prec" else x[::-1]], delimiter=",",
               header="a,b", comments="")
    code, stdout = console(capsys, "bootstrap-ci", "--data", path, "--kind", kind)
    assert stdout == "" and code.startswith(f"lrdcov: error: {path}: {message}")
    assert "\n" not in code
    done = run_module("bootstrap-ci", "--data", path, "--kind", kind)
    assert (done.returncode, done.stdout, done.stderr) == (1, "", code + "\n")


HUGE_B = "column 'b': values too large, the sum of squares after demeaning is not finite"


@pytest.mark.parametrize("kind", ["cov", "prec"])
def test_bootstrap_ci_rejects_overflowing_squares(huge_csv, capsys, kind):
    code, stdout = console(capsys, "bootstrap-ci", "--data", huge_csv, "--kind", kind)
    assert (code, stdout) == (f"lrdcov: error: {huge_csv}: {HUGE_B}", "")


def test_experiment_subcommand(tmp_path, capsys):
    config = {
        "grid_n": [64], "grid_p": [2], "betas": [2.0],
        "structure": "toeplitz", "replicates": 10,
        "block_rule": "fixed:8", "targets": ["cov_ga", "cov_boot"],
        "seed": 5, "output_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    rc, stdout = console(capsys, "experiment", "--config", cfg_path)
    assert rc == 0
    assert stdout == f"wrote 2 result rows to {tmp_path / 'out'}/results.csv\n"
    lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
    assert lines[0] == "n,p,beta,kind,ks,w1,runtime_ms,seed"
    assert len(lines) == 3


def test_experiment_rejects_unknown_keys(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"grid_n": [8], "grid_p": [2], "betas": [2.0],
                                    "bogus": 1}))
    code, stdout = console(capsys, "experiment", "--config", cfg_path)
    assert (code, stdout) == ("lrdcov: error: unknown config keys: ['bogus']", "")


def test_console_reports_a_bad_sample_file_in_one_line(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("1.0\nnan\n3.0\n")
    b.write_text("2.0\n3.0\n4.0\n")
    # the other subprocess case: the exit code becomes one stderr line, status 1
    done = run_module("metrics", "--a", a, "--b", b)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "lrdcov: error: first sample has non-finite values\n"


def test_console_reports_a_bad_table_in_one_line(huge_csv, capsys):
    code, stdout = console(capsys, "bootstrap-ci", "--data", huge_csv)
    assert (code, stdout) == (f"lrdcov: error: {huge_csv}: {HUGE_B}", "")


def test_console_rejects_an_unknown_target_in_one_line(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"grid_n": [64], "grid_p": [2], "betas": [2.0],
                                    "targets": ["cov_ga", "cov_bootstrap"],
                                    "output_dir": str(tmp_path / "out")}))
    code, stdout = console(capsys, "experiment", "--config", cfg_path)
    assert stdout == ""
    assert code.startswith("lrdcov: error: unknown targets") and "cov_bootstrap" in code
    assert "\n" not in code
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
                                        ("seed", -3),
                                        # an infinite beta, which ran as an iid cell
                                        ("betas", [math.inf]),
                                        # no targets, which simulated every cell for nothing
                                        ("targets", []),
                                        # an infinite scale, which crashed in round()
                                        ("block_rule", "theoretical:0.5:inf")])
def test_console_rejects_a_wrongly_typed_config_field_in_one_line(tmp_path, capsys, key,
                                                                  value):
    config = {"grid_n": [64], "grid_p": [2], "betas": [2.0], "replicates": 10,
              "output_dir": str(tmp_path / "out"), key: value}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    code, stdout = console(capsys, "experiment", "--config", cfg_path)
    assert stdout == ""
    assert code.startswith(f"lrdcov: error: config key {key!r} must be ")
    assert "\n" not in code
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("workers", [0, -2])
def test_console_rejects_workers_below_one_in_one_line(tmp_path, capsys, workers):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"grid_n": [64], "grid_p": [2], "betas": [2.0],
                                    "replicates": 10, "output_dir": str(tmp_path / "out")}))
    code, stdout = console(capsys, "experiment", "--config", cfg_path, "--workers", workers)
    assert (code, stdout) == (f"lrdcov: error: workers must be at least 1, got {workers}", "")
    assert not (tmp_path / "out").exists()


def test_console_names_an_empty_sample_file_in_one_line(tmp_path, capsys):
    a = tmp_path / "empty.txt"
    b = tmp_path / "b.txt"
    a.write_text("")
    b.write_text("2.0\n3.0\n")
    code, stdout = console(capsys, "metrics", "--a", a, "--b", b)
    assert (code, stdout) == (f"lrdcov: error: sample file {a} holds no values", "")


@pytest.mark.parametrize("raw", [b"\xff1.0\n2.0\n", b"1.25\n" * 20_000 + b"3.\xff\n"],
                         ids=["first-line", "large-file"])
def test_console_names_an_undecodable_sample_file_and_its_byte_offset(tmp_path, capsys, raw):
    # the decoder's position counts from its chunk; the message counts from the file start
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_bytes(raw)
    b.write_text("2.0\n3.0\n")
    offset = raw.index(b"\xff")
    code, stdout = console(capsys, "metrics", "--a", a, "--b", b)
    assert (code, stdout) == (f"lrdcov: error: {a}: not UTF-8: invalid start byte at "
                              f"byte offset {offset}", "")


@pytest.mark.parametrize("alpha", [1.5, 0, -0.1])
def test_console_names_alpha_when_it_is_out_of_range(tmp_path, capsys, alpha):
    data = np.random.default_rng(3).standard_normal((100, 2))
    path = tmp_path / "subject.csv"
    np.savetxt(path, data, delimiter=",", header="a,b", comments="")
    code, stdout = console(capsys, "bootstrap-ci", "--data", path, "--alpha", alpha)
    assert (code, stdout) == ("lrdcov: error: alpha must lie in (0, 1)", "")


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
    (["--block-rule", "theoretical:0.5"], "--block-rule 'theoretical:0.5' needs --beta"),
    (["--block-rule", "theoretical:0.5", "--beta", "nan"], "--beta must be finite, got nan"),
    (["--block-rule", "theoretical:0.5", "--beta", "inf"], "--beta must be finite, got inf"),
    (["--block-rule", "theoretical:0.5:inf", "--beta", "2"],
     f"--block-rule must be {GRAMMAR}, got 'theoretical:0.5:inf' (theoretical block rule "
     "needs epsilon in (0, 1) and scale in (0, inf), got 0.5 and inf)")],
    ids=["fixed:x", "fixed:1.5", "theoretical:", "theoretical-trailing-token",
         "theoretical-without-beta", "beta-nan", "beta-inf", "theoretical-scale-inf"])
def test_console_rejects_a_bad_bootstrap_option_in_one_line(tmp_path, capsys, options,
                                                            message):
    path = tmp_path / "subject.csv"
    np.savetxt(path, np.random.default_rng(3).standard_normal((100, 2)), delimiter=",",
               header="a,b", comments="")
    code, stdout = console(capsys, "bootstrap-ci", "--data", path, *options)
    assert (code, stdout) == (f"lrdcov: error: {message}", "")


def simulate_args(out, **options):
    args = {"beta": 2.0, "n": 10, "p": 2, "seed": 7, "out": out, **options}
    return [token for key, value in args.items() for token in (f"--{key}", value)]


@pytest.mark.parametrize("options, message", [
    ({"seed": 2**64}, "seed = 18446744073709551616 outside [0, 2^64)"),
    ({"seed": -1}, "seed = -1 outside [0, 2^64)"),
    ({"n": 0}, "--n must be positive, got 0"),
    ({"n": -4}, "--n must be positive, got -4"),
    ({"p": 0}, "--p must be positive, got 0"),
    ({"p": -3}, "--p must be positive, got -3"),
    ({"copies": 0}, "--copies must be positive, got 0"),
    ({"copies": -1}, "--copies must be positive, got -1"),
    ({"copies": 20, "N": 100}, "--copies 20 needs --N of at least 200"),
    ({"structure": "banded:x"}, "--structure must be 'toeplitz' or 'banded:<bandwidth>', "
                                "got 'banded:x' (invalid literal for int() with base 10: 'x')"),
    ({"beta": "nan"}, "beta must be finite and positive, got nan")],
    ids=["seed-2^64", "seed--1", "n-0", "n--4", "p-0", "p--3", "copies-0", "copies--1",
         "copies-over-N", "structure-banded:x", "beta-nan"])
def test_console_rejects_a_bad_simulation_option_in_one_line(tmp_path, capsys, options,
                                                             message):
    out = tmp_path / "batch.lrdsim"
    code, stdout = console(capsys, "simulate", *simulate_args(out, **options))
    assert (code, stdout) == (f"lrdcov: error: {message}", "")
    assert not out.exists()


def test_simulate_draws_more_copies_than_n_by_default(tmp_path, capsys):
    # the default N is n * max(n, copies), the length run_cell draws for as many copies
    out = tmp_path / "batch.lrdsim"
    rc, stdout = console(capsys, "simulate", *simulate_args(out, copies=20))
    assert rc == 0
    assert load_batch(out).data.shape == (20, 10, 2)
    assert "20 copies" in stdout


def test_simulate_defaults_to_n_squared_up_to_n_copies(tmp_path, capsys):
    for copies in (1, 10):
        default, explicit = tmp_path / f"default{copies}", tmp_path / f"explicit{copies}"
        assert console(capsys, "simulate", *simulate_args(default, copies=copies))[0] == 0
        assert console(capsys, "simulate",
                       *simulate_args(explicit, copies=copies, N=100))[0] == 0
        assert default.read_bytes() == explicit.read_bytes()
