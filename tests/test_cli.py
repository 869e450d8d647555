import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cqwalk
from cqwalk import cli, config, lindblad
from cqwalk.cli import main
from cqwalk.harness import REPORT_COLUMNS

ZERO_NOISE = ["--t1-cavity-us", "inf", "--t1-ge-us", "inf",
              "--t1-ef-us", "inf", "--t1-gf-us", "inf",
              "--tphi-e-us", "inf", "--tphi-f-us", "inf"]


def test_run_writes_csv_to_stdout(capsys):
    code = main(["run", "--n-steps", "2", *ZERO_NOISE])
    out = capsys.readouterr()
    assert code == 0
    lines = out.out.splitlines()
    assert lines[0] == ",".join(REPORT_COLUMNS)
    row = lines[1].split(",")
    assert row[0] == "2"
    assert float(row[REPORT_COLUMNS.index("S")]) == pytest.approx(1.0)
    assert "S = " in out.err


def test_run_json_format(tmp_path):
    path = tmp_path / "out.json"
    code = main(["run", "--n-steps", "1", "--format", "json",
                 "--output", str(path), *ZERO_NOISE])
    assert code == 0
    data = json.loads(path.read_text())
    assert data[0]["n_steps"] == 1
    assert len(data[0]["P_id"]) == 2
    assert 0.0 <= data[0]["max_hermiticity_drift"] < 1e-12


def test_config_file_with_flag_override(tmp_path, capsys):
    cfgfile = tmp_path / "walk.cfg"
    cfgfile.write_text("n_steps = 1\ncoin0 = one\nt1_cavity_us = inf\n"
                       "t1_ge_us = inf\nt1_ef_us = inf\nt1_gf_us = inf\n"
                       "tphi_e_us = inf\ntphi_f_us = inf\n")
    code = main(["run", "--config", str(cfgfile), "--n-steps", "3"])
    out = capsys.readouterr()
    assert code == 0
    row = out.out.splitlines()[1].split(",")
    assert row[0] == "3"                       # flag wins over file
    assert row[REPORT_COLUMNS.index("coin0")] == "one"


def test_ideal_subcommand(capsys):
    code = main(["ideal", "--n-steps", "2", "--coin0", "one"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "site,P_id"
    probs = [float(line.split(",")[1]) for line in out[1:]]
    assert probs == pytest.approx([0.25, 0.5, 0.25])


def test_dist_subcommand(tmp_path):
    path = tmp_path / "dist.csv"
    script = tmp_path / "dist.gp"
    code = main(["dist", "--n-steps", "2", "--output", str(path),
                 "--plot-script", str(script), *ZERO_NOISE])
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "site,P_me,P_id"
    assert len(lines) == 4
    assert "plot" in script.read_text()


def test_sweep_with_range_values(tmp_path):
    path = tmp_path / "sweep.csv"
    code = main(["sweep", "--axis", "n_steps", "--values", "1:3",
                 "--output", str(path), *ZERO_NOISE])
    assert code == 0
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3"]


def test_sweep_default_g_grid(capsys):
    # omitting --values on the g axis sweeps the stock 10..60 MHz grid
    code = main(["sweep", "--axis", "g", "--n-steps", "2", *ZERO_NOISE])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    g_col = REPORT_COLUMNS.index("g_over_2pi_MHz")
    assert [row.split(",")[g_col] for row in out[1:]] == \
        [str(v) for v in range(10, 61, 5)]


def test_sweep_cross_axis(capsys):
    code = main(["sweep", "--axis", "n_steps", "--values", "1,2",
                 "--cross-axis", "scale", "--cross-values", "5,1",
                 "--n-steps", "1"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(out) == 5
    scale_col = REPORT_COLUMNS.index("scale")
    assert [row.split(",")[scale_col] for row in out[1:]] == \
        ["5", "1", "5", "1"]


def test_sweep_with_a_failed_row_exits_2(tmp_path, capsys):
    # a numerical failure on any row is exit 2, after every row is
    # written and the failures are counted; here the e -> g rate of
    # 1e300 / us fails the scale-1 point, not the scale-1e300 one
    path = tmp_path / "sweep.json"
    code = main(["sweep", "--axis", "scale", "--values", "1e300,1",
                 "--t1-ge-us", "1e-300", "--format", "json",
                 "--output", str(path)])
    assert code == 2
    rows = json.loads(path.read_text())
    assert [row["scale"] for row in rows] == [1e300, 1]
    assert "error" not in rows[0] and rows[0]["S"] > 0.9
    assert rows[1]["error"].startswith("IntegrationError")
    assert capsys.readouterr().err == "1/2 sweep points failed\n"


@pytest.mark.parametrize("argv", [
    ["run", "--coin0", "sideways"],
    ["run", "--n-steps", "zero"],
    ["run", "--config", "/nonexistent/path.cfg"],
    ["sweep", "--axis", "n_steps", "--values", "oops"],
    ["sweep", "--axis", "n_steps"],
    ["sweep", "--axis", "n_steps", "--values", "1", "--cross-values", "2"],
    ["frobnicate"],
    ["run", "--phi-rad", "inf"],
    ["run", "--t1-ge-us", "1e-320"],      # rate 1/lifetime overflows to inf
    ["run", "--scale", "1e-320"],
    ["run", "--scale", "inf"],
    ["run", "--g-over-2pi-mhz", "1e-320"],   # pi / 2g overflows to inf
    ["run", "--mu-over-2pi-mhz", "1e-320"],
    ["run", "--omega-over-2pi-mhz", "1e-320"],
    ["sweep", "--axis", "n_steps", "--values", "1", "--workers", "2"],
    ["run", "--representation", "full"],     # removed keys and subcommand
    ["run", "--fock-cutoff", "3"],
    ["validate", "--n-steps", "1"],
    ["sweep", "--axis", "n_steps", "--values", "1.5,2.9"],
    ["sweep", "--axis", "scale", "--values", "1", "--cross-axis", "n_steps",
     "--cross-values", "2.5"],
    ["sweep", "--axis", "g", "--values", "nan:5"],     # non-finite ranges
    ["sweep", "--axis", "g", "--values", "1:inf"],
    ["sweep", "--axis", "g", "--values", "1:5:nan"],
    ["sweep", "--axis", "g", "--values", "0:1e300:1e-300"],  # count overflows
    ["sweep", "--axis", "n_steps", "--values", "1e300"],  # size past a float
    ["run", "--n-steps", "1" + "0" * 400],
])
def test_config_errors_exit_1(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("cqwalk: config error:")
    assert err.count("\n") == 1                 # one line, no traceback


@pytest.mark.parametrize("argv, message", [
    (["--axis", "n_steps"], "axis 'n_steps' has no values"),
    (["--axis", "n_steps", "--values", "1", "--cross-values", "2"],
     "cross values given without a cross axis"),
    (["--axis", "n_steps", "--values", "1", "--cross-axis", "scale"],
     "axis 'scale' has no values"),
    (["--axis", "steps", "--values", "1"], "unknown sweep axis 'steps';"
     " choose from ['g', 'n_steps', 'omega_rabi', 'scale']"),
])
def test_sweep_spec_checks_the_parsed_sweep(argv, message, capsys):
    # the CLI only parses a sweep; SweepSpec refuses what does not hold
    assert main(["sweep", *argv]) == 1
    assert capsys.readouterr().err == f"cqwalk: config error: {message}\n"


@pytest.mark.parametrize("text, values", [
    ("1:3", (1.0, 2.0, 3.0)),
    ("10:60:5", tuple(float(v) for v in range(10, 61, 5))),
    ("0.1:0.3:0.1", (0.1, 0.2, 0.30000000000000004)),
    ("1:20", tuple(float(v) for v in range(1, 21))),
    ("5,1,0.2", (5.0, 1.0, 0.2)),
    (" 1, 2:3 ,,1e300", (1.0, 2.0, 3.0, 1e300)),
])
def test_value_lists_expand_bit_for_bit(text, values):
    got = cli._parse_value_list(text, "--values", cqwalk.ExperimentConfig())
    assert [v.hex() for v in got] == [v.hex() for v in values]


def _cap_address_space():
    cap = 3 * 2**29                    # 1.5 GiB
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


@pytest.mark.parametrize("argv", [
    ["--axis", "scale", "--values", "1:1e300"],
    ["--axis", "scale", "--values", "0:1e9:1"],
    ["--axis", "n_steps", "--values", "1:30000", "--cross-axis", "scale",
     "--cross-values", "1:30000"],              # 9e8 points
])
def test_oversized_sweep_is_refused_before_it_is_built(argv):
    # each range or grid would outgrow any host's memory; it is charged
    # before a value list or config is built, so the refusal is one line.
    # The child has a time limit and a capped address space, so a
    # regression fails fast instead of hanging or eating the machine
    src = str(Path(cqwalk.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": src if not path else src + os.pathsep + path}
    proc = subprocess.run([sys.executable, "-m", "cqwalk.cli", "sweep", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=30, preexec_fn=_cap_address_space)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("cqwalk: config error: n_steps = ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["run", "--n-steps", "1"],
    ["sweep", "--axis", "n_steps", "--values", "1,2"],
    ["dist", "--n-steps", "1"],
    ["run", "--n-steps", "1", "--format", "json", "--output", "a.json"],
    ["sweep", "--axis", "n_steps", "--values", "1,2", "--format", "json",
     "--output", "a.json"],
])
def test_plot_script_without_output_runs_nothing(argv, tmp_path, capsys,
                                                 monkeypatch):
    # the script would reference a data file that is never written, or
    # read CSV columns out of a JSON file, so the config error comes
    # before any run and nothing is written
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--plot-script", "plot.gp"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("cqwalk: config error: --plot-script")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", ["dist", "ideal"])
def test_csv_only_subcommands_refuse_json(command, capsys):
    # dist and ideal write CSV only; asking for JSON is a config error
    # before anything runs
    assert main([command, "--n-steps", "1", "--format", "json"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("cqwalk: config error:")
    assert "CSV only" in out.err


def test_ideal_is_charged_as_a_noise_free_run(tmp_path, monkeypatch, capsys):
    # ideal runs no master equation: on a 16 MiB host N = 1000 is 64
    # vectors (3 MB), not 6 dense states (0.8 GiB), while the commands
    # that run one keep their refusal; a bad lifetime and an absurd N
    # are still one-line config errors
    monkeypatch.setattr(config, "_physical_memory", lambda: 2**24)
    monkeypatch.chdir(tmp_path)
    assert main(["ideal", "--n-steps", "1000", "--output", "p.csv"]) == 0
    assert len((tmp_path / "p.csv").read_text().splitlines()) == 1002
    capsys.readouterr()
    for argv, match in (
            (["run"], "dense states of dimension 3004 in one run, more"),
            (["dist"], "dense states of dimension 3004 in one run, more"),
            (["sweep", "--axis", "scale", "--values", "1"],
             "dense states of dimension 3004 in one run, more"),
            (["ideal", "--t1-ge-us", "0"], "t1_ge_us must be positive"),
            (["ideal", "--n-steps", "1000000000"], "64 state vectors")):
        if argv[0] != "ideal":
            argv = [*argv, "--n-steps", "1000"]
        assert main(argv) == 1, argv
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("cqwalk: config error:")
        assert out.err.count("\n") == 1
        assert match in out.err, argv
    assert os.listdir(tmp_path) == ["p.csv"]


def test_plot_script_escapes_quotes_in_data_path(tmp_path, monkeypatch):
    # gnuplot doubles a ' inside a single-quoted string
    monkeypatch.chdir(tmp_path)
    code = main(["run", "--n-steps", "1", "--output", "it's.csv",
                 "--plot-script", "q.gp", *ZERO_NOISE])
    assert code == 0
    (plot,) = [line for line in (tmp_path / "q.gp").read_text().splitlines()
               if line.startswith("plot ")]
    assert plot.startswith("plot 'it''s.csv' skip 1 ")


def test_numerical_failure_exits_2(capsys):
    # a 1e-300 us lifetime makes the segment maps so stiff that the trace
    # error is far above its bound
    code = main(["run", "--n-steps", "1", "--t1-ge-us", "1e-300"])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def test_uncertified_positivity_exits_2(monkeypatch, capsys):
    # a read-out rho with smallest eigenvalue -1e-9: its last slot, f of
    # the last qutrit, has an exactly zero row and column, so a -1e-9
    # there is an eigenvalue, below the certified -1e-12
    symmetrize = lindblad._symmetrize

    def negative(a):
        drift = symmetrize(a)
        a[-1, -1] = -1e-9
        return drift

    monkeypatch.setattr(lindblad, "_symmetrize", negative)
    code = main(["run", "--n-steps", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("cqwalk: numerical failure: positivity not"
                          " certified")
    assert "eigenvalue is -1e-09" in err


def test_generator_overflow_is_one_line_failure(capsys):
    # pulse duration times rate overflows while the generator is scaled,
    # or the sum of the three f rates overflows before it; the run must
    # fail with its one message and no numpy warning
    for argv in (["--omega-over-2pi-mhz", "1e-300", "--t1-ge-us", "1e-10"],
                 ["--t1-ef-us", "1e-308", "--t1-gf-us", "1e-308",
                  "--tphi-f-us", "1e-308"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--n-steps", "1", *argv])
        err = capsys.readouterr().err
        assert code == 2, argv
        assert err.startswith("cqwalk: numerical failure:"), argv
        assert err.count("\n") == 1, argv


_FLOAT_FLAGS = ("--g-over-2pi-mhz", "--omega-over-2pi-mhz",
                "--mu-over-2pi-mhz", "--theta-rad", "--phi-rad", "--scale",
                "--t1-cavity-us", "--t1-ge-us", "--t1-ef-us", "--t1-gf-us",
                "--tphi-e-us", "--tphi-f-us")
_FUZZ_FLOATS = st.one_of(
    st.floats(0.01, 1000.0),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([math.inf, -math.inf, math.nan, 1e-320, 1e300]))


@settings(max_examples=150, deadline=None)
@given(n_steps=st.integers(1, 3),
       flags=st.fixed_dictionaries(
           {}, optional={flag: _FUZZ_FLOATS for flag in _FLOAT_FLAGS}))
def test_cli_contract_under_fuzzed_inputs(n_steps, flags):
    argv = ["run", "--n-steps", str(n_steps), "--format", "json"]
    for flag, value in flags.items():
        argv += [flag, repr(value)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)                  # any escaping exception fails
    assert code in (0, 1, 2, 3)
    if code != 0:
        assert "Traceback" not in err.getvalue()
        return
    (row,) = json.loads(out.getvalue())
    numbers = [v for v in row.values() if isinstance(v, float)]
    assert np.all(np.isfinite(numbers + row["P_me"] + row["P_id"]))
    for key in ("S", "S_renorm"):
        assert 0.0 <= row[key] <= 1.0 + 1e-12


def test_io_failure_exits_3(capsys):
    code = main(["run", "--n-steps", "1",
                 "--output", "/nonexistent-dir/report.csv"])
    assert code == 3
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize("noise, n_steps", [
    pytest.param([], "6", id="noisy"),
    pytest.param(ZERO_NOISE, "6", id="noise-free"),
    # large enough for BLAS to split work between threads: a pure
    # state's diagnostics come from psi, with no eigvalsh to differ
    pytest.param(ZERO_NOISE, "80", id="noise-free N=80"),
    # a noisy state's positivity is a pass or fail at a fixed bound,
    # whatever the BLAS thread count
    pytest.param([], "80", id="noisy N=80"),
])
def test_report_does_not_depend_on_blas_threads(noise, n_steps):
    # identical configs give identical rows, whatever the BLAS thread
    # count: every field but wall_ms is equal at one and two threads
    src = str(Path(cqwalk.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    rows = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": src if not path else src + os.pathsep + path}
        proc = subprocess.run(
            [sys.executable, "-m", "cqwalk.cli", "run", "--n-steps", n_steps,
             "--format", "json", *noise],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        (row,) = json.loads(proc.stdout)
        del row["wall_ms"]
        rows.append(row)
    assert rows[0] == rows[1]
