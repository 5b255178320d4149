import dataclasses
import math
import os
import re
from unittest.mock import Mock

import numpy as np
import pytest

from otasync import compensation, experiment
from otasync.cli import cli_main
from otasync.channel import batched_op_norms
from otasync.compensation import CHUNK_SIZE, build_plan, monte_carlo_delta
from otasync.config import ConfigError, default_params, dump_config
from otasync.experiment import ResultRow, SweepSpec, cell_seed, emit_csv, parse_sweep, \
    run_cell, run_sweep
from otasync.rate import se_gradient
from tests.oracles import csv_without_wall_time, parse_result_csv

QUICK = SweepSpec(f_values=(1, 2), schemes=("kalman", "direct", "ap1_only"),
                  snr_ap_db=(-15.0,), n_realizations=300, master_seed=9)


UNKNOWN = "; expected subset of ('kalman', 'direct', 'ap1_only')"


# SweepSpec's checks that no flag or sweep file can reach; the command-line
# table (test_cli_rejects) holds every other one, as a file or a flag makes it
@pytest.mark.parametrize("values, message", [
    (dict(f_values=(1.5, 1)), "f_values must be integers, got 1.5"),
    (dict(n_realizations=1.5), "n_realizations must be an integer >= 1, got 1.5"),
    (dict(master_seed=2.0), "master_seed must be a non-negative integer, got 2.0"),
    (dict(n_workers=1.5), "n_workers must be an integer >= 1, got 1.5"),
    (dict(f_values=()), "f_values must be nonempty"),
    (dict(schemes=()), "schemes must be nonempty"),
    (dict(snr_ap_db=()), "snr_ap_db must be nonempty"),
    (dict(c_nu_values=()), "c_nu_values must be nonempty"),
])
def test_sweep_spec_rejects_a_bad_value(values, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        SweepSpec(**{"f_values": (1,), **values})


def test_parse_sweep_roundtrip():
    text = "f_values = 1,2,3\nschemes = kalman,direct\nsnr_ap_db = -15,-20\n" \
           "n_realizations = 50\nmaster_seed = 4\n"
    spec = parse_sweep(text)
    assert spec.f_values == (1, 2, 3)
    assert spec.schemes == ("kalman", "direct")
    assert spec.snr_ap_db == (-15.0, -20.0)
    assert spec.n_realizations == 50


def test_op_norms_are_shared_across_frame_length_and_scheme(params, monkeypatch):
    # one seed per (c_nu, SNR), whatever the scheme and F, a different one for
    # each; the synced schemes of one (c_nu, SNR, F) run as one group on the
    # same chunks, and every group of one (c_nu, SNR) on the same read-only op
    # norms (common random numbers), each chunk's drawn once from its own child
    # stream; ap1_only cells start no chunk, as AP 1's table is exact
    cells = Mock(wraps=experiment.run_cell)
    simulate = Mock(wraps=compensation._simulate_chunk)
    draw = Mock(wraps=compensation.batched_op_norms)
    monkeypatch.setattr(experiment, "run_cell", cells)
    monkeypatch.setattr(compensation, "_simulate_chunk", simulate)
    monkeypatch.setattr(compensation, "batched_op_norms", draw)
    spec = SweepSpec(f_values=(1, 10), schemes=("kalman", "direct", "ap1_only"),
                     snr_ap_db=(-15.0, -20.0), c_nu_values=(5e-18, 1.58e-17),
                     n_realizations=CHUNK_SIZE + 10, master_seed=3)
    run_sweep(spec, params)
    assert [call.args[2] for call in draw.call_args_list] == [CHUNK_SIZE, 10] * 4
    seeds, shared = {}, {}
    for call in cells.call_args_list:
        cell, schemes, _, seed = call.args
        seeds.setdefault((cell.c_nu, cell.beta_g), set()).add(seed)
        if schemes != ("ap1_only",):
            assert schemes == ("kalman", "direct")
            norms = shared.setdefault((cell.c_nu, cell.beta_g), call.kwargs["op_norms"])
            assert call.kwargs["op_norms"] is norms and not norms.flags.writeable
    assert [len(s) for s in seeds.values()] == [1] * 4 and len(shared) == 4
    union = set.union(*seeds.values())
    assert len(union) == 4 and union == {cell_seed(3, i, j) for i in (0, 1) for j in (0, 1)}
    # two chunks per synced group, in sweep order, each on its slice of the
    # group's op norms: a fresh draw of its size from its chunk's child stream
    synced = [call for call in cells.call_args_list if call.args[1] != ("ap1_only",)]
    assert len(synced) == 8 and len(simulate.call_args_list) == 2 * len(synced)
    for k, call in enumerate(simulate.call_args_list):
        geom, j, n_runs, seed, op_norm, trackers = call.args
        cell, schemes, _, expect_seed = synced[k // 2].args
        assert (geom.params, trackers, seed, j) == (cell, schemes, expect_seed, k % 2)
        assert op_norm.base is synced[k // 2].kwargs["op_norms"]
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(j, 0)))
        assert np.array_equal(op_norm, batched_op_norms(rng, cell, n_runs))
    # a (c_nu, SNR) of ap1_only cells alone draws nothing
    run_sweep(dataclasses.replace(spec, schemes=("ap1_only",)), params)
    assert draw.call_count == 8


def test_run_sweep_row_grid(params):
    rows = run_sweep(QUICK, params)
    # 2 synced schemes x 1 SNR x 2 F + ap1_only x 2 F
    assert len(rows) == 6
    ap1 = [r for r in rows if r.scheme == "ap1_only"]
    assert len(ap1) == 2 and all(math.isnan(r.snr_ap_db) for r in ap1)
    assert all(r.se_mean >= 0 for r in rows)
    assert all(r.n_realizations == 300 for r in rows)


def test_zero_drift_makes_schemes_coincide(params):
    # no oscillator drift and a very strong inter-array link: SE independent
    # of scheme and of F
    spec = SweepSpec(f_values=(1, 4), schemes=("kalman", "direct"),
                     snr_ap_db=(70.0,), c_nu_values=(0.0,),
                     n_realizations=200, master_seed=2)
    rows = run_sweep(spec, params)
    ses = np.array([r.se_mean for r in rows])
    assert np.max(ses) - np.min(ses) < 0.02


def test_emit_csv_shape():
    assert emit_csv([]).strip().splitlines() == [
        "scheme,frame_len,snr_ap_db,c_nu,se_mean,se_stderr,n_realizations,wall_time_s"]
    row = ResultRow(scheme="kalman", frame_len=2, snr_ap_db=-15.0, c_nu=5e-18,
                    se_mean=1.2517, se_stderr=0.002, n_realizations=100, wall_time_s=0.5)
    text = emit_csv([row])
    assert len(text.strip().splitlines()) == 2
    parsed = parse_result_csv(text)[0]
    assert parsed.se_mean == pytest.approx(1.2517, rel=1e-6)
    assert parsed.frame_len == 2


def test_csv_six_significant_digits():
    row = ResultRow(scheme="direct", frame_len=1, snr_ap_db=-20.0, c_nu=1.58e-17,
                    se_mean=1.23456789, se_stderr=0.00123456789, n_realizations=10,
                    wall_time_s=1.0)
    line = emit_csv([row]).strip().splitlines()[1]
    assert "1.23457" in line and "0.00123457" in line and "1.58e-17" in line


def test_sweep_worker_invariance(params, monkeypatch):
    # n_workers is accepted and read by nothing: every chunk runs in this
    # process, and a multi-chunk synced sweep gives the n_workers = 1 rows
    def no_process(*args, **kwargs):
        raise AssertionError("a process was started")

    for target in ("concurrent.futures.ProcessPoolExecutor", "multiprocessing.Process.start",
                   "os.fork"):
        monkeypatch.setattr(target, no_process)
    text = "f_values = 1, 2\nschemes = kalman, direct\nn_realizations = 2100\nmaster_seed = 6\n"
    rows = [[dataclasses.replace(row, wall_time_s=0.0) for row in
             run_sweep(parse_sweep(text + f"n_workers = {n}\n"), params)] for n in (1, 2)]
    assert rows[1] == rows[0] and len(rows[0]) == 4  # bit-identical
    assert all(math.isfinite(row.se_stderr) for row in rows[0])


@pytest.mark.parametrize("scheme", ["kalman", "ap1_only"])
def test_run_cell_builds_one_plan(scheme, params, monkeypatch):
    # run_cell's plan is the one monte_carlo_delta reads
    builds = {name: Mock(wraps=getattr(compensation, name))
              for name in ("build_frame_schedule", "build_ap1_only_schedule")}
    for name, build in builds.items():
        monkeypatch.setattr(compensation, name, build)
    run_cell(params, (scheme,), 30, 4)
    assert sum(build.call_count for build in builds.values()) == 1


def test_covariance_matches_per_run_values(params, monkeypatch):
    # the per-run covariance of AP 2's segment values, by hand
    # from the chunks' own values; 1100 runs straddle the chunk boundary at
    # run 1024
    simulate = compensation._simulate_chunk
    spy = Mock(wraps=simulate)
    monkeypatch.setattr(compensation, "_simulate_chunk", spy)
    n = 1100
    (stats,) = monte_carlo_delta(params, ("kalman",), n, 8)
    assert spy.call_count == 2
    geom = spy.call_args.args[0]
    delta = np.concatenate([simulate(*call.args)[0] for call in spy.call_args_list], axis=1)
    assert delta.shape == (len(geom.segments), n) and stats.n_runs == n
    assert np.allclose(stats.cov, np.cov(delta), rtol=1e-9, atol=1e-15)
    assert np.allclose(stats.mean_delta[1, geom.pos - 1], delta.mean(axis=1)[geom.segment]
                       * geom.weight, rtol=0.0, atol=1e-12)
    # the map from segments to AP 2's positions is the geometry's
    assert np.array_equal(stats.cols, geom.pos - 1)
    assert np.array_equal(stats.segment, geom.segment)
    assert np.array_equal(stats.weight, geom.weight)
    # and the stderr is the spread of each run's SE, linearized at the mean
    grad = se_gradient(params, build_plan(params, "kalman"), stats.mean_delta)[1, geom.pos - 1]
    per_run = (grad * delta[geom.segment].T * geom.weight).sum(axis=1)
    assert run_cell(params, ("kalman",), n, 8)[0][1] == pytest.approx(
        per_run.std(ddof=1) / math.sqrt(n), rel=1e-9)


def test_stderr_needs_two_runs_where_the_cell_draws(params):
    # one run has no spread to read: NaN, with no warning; two runs do
    assert math.isnan(run_cell(params, ("kalman",), 1, 8)[0][1])
    assert 0 < run_cell(params, ("kalman",), 2, 8)[0][1] < 0.5


@pytest.mark.parametrize("noise", [0.0, 0.04])
def test_ap1_only_stderr_is_exactly_zero(noise, params):
    # AP 1's table is exact and AP 2 draws nothing, at any run count
    p = dataclasses.replace(params, ue_pilot_noise_var=noise)
    for n in (1, 20, 1100):
        rows = run_sweep(SweepSpec(f_values=tuple(range(1, 11)), schemes=("ap1_only",),
                                   n_realizations=n, master_seed=5), p)
        assert [r.se_stderr for r in rows] == [0.0] * 10


@pytest.mark.parametrize("scheme, snr_db, frame_len", [("kalman", -15.0, 2),
                                                       ("direct", -20.0, 1)])
def test_stderr_is_calibrated(scheme, snr_db, frame_len):
    # the delta-method stderr against the spread of se_mean over 40 seeds; the
    # sd of 40 draws is itself uncertain by about 11%, hence the wide band
    p = default_params(frame_len=frame_len).with_snr_ap_db(snr_db)
    cells = np.array([run_cell(p, (scheme,), 1100, seed)[0] for seed in range(9000, 9040)])
    ratio = cells[:, 1].mean() / cells[:, 0].std(ddof=1)
    assert 2 / 3 <= ratio <= 3 / 2, ratio


def test_cli_default_run(tmp_path):
    out = tmp_path / "res.csv"
    code = cli_main(["--out", str(out), "--realizations", "100", "--seed", "3",
                     "--scheme", "kalman"])
    assert code == 0
    rows = parse_result_csv(out.read_text())
    assert len(rows) == 3  # default sweep F=1..3, one scheme


def test_cli_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["--realizations", "150", "--seed", "7", "--scheme", "direct"]
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    assert csv_without_wall_time(a.read_text()) == csv_without_wall_time(b.read_text())


def test_cli_config_and_sweep_files(tmp_path):
    cfg = tmp_path / "sys.cfg"
    cfg.write_text(dump_config(default_params(n_antennas=16)))
    sweep = tmp_path / "sweep.cfg"
    sweep.write_text("f_values = 1\nschemes = ap1_only\nn_realizations = 80\n")
    out = tmp_path / "r.csv"
    assert cli_main(["--config", str(cfg), "--sweep", str(sweep), "--out", str(out)]) == 0
    rows = parse_result_csv(out.read_text())
    assert len(rows) == 1 and rows[0].scheme == "ap1_only"


def test_cli_stdout_when_no_out(capsys):
    code = cli_main(["--realizations", "60", "--scheme", "ap1_only"])
    assert code == 0
    cap = capsys.readouterr()
    assert cap.out.startswith("scheme,frame_len")


@pytest.mark.parametrize("exc", [MemoryError("cannot allocate G"), RuntimeError("boom")])
def test_cli_runtime_failure_exits_2(exc, tmp_path, monkeypatch, capsys):
    # a run that fails leaves the file at --out as it was, and no other file
    monkeypatch.setattr("otasync.cli.run_sweep", Mock(side_effect=exc))
    out = tmp_path / "out.csv"
    out.write_text("earlier\n")
    assert cli_main(["--realizations", "10", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"otasync: {type(exc).__name__}: {exc}\n"
    assert out.read_text() == "earlier\n" and list(tmp_path.iterdir()) == [out]


def test_cli_config_past_memory_exits_2(tmp_path, capsys):
    # 2^58 UEs pass every count check, but their (K, 2) tables need 4 EiB, past
    # any address space, so the allocation fails at once: one line, no traceback
    cfg = tmp_path / "sys.cfg"
    cfg.write_text(f"n_ues = {2**58}\ntau_c = {2**58 + 100}\n")
    assert cli_main(["--config", str(cfg), "--dump-plan", "--out", str(tmp_path / "p.csv")]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"otasync: cannot load config: \w*MemoryError: [^\n]*\n", err)
    assert list(tmp_path.iterdir()) == [cfg]


def test_cli_run_count_past_memory_exits_2(tmp_path, capsys):
    # 2^58 runs pass the count check, but their op norms need 2 EiB, past any
    # address space, so the allocation fails at once: one line, no traceback
    out = tmp_path / "r.csv"
    assert cli_main(["--realizations", str(2**58), "--scheme", "kalman", "--out", str(out)]) == 2
    assert re.fullmatch(r"otasync: MemoryError: [^\n]*\n", capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


def row(*argv, config=None, sweep=None, code=2, err, id=None):
    """One bad input: config and sweep texts (bytes need an id), flags, exit code, stderr."""
    if id is None:
        id = " ".join([f"{kind} {'; '.join(text.splitlines())}" for kind, text in
                       (("config", config), ("sweep", sweep)) if text is not None]
                      + [a or "''" for a in argv])
    return pytest.param(config, sweep, list(argv), code, err, id=id)


def config(text, err, **kw):
    return row(config=text, err="otasync: invalid config: " + err, **kw)


def sweep(text, err, **kw):
    return row(sweep=text, err="otasync: invalid sweep file {sweep}: " + err, **kw)


DUMPS = ("--dump-plan", "--dump-trace")
SEED = "master_seed must be a non-negative integer, got "
MALFORMED = "line {}: malformed value for '{}' ({})"
FLOAT = "could not convert string to float: {!r}"
INT = "invalid literal for int() with base 10: {!r}"
UTF8 = "'utf-8' codec can't decode byte 0xff in position {}: invalid start byte"
NOT_FILLED = "slot does not fill exactly: tau_p + tau_u + tau_d + 2*tau_g = {} != tau_c = 100"
INDEX_MAX = np.iinfo(np.intp).max
RUNS_MAX = f"n_realizations exceeds the largest array index {INDEX_MAX // 8} of its 8-byte " \
    "op norms"
NONFINITE = {"beta_ue": "beta_ue entries must be positive and finite",
             "eta": "eta entries must be nonnegative and finite",
             "ue_pilot_noise_var": "ue_pilot_noise_var must be nonnegative and finite"}
SIGMA = "sigma_nu^2 is not finite for f_c={}, c_nu={}"
CELL = "otasync: cell c_nu = {}, snr_ap_db = {}, F = 1: "
CEILING = "the variance ceiling 2^1000"
MEAS_VAR = "rho_ap * beta_g = {} is below 2^-939, where 1/(rho_ap ||G||^2) can exceed " + CEILING
ZETA = "sigma_zeta^2 = 432 sigma_nu^2 = inf exceeds " + CEILING
UPPER = "beta_g = {} and rho_ap = 200 at N = {}: ||G||^2 or rho_ap ||G||^2 can exceed " + CEILING
# derived variances past the ceiling, each as (config, sweep lines, cell,
# message, trace config, trace message): an SNR whose beta_g is subnormal, a
# c_nu whose sigma_nu^2 is finite but sigma_zeta^2 is not, and a beta_g whose
# ||G||^2 (in the trace) or rho_ap ||G||^2 (in the sweep) can overflow
OVERFLOWS = [
    (None, "snr_ap_db = -15, -3200", ("5e-18", -3200), MEAS_VAR.format("9.88e-321"),
     "beta_g = -3200 dB", MEAS_VAR.format("2e-318")),
    ("f_c = 1\nf_s = 1", "c_nu_values = 5e-18, 1e305", ("1e+305", -15), ZETA,
     "f_c = 1\nf_s = 1\nc_nu = 1e305", ZETA),
    ("n_antennas = 128", "snr_ap_db = -15, 3080", ("5e-18", 3080), UPPER.format("5e+305", 128),
     "beta_g = 1e308", UPPER.format("1e+308", 64)),
]

CLI_REJECTS = [
    # usage errors, exit 1: err is a pattern for the last stderr line after
    # "otasync: error: ", the program's own message or, as argparse's wording
    # varies across Python versions, any line that names the flag
    row("--no-such-flag", code=1, err=".*--no-such-flag.*"),
    row("--workers", "2", code=1, err=".*--workers.*"),   # chunks run in one process
    row("--fig2", "--fig3", code=1, err=".*--fig3.*"),
    *[row(preset, "--sweep", "s.cfg", code=1, err=".*--sweep.*")   # one sweep: a preset
      for preset in ("--fig2", "--fig3")],                          # or a file
    *[row(dump, *other, code=1, err=f".*{other[0]}.*")             # a dump mode runs no sweep
      for dump in DUMPS for other in (["--sweep", "missing.cfg"], ["--fig2"], ["--fig3"])],
    *[row(dump, "--realizations", "5", code=1, err="--realizations applies only to a sweep")
      for dump in DUMPS],
    row("--dump-plan", "--dump-trace", code=1, err=".*--dump-trace.*"),
    *[row(*argv, "--trace-frames", "7", code=1, err="--trace-frames applies only to --dump-trace")
      for argv in (["--dump-plan"], ["--realizations", "20"], ["--fig2"], [])],
    row("--dump-plan", "--seed", "5", code=1, err="--seed does not apply to --dump-plan"),
    # bad flag values, exit 2
    *[row("--dump-plan", "--scheme", s, err=f"otasync: unknown scheme {s!r}; expected one of "
          "('kalman', 'direct', 'ap1_only')") for s in ("bogus", "zero_forcing", "")],
    *[row(dump, "--scheme", s, err=f"otasync: {dump} takes one scheme, got {s!r}")
      for dump, s in (("--dump-plan", "ap1_only,bogus"), ("--dump-plan", "kalman,direct"),
                      ("--dump-trace", "kalman, direct"))],
    *[row("--dump-trace", "--scheme", s, err=f"otasync: cannot trace scheme {s!r}; expected one "
          "of ('kalman', 'direct')") for s in ("ap1_only", "bogus", "")],
    *[row("--dump-trace", "--trace-frames", n, err="otasync: trace needs at least one frame, got "
          + n) for n in ("0", "-3")],
    *[row(*argv, "--seed", "-1", err="otasync: " + SEED + "-1")
      for argv in (["--dump-trace"], ["--realizations", "10"])],
    row("--realizations", "0", err="otasync: n_realizations must be an integer >= 1, got 0"),
    # a count whose largest array would pass numpy's size limit: 8 bytes per
    # run (the op norms), 3 x 8 per frame (the trace's instants)
    row("--realizations", str(10 ** 30), id="--realizations 10^30", err="otasync: " + RUNS_MAX),
    row("--realizations", str(2 ** 62), "--scheme", "kalman",
        id="--realizations 2^62 --scheme kalman", err="otasync: " + RUNS_MAX),
    *[row("--dump-trace", "--trace-frames", str(n), id=f"--dump-trace --trace-frames {exp}",
          err=f"otasync: trace needs at most {INDEX_MAX // 24} frames, got {n}")
      for n, exp in ((10 ** 30, "10^30"), (2 ** 62, "2^62"))],
    *[row(*argv, "--scheme", s, err=f"otasync: unknown scheme(s) {s.split(',')!r}" + UNKNOWN)
      for argv in (["--realizations", "10"], ["--fig2"]) for s in ("", ",")],
    # an output path that cannot be written, found before any work in every mode
    *[row(*argv, "--out", out, err=f"otasync: I/O failure: {why}: {out!r}")
      for argv in (["--realizations", "30"], ["--dump-plan"], ["--dump-trace"])
      for out, why in (("missing/x.csv", "[Errno 2] No such file or directory"),
                       (".", "[Errno 21] Is a directory"))],
    row("--sweep", "missing.cfg",
        err="otasync: I/O failure: [Errno 2] No such file or directory: 'missing.cfg'"),
    # config files, exit 2
    row("--config", "missing.cfg",
        err="otasync: cannot read config: [Errno 2] No such file or directory: 'missing.cfg'"),
    config("n_antennas 64", "line 1: expected key = value, got 'n_antennas 64'"),
    config("tau_g = -1", "tau_g must be nonnegative, got -1"),
    config("beta_ue = 0.1,0.2,0.3",
           "beta_ue must be a scalar, 20 values, or a (10, 2) table, got shape (3,)"),
    config("n_ues = 4\ntau_g = 3\ntau_c = 101",
           "cannot split tau_c - tau_p - 2*tau_g = 91 into tau_u + tau_d"),
    config(b"n_ues = 4\xff\n", UTF8.format(9), id="config n_ues = 4 and byte 0xff"),
    config("n_antennae = 64", "line 1: unknown key 'n_antennae'"),
    config("rho_ue = fast", MALFORMED.format(1, "rho_ue", FLOAT.format("fast"))),
    config("# header\nn_antennas = 32\neta = 0.1,x", MALFORMED.format(3, "eta", FLOAT.format("x"))),
    *[config(f"{key} = 4000 dB", MALFORMED.format(1, key, "4000 dB is out of range"))
      for key in ("rho_ue", "rho_ap", "beta_g", "beta_ue")],
    config("tau_c = 100dB", MALFORMED.format(1, "tau_c", "'tau_c' does not accept a dB value")),
    *[config(f"n_ues = {k}", f"n_ues must be a positive integer, got {k}") for k in (0, -2)],
    # a count past the largest array index, which would size an array or index samples
    *[row(mode, config=f"{key} = {10 ** exp}", id=f"config {key} = 10^{exp} {mode}",
          err=f"otasync: invalid config: {key} exceeds the largest array index {INDEX_MAX}")
      for key, exp, mode in (("n_antennas", 400, "--dump-trace"), ("n_ues", 400, "--dump-plan"),
                             ("tau_c", 30, "--dump-plan"), ("frame_len", 400, "--dump-trace"))],
    config("tau_u = 45\ntau_d = 45", NOT_FILLED.format(106)),
    config("tau_u = 42\ntau_d = 41", NOT_FILLED.format(99)),
    *[config(f"{key} = {bad}", NONFINITE[key]) for key in NONFINITE for bad in ("nan", "inf")],
    *[config(f"{key} = " + ",".join(["0.01"] * 7 + [bad] + ["0.01"] * 12), NONFINITE[key],
             id=f"config {key} = {bad} at [3, 1] of 10 x 2")
      for key in ("beta_ue", "eta") for bad in ("nan", "inf")],
    config("eta = 0.2", "per-AP power constraint violated: sum_k eta[k,ap] = [2. 2.] exceeds 1"),
    *[config(text, "rate term n_antennas * rho_ap * eta * gamma(beta_ue, rho_ue, n_ues) is not "
             "finite") for text in ("beta_ue = 1e306", "rho_ap = 1e307")],
    # each constant is finite, their sum over the two arrays is not
    row(config="n_ues = 1\nn_antennas = 1\nrho_ap = 1e300\nrho_ue = 1\nbeta_ue = 1e8\n"
        "tau_c = 21\ntau_g = 2",
        sweep="f_values = 1\nsnr_ap_db = 40\nschemes = direct, ap1_only\nn_realizations = 20",
        err="otasync: invalid config: rate term ds with both arrays sending is not finite"),
    config("n_ues = 2\nn_antennas = 1\nrho_ap = 1e300\nrho_ue = 1\n"
           "beta_ue = 1.2e8, 1.2e8, 1e-8, 1e-8\neta = 1e-10, 1e-10, 0.9, 0.9",
           "rate term bu + ui + 1 with both arrays sending is not finite"),
    row(config="f_c = 1e160", err=CELL.format("5e-18", -15) + SIGMA.format("1e+160", "5e-18")),
    row("--dump-trace", config="f_c = 1e160", err="otasync: " + SIGMA.format("1e+160", "5e-18")),
    row("--dump-trace", config="c_nu = 1e300", err="otasync: " + SIGMA.format(2e9, "1e+300")),
    # the trace reads its sync instants from the plan, so it rejects a slot too
    # short to relocate tau_g + 1 uplink samples, as the sweep does
    row("--dump-trace", "--trace-frames", "3", "--seed", "2",
        config="n_ues = 1\ntau_c = 12\ntau_g = 2\ntau_u = 2",
        err="otasync: cannot relocate 3 uplink samples: only 2 uplink data samples"),
    # and a sweep rejects it before its first cell, whatever scheme that runs
    row(config="n_ues = 1\ntau_c = 12\ntau_g = 2\ntau_u = 2",
        sweep="f_values = 1, 2\nschemes = ap1_only, kalman\nn_realizations = 20",
        err="otasync: cannot relocate 3 uplink samples: only 2 uplink data samples"),
    row(config="n_ues = 1\ntau_c = 11\ntau_g = 2\ntau_u = 3\ntau_d = 3",
        err="otasync: shifted downlink ends before the joint demodulation pilot sample"),
    # sweep files, exit 2
    sweep(b"f_values = 1\xff\n", UTF8.format(12), id="sweep f_values = 1 and byte 0xff"),
    sweep("frames = 1,2", "line 1: unknown key 'frames'"),
    sweep("n_realizations = 10", "sweep must define f_values"),
    sweep("f_values = 1\nn_realizations = 10\nn_realizations = 20",
          "line 3: duplicate key 'n_realizations'"),
    sweep("f_values = one", MALFORMED.format(1, "f_values", INT.format("one"))),
    sweep("f_values = 1\nmaster_seed = 1.5", MALFORMED.format(2, "master_seed", INT.format("1.5"))),
    sweep("f_values = 1\nmaster_seed = -3", SEED + "-3"),
    sweep("schemes = zf\nf_values = 1", "unknown scheme(s) ['zf']" + UNKNOWN),
    sweep("f_values = 1\nn_workers = 0", "n_workers must be an integer >= 1, got 0"),
    sweep(f"f_values = 1\nschemes = kalman\nn_realizations = {10 ** 30}", RUNS_MAX,
          id="sweep n_realizations = 10^30"),
    *[sweep(text, "f_values must be positive, got " + bad)
      for text, bad in (("f_values = 1, 2, 3, 0", "0"), ("f_values = -1, 2", "-1"))],
    *[sweep("f_values = 1\nsnr_ap_db = " + text, "snr_ap_db must be finite, got " + bad)
      for text, bad in (("-15, nan", "nan"), ("-inf", "-inf"))],
    *[sweep("f_values = 1\nc_nu_values = " + text, "c_nu_values must be nonnegative and finite, "
            "got " + bad) for text, bad in (("5e-18, -1", "-1.0"), ("nan", "nan"))],
    # a value repeated in one list would only repeat a row
    sweep("f_values = 1, 3, 1", "f_values repeats 1"),
    sweep("f_values = 1\nschemes = ap1_only, kalman, ap1_only", "schemes repeats ap1_only"),
    sweep("f_values = 1\nsnr_ap_db = -15, -20, -15.0", "snr_ap_db repeats -15.0"),
    sweep("f_values = 1\nc_nu_values = 5e-18, 5.0e-18", "c_nu_values repeats 5e-18"),
    # valid in the file, out of range once a cell's params are built
    *[row(sweep="f_values = 1\n" + text, err=CELL.format(*at) + message) for text, at, message in (
        ("snr_ap_db = -15, 4000", ("5e-18", 4000), "4000 dB is out of range"),
        ("snr_ap_db = -15, -4000", ("5e-18", -4000), "beta_g must be positive and finite, got 0.0"),
        ("c_nu_values = 5e-18, 1e300", ("1e+300", -15), SIGMA.format(2e9, "1e+300")))],
    # a derived variance past the ceiling, found before any cell in every
    # scheme (README, "Variance ceiling")
    *[row(config=config, sweep=f"f_values = 1\n{lines}\nschemes = {schemes}",
          err=CELL.format(*at) + message)
      for config, lines, at, message, _, _ in OVERFLOWS
      for schemes in ("kalman", "direct, ap1_only")],
    *[row("--dump-trace", "--scheme", scheme, config=config, err="otasync: " + message)
      for _, _, _, _, config, message in OVERFLOWS for scheme in ("kalman", "direct")],
]


@pytest.mark.parametrize("config_text, sweep_text, argv, code, err", CLI_REJECTS)
def test_cli_rejects(config_text, sweep_text, argv, code, err, tmp_path, monkeypatch, capsys):
    # each row: its exit code and stderr, no output file, empty stdout, no cell run
    cells = Mock(wraps=experiment.run_cell)
    monkeypatch.setattr(experiment, "run_cell", cells)
    monkeypatch.chdir(tmp_path)   # so the relative paths in argv name no file
    for flag, name, text in (("--sweep", "run.sweep", sweep_text),
                             ("--config", "sys.cfg", config_text)):
        if text is not None:
            (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode())
            argv = [flag, name] + argv
    inputs = sorted(tmp_path.iterdir())
    assert cli_main(argv if "--out" in argv else argv + ["--out", "out.csv"]) == code
    cap = capsys.readouterr()
    if code == 2:
        assert cap.err == err.replace("{sweep}", "run.sweep") + "\n"
    else:   # argparse's usage lines, then the error line
        assert re.fullmatch("otasync: error: " + err, cap.err.splitlines()[-1])
    assert sorted(tmp_path.iterdir()) == inputs and cap.out == "" and not cells.called


def test_cli_dump_plan(tmp_path):
    out = tmp_path / "plan.csv"
    assert cli_main(["--dump-plan", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,ap1_label,ap2_label,a1,a2"
    assert len(lines) == 101
    # --scheme is split and stripped as a sweep file's schemes line is
    padded = tmp_path / "padded.csv"
    assert cli_main(["--dump-plan", "--scheme", "direct ", "--out", str(padded)]) == 0
    assert padded.read_text() == out.read_text()
    # a symlink is written through, and a path that is no regular file in place
    link = tmp_path / "link.csv"
    link.symlink_to(padded)
    assert cli_main(["--dump-plan", "--scheme", "ap1_only", "--out", str(link)]) == 0
    assert link.is_symlink() and "IDLE" in padded.read_text()
    assert cli_main(["--dump-plan", "--out", os.devnull]) == 0
    assert sorted(tmp_path.iterdir()) == [link, padded, out]


def test_cli_dump_trace(tmp_path):
    out = tmp_path / "trace.csv"
    assert cli_main(["--dump-trace", "--trace-frames", "25", "--seed", "2",
                     "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,obs,alpha_hat,p_var,kappa,alpha_true"
    assert len(lines) == 26
    assert cli_main(["--dump-trace", "--trace-frames", "25", "--seed", "2",
                     "--scheme", " kalman", "--out", str(out)]) == 0
    assert out.read_text().strip().splitlines() == lines   # stripped, as in a sweep
    # --scheme direct passes every measurement through: gain 1, output = obs
    assert cli_main(["--dump-trace", "--trace-frames", "25", "--seed", "2",
                     "--scheme", "direct", "--out", str(out)]) == 0
    direct = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
    assert all(r[1] == r[2] and r[4] == "1.0" for r in direct)
    assert [r[2] for r in direct] != [ln.split(",")[2] for ln in lines[1:]]  # not kalman
