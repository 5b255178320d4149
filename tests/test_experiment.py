import dataclasses
import math
import os
import re

import numpy as np
import pytest

from otasync import compensation, experiment
from otasync.cli import cli_main
from otasync.compensation import N_GROUPS, monte_carlo_delta
from otasync.config import ConfigError, default_params, dump_config
from otasync.experiment import ResultRow, SweepSpec, cell_seed, emit_csv, fig2_sweep, \
    fig3_sweep, parse_sweep, run_cell, run_sweep
from tests.oracles import parse_result_csv

QUICK = SweepSpec(f_values=(1, 2), schemes=("kalman", "direct", "ap1_only"),
                  snr_ap_db=(-15.0,), n_realizations=300, master_seed=9)


def _strip_wall_time(csv_text):
    lines = csv_text.strip().splitlines()
    return [",".join(ln.split(",")[:-1]) for ln in lines]


UNKNOWN = "; expected subset of ('kalman', 'direct', 'ap1_only')"


@pytest.mark.parametrize("values, message", [
    (dict(f_values=(1, 2, 3, 0)), "f_values must be positive, got 0"),
    (dict(f_values=(-1, 2)), "f_values must be positive, got -1"),
    (dict(snr_ap_db=(-15.0, math.nan)), "snr_ap_db must be finite, got nan"),
    (dict(snr_ap_db=(-math.inf,)), "snr_ap_db must be finite, got -inf"),
    (dict(c_nu_values=(5e-18, -1.0)), "c_nu_values must be nonnegative and finite, got -1.0"),
    (dict(c_nu_values=(math.nan,)), "c_nu_values must be nonnegative and finite, got nan"),
    (dict(f_values=(1.5, 1)), "f_values must be integers, got 1.5"),
    (dict(n_realizations=1.5), "n_realizations must be an integer >= 1, got 1.5"),
    (dict(master_seed=2.0), "master_seed must be a non-negative integer, got 2.0"),
    (dict(n_workers=1.5), "n_workers must be an integer >= 1, got 1.5"),
    (dict(f_values=()), "f_values must be nonempty"),
    (dict(schemes=()), "schemes must be nonempty"),
    (dict(snr_ap_db=()), "snr_ap_db must be nonempty"),
    (dict(c_nu_values=()), "c_nu_values must be nonempty"),
    (dict(schemes=("zeroforcing",)), "unknown scheme(s) ['zeroforcing']" + UNKNOWN),
    (dict(schemes=("", "")), "unknown scheme(s) ['', '']" + UNKNOWN),  # before the repeat
    (dict(n_realizations=0), "n_realizations must be an integer >= 1, got 0"),
    (dict(n_workers=0), "n_workers must be an integer >= 1, got 0"),
])
def test_sweep_spec_rejects_a_bad_value(values, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        SweepSpec(**{"f_values": (1,), **values})


def test_fig_presets():
    f2 = fig2_sweep(n_realizations=100)
    assert f2.f_values == tuple(range(1, 11))
    assert f2.snr_ap_db == (-15.0, -20.0)
    assert f2.c_nu_values == (5e-18,)
    f3 = fig3_sweep(n_realizations=100)
    assert f3.c_nu_values == (1.58e-17,)


def test_parse_sweep_roundtrip():
    text = "f_values = 1,2,3\nschemes = kalman,direct\nsnr_ap_db = -15,-20\n" \
           "n_realizations = 50\nmaster_seed = 4\n"
    spec = parse_sweep(text)
    assert spec.f_values == (1, 2, 3)
    assert spec.schemes == ("kalman", "direct")
    assert spec.snr_ap_db == (-15.0, -20.0)
    assert spec.n_realizations == 50


def test_parse_sweep_errors():
    with pytest.raises(ConfigError):
        parse_sweep("frames = 1,2")
    with pytest.raises(ConfigError):
        parse_sweep("f_values = one")
    with pytest.raises(ConfigError):
        parse_sweep("n_realizations = 10")  # f_values missing
    with pytest.raises(ConfigError, match="line 3: duplicate key 'n_realizations'"):
        parse_sweep("f_values = 1\nn_realizations = 10\nn_realizations = 20\n")
    with pytest.raises(ConfigError, match="line 2: malformed value for 'master_seed'"):
        parse_sweep("f_values = 1\nmaster_seed = 1.5\n")
    for text, key in (("f_values = 1, 2, 3, 0\n", "f_values"),
                      ("f_values = 1\nsnr_ap_db = -15, nan\n", "snr_ap_db"),
                      ("f_values = 1\nc_nu_values = 5e-18, -1\n", "c_nu_values")):
        with pytest.raises(ConfigError, match=f"^{key} must be "):
            parse_sweep(text)


@pytest.mark.parametrize("key", ["f_values", "schemes", "snr_ap_db", "c_nu_values"])
def test_sweep_spec_rejects_a_repeated_value(key):
    text = {"f_values": "f_values = 1, 3, 1\n",
            "schemes": "f_values = 1\nschemes = ap1_only, kalman, ap1_only\n",
            "snr_ap_db": "f_values = 1\nsnr_ap_db = -15, -20, -15.0\n",
            "c_nu_values": "f_values = 1\nc_nu_values = 5e-18, 5.0e-18\n"}[key]
    with pytest.raises(ConfigError, match=f"^{key} repeats "):
        parse_sweep(text)


def test_cell_seed_ignores_frame_length_and_scheme(params, monkeypatch):
    seeds = {}

    def record(cell, scheme, n_realizations, seed):
        seeds[(cell.c_nu, cell.beta_g, scheme, cell.frame_len)] = seed
        return 1.0, 0.0

    monkeypatch.setattr(experiment, "run_cell", record)
    spec = SweepSpec(f_values=(1, 10), schemes=("kalman", "direct"), snr_ap_db=(-15.0, -20.0),
                     c_nu_values=(5e-18, 1.58e-17), n_realizations=10, master_seed=3)
    run_sweep(spec, params)
    assert len(seeds) == 16
    by_scenario = {}
    for (c_nu, beta_g, _, _), seed in seeds.items():
        by_scenario.setdefault((c_nu, beta_g), set()).add(seed)
    # one seed per (c_nu, SNR), a different one for each of them
    assert all(len(s) == 1 for s in by_scenario.values())
    assert len(set.union(*by_scenario.values())) == 4
    assert cell_seed(3, 0, 0) in seeds.values() and cell_seed(4, 0, 0) not in seeds.values()


def test_op_norms_are_shared_across_frame_length_and_scheme(params, monkeypatch):
    # common random numbers: every synced cell of one (c_nu, SNR) runs on the
    # same op norms, drawn once; the memo is emptied so each cell draws afresh
    seen = []
    simulate = compensation._simulate_chunk

    def spy(geom, chunk_index, n_runs, master_seed, group_starts, op_norm):
        seen.append((geom.scheme, geom.params.frame_len, op_norm))
        compensation._op_norm_memo.clear()
        return simulate(geom, chunk_index, n_runs, master_seed, group_starts, op_norm)

    monkeypatch.setattr(compensation, "_simulate_chunk", spy)
    spec = SweepSpec(f_values=(1, 10), schemes=("kalman", "direct", "ap1_only"),
                     snr_ap_db=(-15.0,), n_realizations=60, master_seed=11)
    run_sweep(spec, params)
    # ap1_only cells start no chunk: AP 1's half of the table is exact
    assert [(scheme, F) for scheme, F, _ in seen] == \
        [("kalman", 1), ("kalman", 10), ("direct", 1), ("direct", 10)]
    first = seen[0][2]
    assert all(op.tobytes() == first.tobytes() for _, _, op in seen)


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


def test_sweep_determinism(params):
    spec = SweepSpec(f_values=(1,), schemes=("kalman",), snr_ap_db=(-15.0,),
                     n_realizations=300, master_seed=5)
    a = emit_csv(run_sweep(spec, params))
    b = emit_csv(run_sweep(spec, params))
    assert _strip_wall_time(a) == _strip_wall_time(b)


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
    calls = []
    for name in ("build_frame_schedule", "build_ap1_only_schedule"):
        def counted(p, _build=getattr(compensation, name)):
            calls.append(p)
            return _build(p)
        monkeypatch.setattr(compensation, name, counted)
    run_cell(params, scheme, 30, 4)
    assert len(calls) == 1


@pytest.mark.parametrize("n", [2, 500, 1100])
def test_stderr_groups_are_consecutive_runs(n, params):
    # min(10, n) groups of consecutive runs, sizes differing by at most one,
    # so the stderr is finite below one chunk (1024 runs); with one run per
    # group it is NaN, as every group's |E[Delta]| is the position's weight
    stats = monte_carlo_delta(params, "ap1_only", n, 8)
    assert stats.group_counts.sum() == n and len(stats.group_counts) == min(10, n)
    assert np.ptp(stats.group_counts) <= 1
    weighted = np.tensordot(stats.group_counts, stats.group_means, axes=1) / n
    assert np.allclose(weighted, stats.mean_delta, rtol=0.0, atol=1e-12)
    se, stderr = run_cell(params, "ap1_only", n, 8)
    if n < 2 * N_GROUPS:
        assert math.isnan(stderr)
    else:
        assert math.isfinite(stderr) and 0 <= stderr < 0.1


@pytest.mark.parametrize("noise", [0.0, 0.04])
def test_ap1_only_stderr_is_exactly_zero(noise, params):
    # AP 1's table is exact, so every batch-mean group agrees bit for bit;
    # below 20 runs a group holds one run and the stderr stays NaN
    p = dataclasses.replace(params, ue_pilot_noise_var=noise)
    for n in (20, 1100):
        rows = run_sweep(SweepSpec(f_values=tuple(range(1, 11)), schemes=("ap1_only",),
                                   n_realizations=n, master_seed=5), p)
        assert [r.se_stderr for r in rows] == [0.0] * 10
    assert all(math.isnan(r.se_stderr) for r in run_sweep(
        SweepSpec(f_values=(1, 10), schemes=("ap1_only",), n_realizations=19), p))


@pytest.mark.parametrize("scheme, snr_db, frame_len", [("kalman", -15.0, 2),
                                                       ("direct", -20.0, 1)])
def test_stderr_is_calibrated(scheme, snr_db, frame_len):
    # the batch-means stderr against the spread of se_mean over 40 seeds; the
    # sd of 40 draws is itself uncertain by about 11%, hence the wide band
    p = default_params(frame_len=frame_len).with_snr_ap_db(snr_db)
    cells = np.array([run_cell(p, scheme, 1100, seed) for seed in range(9000, 9040)])
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
    assert _strip_wall_time(a.read_text()) == _strip_wall_time(b.read_text())


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


def test_cli_usage_error():
    assert cli_main(["--no-such-flag"]) == 1
    assert cli_main(["--fig2", "--fig3"]) == 1
    for preset in ("--fig2", "--fig3"):   # one sweep: a preset or a sweep file
        assert cli_main([preset, "--sweep", "s.cfg"]) == 1
    assert cli_main(["--workers", "2"]) == 1  # chunks run in one process
    for dump in ("--dump-plan", "--dump-trace"):   # a dump mode runs no sweep
        for sweep in (["--sweep", "missing.cfg"], ["--fig2"], ["--fig3"], ["--realizations", "5"]):
            assert cli_main([dump] + sweep) == 1
    assert cli_main(["--dump-plan", "--dump-trace"]) == 1
    for argv in (["--dump-plan"], ["--realizations", "20"], ["--fig2"], []):
        assert cli_main(argv + ["--trace-frames", "7"]) == 1   # only a trace reads it
    assert cli_main(["--dump-plan", "--seed", "5"]) == 1       # a plan draws nothing


def test_cli_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    for line in ("tau_p = 7", "beta_ue = nan", "eta = nan", "ue_pilot_noise_var = inf",
                 "n_ues = 0", "n_ues = -2", "rho_ue = 4000 dB"):
        cfg.write_text(line + "\n")
        assert cli_main(["--config", str(cfg), "--out", os.devnull]) == 2
    cfg.write_bytes(b"n_ues = 4\xff\n")
    assert cli_main(["--config", str(cfg), "--out", os.devnull]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 8 and all(e.startswith("otasync: invalid config: ") for e in errors)
    assert errors[4:6] == [f"otasync: invalid config: n_ues must be a positive integer, got {k}"
                           for k in (0, -2)]
    assert errors[6] == "otasync: invalid config: line 1: malformed value for 'rho_ue' " \
                        "(4000 dB is out of range)"
    assert "'utf-8' codec can't decode byte 0xff" in errors[7]
    assert cli_main(["--config", str(tmp_path / "missing.cfg")]) == 2


@pytest.mark.parametrize("argv", [
    ["--dump-plan", "--scheme", "bogus"],
    ["--dump-plan", "--scheme", "ap1_only,bogus"],
    ["--dump-plan", "--scheme", "kalman,direct"],
    ["--dump-trace", "--scheme", "ap1_only"],
    ["--realizations", "0"],
    ["--dump-trace", "--trace-frames", "0"],
    ["--dump-trace", "--trace-frames", "-3"],
    ["--dump-trace", "--scheme", "bogus"],
    ["--dump-trace", "--scheme", ""],
    ["--dump-plan", "--scheme", ""],
    ["--realizations", "10", "--scheme", ""],
    ["--fig2", "--scheme", ""],
    ["--realizations", "10", "--scheme", ","],
])
def test_cli_bad_run_options(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert cli_main(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    if argv[:2] == ["--dump-trace", "--scheme"]:
        assert err == f"otasync: cannot trace scheme {argv[2]!r}; " \
                      "expected one of ('kalman', 'direct')\n"
    elif "--scheme" in argv and argv[0] != "--dump-plan":   # blank: unknown, not repeated
        assert err.startswith("otasync: unknown scheme(s) ['")


@pytest.mark.parametrize("exc", [MemoryError("cannot allocate G"), RuntimeError("boom")])
def test_cli_runtime_failure_exits_2(exc, tmp_path, monkeypatch, capsys):
    def fail(spec, params):
        raise exc
    monkeypatch.setattr("otasync.cli.run_sweep", fail)
    out = tmp_path / "out.csv"
    assert cli_main(["--realizations", "10", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"otasync: {type(exc).__name__}: {exc}\n"
    assert not out.exists()


def test_cli_rejects_a_negative_seed(tmp_path, capsys):
    sw = tmp_path / "neg.sweep"
    sw.write_text("f_values = 1\nmaster_seed = -3\n")
    for argv in (["--seed", "-1", "--realizations", "10"], ["--sweep", str(sw)],
                 ["--dump-trace", "--seed", "-1"]):
        assert cli_main(argv + ["--out", os.devnull]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "otasync: master_seed must be a non-negative integer, got -1",
        f"otasync: invalid sweep file {sw}: master_seed must be a non-negative integer, got -3",
        "otasync: master_seed must be a non-negative integer, got -1"]


def test_cli_bad_sweep(tmp_path, capsys):
    sw = tmp_path / "bad.sweep"
    for text in ("schemes = zf\nf_values = 1\n",
                 "f_values = 1\nn_realizations = 10\nn_realizations = 20\n"):
        sw.write_text(text)
        assert cli_main(["--sweep", str(sw), "--out", os.devnull]) == 2
    sw.write_bytes(b"f_values = 1\xff\n")
    assert cli_main(["--sweep", str(sw), "--out", os.devnull]) == 2
    # one line naming the file for each, as a config file gets
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 3 and all(e.startswith(f"otasync: invalid sweep file {sw}: ")
                                    for e in errors)
    assert errors[1].endswith("line 3: duplicate key 'n_realizations'")
    assert "'utf-8' codec can't decode byte 0xff" in errors[2]


def test_cli_rejects_a_bad_sweep_value_before_any_cell(tmp_path, capsys, monkeypatch):
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(experiment, "run_cell", no_cell)
    sw = tmp_path / "bad.sweep"
    out = tmp_path / "out.csv"
    for text in ("f_values = 1, 2, 3, 0\n", "f_values = 1\nsnr_ap_db = -15, nan\n",
                 "f_values = 1\nc_nu_values = 5e-18, -1\n",
                 # valid in the file, out of range once a cell's params are built
                 "f_values = 1\nsnr_ap_db = -15, 4000\n", "f_values = 1\nsnr_ap_db = -15, -4000\n",
                 "f_values = 1\nc_nu_values = 5e-18, 1e300\n"):
        sw.write_text(text)
        assert cli_main(["--sweep", str(sw), "--out", str(out)]) == 2
        assert not out.exists()
    assert capsys.readouterr().err.splitlines() == [
        f"otasync: invalid sweep file {sw}: f_values must be positive, got 0",
        f"otasync: invalid sweep file {sw}: snr_ap_db must be finite, got nan",
        f"otasync: invalid sweep file {sw}: c_nu_values must be nonnegative and finite, got -1.0",
        "otasync: cell c_nu = 5e-18, snr_ap_db = 4000, F = 1: 4000 dB is out of range",
        "otasync: cell c_nu = 5e-18, snr_ap_db = -4000, F = 1: "
        "beta_g must be positive and finite, got 0.0",
        "otasync: cell c_nu = 1e+300, snr_ap_db = -15, F = 1: "
        "sigma_nu^2 is not finite for f_c=2000000000.0, c_nu=1e+300"]


def test_cli_dump_plan(tmp_path):
    out = tmp_path / "plan.csv"
    assert cli_main(["--dump-plan", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,ap1_label,ap2_label,a1,a2"
    assert len(lines) == 101


def test_cli_dump_trace(tmp_path):
    out = tmp_path / "trace.csv"
    assert cli_main(["--dump-trace", "--trace-frames", "25", "--seed", "2",
                     "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,obs,alpha_hat,p_var,kappa,alpha_true"
    assert len(lines) == 26
    # --scheme direct passes every measurement through: gain 1, output = obs
    assert cli_main(["--dump-trace", "--trace-frames", "25", "--seed", "2",
                     "--scheme", "direct", "--out", str(out)]) == 0
    direct = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
    assert all(r[1] == r[2] and r[4] == "1.0" for r in direct)
    assert [r[2] for r in direct] != [ln.split(",")[2] for ln in lines[1:]]  # not kalman


def test_fig2_preset_row_grid(tmp_path):
    # 2 synced schemes x 2 SNRs x F=1..10 plus the SNR-independent baseline
    out = tmp_path / "fig2.csv"
    assert cli_main(["--fig2", "--realizations", "20", "--out", str(out)]) == 0
    rows = parse_result_csv(out.read_text())
    assert len(rows) == 50
    assert sum(r.scheme == "ap1_only" for r in rows) == 10
    assert sum(r.scheme == "kalman" for r in rows) == 20
