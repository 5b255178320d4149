"""otasync benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each sweep runs in a fresh process through
otasync.cli.cli_main with a config file and a sweep file generated from the
seed (see workloads.py), BLAS pinned to one thread. A run makes
round(S / the workload's nominal sweep time) sweeps, at least one (two with
--trace 1). Every output cell is checked against references.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced sweep with --trace 1 (that run alternates
untraced and traced sweeps, so the tracing overhead is measured too). The
lines before it give the environment, the tail percentile and sample count,
failed_cells_frac and any failed cell. See README.md for every definition.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from env import git_commit, pinned_env, source_digest  # noqa: E402
from workloads import WORKLOADS, cell_key  # noqa: E402

RUN_DEADLINE_S = 170     # the whole run must end within 180 s
SETUP_REPEATS = 30
PLAN_ROWS = 100          # frame_len 1 x tau_c 100: no workload config sets either
Z_BOUND = 6.0            # cell check: |se - reference| <= Z_BOUND combined sd
CSV_COLUMNS = "scheme,frame_len,snr_ap_db,c_nu,se_mean,se_stderr,n_realizations,wall_time_s"
# paper gates (tests/test_acceptance.py) checked when a workload holds the cell
GATES = {"kalman/F2/-15": ("C9", 1.2517, 0.10)}


def run_child(cmd, env, timeout):
    """Run cmd in its own process group; on timeout kill the whole group.
    Returns (exit code or None on timeout, stderr text, seconds)."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(timeout, 1.0))
        return proc.returncode, err, perf_counter() - t0
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
        return None, err, perf_counter() - t0


def measure_setup(cfg: Path, work: Path, env, count: int, deadline: float):
    """Time `count` fresh `otasync --config CFG --dump-plan` processes and
    check each plan. Returns (seconds list, failures)."""
    plan = work / "plan.csv"
    times, failures = [], 0
    for _ in range(count):
        plan.unlink(missing_ok=True)
        rc, err, secs = run_child([sys.executable, "-m", "otasync.cli", "--config", str(cfg),
                                   "--dump-plan", "--out", str(plan)],
                                  env, deadline - perf_counter())
        lines = plan.read_text().splitlines() if plan.exists() else []
        if rc != 0 or not lines or lines[0] != "n,ap1_label,ap2_label,a1,a2" \
                or len(lines) != PLAN_ROWS + 1:
            failures += 1
            print(f"setup run failed (rc {rc}): {err.strip()[-500:]}")
        else:
            times.append(secs)
    return times, failures


def parse_rows(text: str):
    """Result rows as dicts; none when the CSV is malformed (every cell fails)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_COLUMNS:
        return []
    rows = []
    try:
        for ln in lines[1:]:
            f = ln.split(",")
            rows.append(dict(scheme=f[0], frame_len=int(f[1]), snr_ap_db=float(f[2]),
                             se_mean=float(f[4]), se_stderr=float(f[5]),
                             n_realizations=int(f[6]), wall_time_s=float(f[7])))
    except (IndexError, ValueError):
        return []
    return rows


def check_cells(workload, rows, refs):
    """Compare each expected cell with its reference. Returns the list of
    problems (one per failed cell) and the per-cell wall times."""
    expected = [cell_key(*c) for c in workload.cells()]
    got = {cell_key(r["scheme"], r["frame_len"], r["snr_ap_db"]): r for r in rows}
    problems, times = [], []
    n_ref, n_seeds = refs["n_ref"], len(refs["master_seeds"])
    for key in expected:
        r = got.get(key)
        if r is None:
            problems.append(f"{key}: missing")
            continue
        times.append(r["wall_time_s"])
        ref = refs["workloads"][workload.name][key]
        n = r["n_realizations"]
        sd = math.hypot(ref["sd_at_n_ref"] * math.sqrt(n_ref / n),
                        ref["sd_at_n_ref"] / math.sqrt(n_seeds))
        if n != workload.n_realizations:
            problems.append(f"{key}: n_realizations {n}")
        elif not (math.isfinite(r["se_mean"]) and math.isfinite(r["se_stderr"])):
            problems.append(f"{key}: se_mean {r['se_mean']} se_stderr {r['se_stderr']}")
        elif abs(r["se_mean"] - ref["se"]) > Z_BOUND * sd:
            problems.append(f"{key}: se {r['se_mean']:.6g} vs reference {ref['se']:.6g} "
                            f"(z = {(r['se_mean'] - ref['se']) / sd:+.1f})")
        elif key in GATES:
            gate, target, tol = GATES[key]
            if abs(r["se_mean"] - target) > tol:
                problems.append(f"{key}: {gate} gate, se {r['se_mean']:.4f} vs "
                                f"{target} +- {tol}")
    if len(rows) != len(expected):
        problems.append(f"{len(rows)} rows, expected {len(expected)}")
    return problems, times


def tail(values):
    """(value, percentile): the highest nearest-rank percentile with at least
    ten samples beyond it; the maximum when that percentile would not lie
    above the median (fewer than 21 samples)."""
    xs = sorted(values)
    j = len(xs) - 11 if len(xs) >= 21 else len(xs) - 1
    return xs[j], 100.0 * (j + 1) / len(xs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = perf_counter()

    if not (ROOT / "src" / "otasync" / "cli.py").is_file():
        print(f"otasync sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    refs = json.loads((HERE / "references.json").read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    env = pinned_env(ROOT)
    work = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return bench(args, spec, workload, refs, env, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def bench(args, spec, workload, refs, env, work, started) -> int:
    deadline = started + RUN_DEADLINE_S
    cells = workload.cells()
    sweeps, problems, cell_times = [], [], []
    n_sweeps = max(1, round(args.seconds / workload.nominal_sweep_s))
    if args.trace:
        n_sweeps = max(2, n_sweeps)
    # setup samples spread over the run (before each sweep and after the
    # last) so they see the same machine as the sweeps
    slots = [SETUP_REPEATS // (n_sweeps + 1) + (k < SETUP_REPEATS % (n_sweeps + 1))
             for k in range(n_sweeps + 1)]
    setup_times, setup_failed, setup_runs = [], 0, 0

    def setup(cfg, count):
        nonlocal setup_failed, setup_runs
        times, failures = measure_setup(cfg, work, env, count, deadline)
        setup_failed += failures
        setup_runs += count
        return times

    proc_env = None
    for i in range(n_sweeps):
        rng = random.Random(f"{workload.name}:{args.seed}:{i}")
        master_seed = rng.randrange(1, 2 ** 31)
        cfg, sweep, out = work / f"sys{i}.cfg", work / f"sweep{i}.cfg", work / f"out{i}.csv"
        cfg.write_text(workload.config_text(rng))
        sweep.write_text(workload.sweep_text(master_seed))
        if i == 0:      # untimed warm-up: byte-compile, fill the page cache
            setup(cfg, 1)
        setup_times += setup(cfg, slots[i])
        traced = bool(args.trace) and i % 2 == 1
        spool = work / f"spool{i}"
        spool.mkdir()
        result_path = work / f"result{i}.json"
        rc, err, secs = run_child(
            [sys.executable, str(HERE / "sweep_proc.py"), str(result_path),
             str(spool) if traced else "-", "--",
             "--config", str(cfg), "--sweep", str(sweep), "--out", str(out)],
            env, deadline - perf_counter())
        result = json.loads(result_path.read_text()) if result_path.exists() else {}
        rows = parse_rows(out.read_text()) if out.exists() else []
        if rc == 0 and result.get("rc") == 0:
            bad, times = check_cells(workload, rows, refs)
        else:
            bad, times = [f"sweep exit {rc}: {result.get('error') or err.strip()[-500:]}"], []
            bad += [f"{cell_key(*c)}: not run" for c in cells]
        problems += [f"sweep {i} (master_seed {master_seed}): {p}" for p in bad]
        sweeps.append(dict(traced=traced, failed=min(len(bad), len(cells)), **result))
        if not traced:
            cell_times += times
        proc_env = result.get("env", proc_env)
        if rc is None or "sweep_s" not in result or deadline - perf_counter() < 1.5 * secs:
            break
    setup_times += setup(cfg, slots[-1])

    attempted_cells = len(cells) * len(sweeps)
    failed_cells = sum(s["failed"] for s in sweeps)
    print(json.dumps({"environment": dict(proc_env or {}, seed=args.seed,
                                          workload=workload.name,
                                          git_commit=git_commit(ROOT),
                                          src_sha256=source_digest(ROOT))}))
    for p in problems:
        print(f"FAILED {p}")

    plain = [s for s in sweeps if not s["traced"] and s.get("rc") == 0]
    traced = [s for s in sweeps if s["traced"] and s.get("rc") == 0]
    metrics = {}
    if plain and cell_times and setup_times:
        sweep_s = statistics.median(s["sweep_s"] for s in plain)
        tail_s, tail_pct = tail(cell_times)
        values = {
            "sweep_s": sweep_s,
            "realizations_per_s": len(cells) * workload.n_realizations / sweep_s,
            "cell_s_p50": statistics.median(cell_times),
            "cell_s_tail": tail_s,
            "peak_rss_mb": statistics.median(s["maxrss_kib"] for s in plain) / 1024.0,
            "setup_s": statistics.median(setup_times),
        }
        print("sweep_s per sweep: " + " ".join(f"{s['sweep_s']:.3f}" for s in sweeps
                                               if "sweep_s" in s))
        print(f"sweeps {len(plain)} untraced, {len(traced)} traced; cells pooled "
              f"{len(cell_times)}; cell_s_tail is p{tail_pct:.1f}; setup samples "
              f"{len(setup_times)}; failed_cells_frac {failed_cells / attempted_cells:.6g}")
        if args.trace and traced:
            layers = {k: statistics.fmean(s["layers"][k] for s in traced)
                      for k in traced[0]["layers"]}
            traced_s = statistics.median(s["sweep_s"] for s in traced)
            layers["tracing.overhead_s"] = traced_s - sweep_s
            layers["tracing.overhead_frac"] = (traced_s - sweep_s) / sweep_s
            metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                       for m in spec["per_layer"]}
        elif not args.trace:
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
        for m in spec["end_to_end"]:
            print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}")
    if not metrics:
        print("no complete sweep: no metrics", file=sys.stderr)
        return 1
    failed = failed_cells + setup_failed
    print(json.dumps({"correct": failed == 0, "attempted": attempted_cells + setup_runs,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
