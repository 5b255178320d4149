"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 runtime error (bad config/sweep file,
I/O failure, simulation error).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .compensation import SCHEMES, build_plan, dump_trace_csv, run_phase_trace
from .config import ConfigError, default_params, load_config_file
from .experiment import DEFAULT_SWEEP, SweepSpec, emit_csv, fig2_sweep, fig3_sweep, \
    parse_sweep, run_sweep


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otasync",
        description="Link-level simulator for over-the-air phase synchronization "
                    "between two distributed antenna arrays; writes per-cell "
                    "spectral-efficiency results as CSV.")
    parser.add_argument("--config", metavar="PATH",
                        help="key=value system-parameter file (defaults used if omitted)")
    parser.add_argument("--out", metavar="PATH",
                        help="output CSV path (standard output if omitted)")
    parser.add_argument("--seed", type=int, metavar="INT",
                        help="master seed (overrides the sweep file)")
    parser.add_argument("--scheme", metavar="LIST",
                        help="comma-separated subset of: " + ",".join(SCHEMES))
    parser.add_argument("--realizations", type=int, metavar="INT",
                        help="Monte Carlo runs per cell (overrides the sweep file)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--sweep", metavar="PATH",
                      help="key=value sweep-specification file")
    mode.add_argument("--fig2", action="store_true",
                      help="preset sweep: c_nu=5e-18, SNR_AP in {-15,-20} dB, F=1..10")
    mode.add_argument("--fig3", action="store_true",
                      help="preset sweep: c_nu=1.58e-17, SNR_AP in {-15,-20} dB, F=1..10")
    mode.add_argument("--dump-plan", action="store_true",
                      help="write the per-sample activity plan instead of running a sweep")
    mode.add_argument("--dump-trace", action="store_true",
                      help="write a single-run tracker trace instead of running a sweep")
    parser.add_argument("--trace-frames", type=int, metavar="INT",
                        help="frames in the --dump-trace output (default 200)")
    return parser


def _write(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_sweep(args) -> SweepSpec:
    if args.fig2:
        spec = fig2_sweep()
    elif args.fig3:
        spec = fig3_sweep()
    elif args.sweep:
        try:
            with open(args.sweep, "r", encoding="utf-8") as fh:
                spec = parse_sweep(fh.read())
        except (ConfigError, UnicodeDecodeError) as exc:
            raise ConfigError(f"invalid sweep file {args.sweep}: {exc}") from exc
    else:
        spec = DEFAULT_SWEEP
    updates = {}
    if args.seed is not None:
        updates["master_seed"] = args.seed
    if args.realizations is not None:
        updates["n_realizations"] = args.realizations
    if args.scheme is not None:
        updates["schemes"] = tuple(s.strip() for s in args.scheme.split(","))
    return replace(spec, **updates)


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if (args.dump_plan or args.dump_trace) and args.realizations is not None:
            parser.error("--realizations applies only to a sweep")
        if args.trace_frames is not None and not args.dump_trace:
            parser.error("--trace-frames applies only to --dump-trace")
        if args.dump_plan and args.seed is not None:
            parser.error("--seed does not apply to --dump-plan")
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    try:
        params = load_config_file(args.config) if args.config else default_params()
    except (ConfigError, UnicodeDecodeError) as exc:
        print(f"otasync: invalid config: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"otasync: cannot read config: {exc}", file=sys.stderr)
        return 2

    try:
        # --dump-plan/--dump-trace take one scheme
        scheme = "kalman" if args.scheme is None else args.scheme
        if args.dump_plan:
            _write(build_plan(params, scheme).dump_csv(), args.out)
            return 0
        if args.dump_trace:
            seed = args.seed if args.seed is not None else 1
            n_frames = args.trace_frames if args.trace_frames is not None else 200
            rows = run_phase_trace(params, n_frames, seed, scheme)
            _write(dump_trace_csv(rows), args.out)
            return 0
        spec = _resolve_sweep(args)
        rows = run_sweep(spec, params)
        _write(emit_csv(rows), args.out)
        return 0
    except ConfigError as exc:
        print(f"otasync: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"otasync: I/O failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # e.g. MemoryError allocating a chunk's draws
        print(f"otasync: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
