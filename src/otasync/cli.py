"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 runtime error (bad config/sweep file,
I/O failure, simulation error).
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from dataclasses import replace

from .compensation import SCHEMES, build_plan, dump_trace_csv, run_phase_trace
from .config import ConfigError, default_params, load_config_file
from .experiment import _SWEEP_KEYS, DEFAULT_SWEEP, FIG2, FIG3, SweepSpec, emit_csv, \
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
                        help="comma-separated subset of: " + ",".join(SCHEMES)
                        + " (--dump-plan and --dump-trace take one; default kalman)")
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


def _claim(out_path):
    """Check --out before any work runs: create the empty temp file, beside
    the path's target (a symlink is followed), that _write renames onto it
    once the output is complete. A missing directory, or a directory at the
    path, raises an OSError that names the path. Returns the temp file's path,
    or None for a path that exists and is no regular file, such as
    /dev/stdout, which _write opens in place."""
    if os.path.isdir(out_path):
        raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), out_path)
    if os.path.exists(out_path) and not os.path.isfile(out_path):
        return None
    tmp = f"{os.path.realpath(out_path)}.{os.getpid()}.tmp"
    try:
        os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, out_path) from None
    return tmp


def _write(text: str, out_path, tmp):
    if not out_path:
        sys.stdout.write(text)
        return
    with open(tmp or out_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    if tmp:
        os.replace(tmp, os.path.realpath(out_path))


def _resolve_sweep(args, schemes) -> SweepSpec:
    if args.fig2:
        spec = FIG2
    elif args.fig3:
        spec = FIG3
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
    if schemes is not None:
        updates["schemes"] = schemes
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
    except Exception as exc:  # e.g. MemoryError allocating its (K, 2) tables
        print(f"otasync: cannot load config: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    tmp = None
    try:
        tmp = _claim(args.out) if args.out else None
        # one parse for every mode: the sweep file's rule for its schemes line
        schemes = None if args.scheme is None else _SWEEP_KEYS["schemes"](args.scheme)
        if args.dump_plan or args.dump_trace:
            if schemes is not None and len(schemes) > 1:
                mode = "--dump-plan" if args.dump_plan else "--dump-trace"
                raise ConfigError(f"{mode} takes one scheme, got {args.scheme!r}")
            (scheme,) = schemes or ("kalman",)
        if args.dump_plan:
            text = build_plan(params, scheme).dump_csv()
        elif args.dump_trace:
            seed = args.seed if args.seed is not None else 1
            n_frames = args.trace_frames if args.trace_frames is not None else 200
            text = dump_trace_csv(run_phase_trace(params, n_frames, seed, scheme))
        else:
            text = emit_csv(run_sweep(_resolve_sweep(args, schemes), params))
        _write(text, args.out, tmp)
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
    finally:   # a run that fails leaves the path as it was
        if tmp and os.path.lexists(tmp):
            os.remove(tmp)


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
