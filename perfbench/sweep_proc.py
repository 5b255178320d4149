"""One sweep in a fresh process, through otasync's public entry point.

    python3 perfbench/sweep_proc.py RESULT_JSON SPOOL_DIR|- -- OTASYNC_ARGS...

Runs otasync.cli.cli_main(OTASYNC_ARGS) and writes RESULT_JSON with its exit
code, the wall time of the call, the peak resident set of this process and
of its waited-for children (the pool workers), and the environment. With a
SPOOL_DIR it traces the layers first (see tracer.py) and adds their metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from env import process_record  # noqa: E402


def main(argv) -> int:
    result_path, spool, sep, *cli_args = argv
    if sep != "--":
        print(__doc__, file=sys.stderr)
        return 1
    import otasync.cli

    tracer = None
    cli_main = otasync.cli.cli_main
    if spool != "-":
        from tracer import Tracer
        tracer = Tracer(Path(spool))
        tracer.install()
        cli_main = tracer.span("cli.cli_main", cli_main)

    result = {"env": process_record()}
    t0 = perf_counter()
    try:
        result["rc"] = cli_main(cli_args)
    except Exception:   # reported as a failed sweep; the benchmark keeps going
        result["rc"] = None
        result["error"] = traceback.format_exc()
    result["sweep_s"] = perf_counter() - t0
    result["maxrss_kib"] = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if tracer is not None:
        from tracer import layer_metrics
        result["layers"] = layer_metrics(*tracer.collect())
    Path(result_path).write_text(json.dumps(result))
    return 0 if result["rc"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
