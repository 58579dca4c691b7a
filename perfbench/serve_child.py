"""Server process for the serve-analyze workload.

Runs ``claudette.cli.main(["serve", ...])`` on a free port, pinned to the
core ``--cpu`` and watched by a contention probe (see ``probe.py``).  With
``--trace-out`` the span wrappers are installed in this process before the
server is built.  SIGTERM stops the server; on the way out the process writes
its own peak RSS and the probe's samples (and the spans, when tracing) to
``--stats-out``.

Usage: python3 perfbench/serve_child.py --model M --cpu N --stats-out F [--trace-out T]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _stop(_signum, _frame) -> None:
    raise KeyboardInterrupt  # serve() treats this as a clean shutdown


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--model", required=True)
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--stats-out", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    from claudette import cli
    from probe import ContentionProbe

    # the handler threads inherit the core, so the probe watches theirs
    os.sched_setaffinity(0, {args.cpu})
    tracer = None
    if args.trace_out:
        from spans import SERVE_TARGETS, Tracer

        tracer = Tracer()
        tracer.install(SERVE_TARGETS)
    signal.signal(signal.SIGTERM, _stop)
    probe = ContentionProbe()
    with probe.watching():
        code = cli.main(["serve", "--model", args.model, "--port", "0"])
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(Path(args.trace_out))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(args.stats_out).write_text(
        json.dumps({"exit": code, "peak_rss_kb": peak_kb, "probe": probe.samples})
    )
    return code


if __name__ == "__main__":
    raise SystemExit(main())
