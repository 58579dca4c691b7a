"""Run every workload on seeds 1..N and report each end-to-end metric's
median and run-to-run spread (interquartile range over median), next to the
bound in BENCHMARK.json.  A spread above the bound, or above a third of it,
is flagged.

    python3 perfbench/prove.py [--seeds 10] [--workloads loo-chain,...] [--out FILE] [--compare FILE]

``--out`` writes the medians, every value, the machine info and each
metric's unit and direction as a baseline record.  ``--compare`` checks this
set against such a record: a median worse than the recorded one by more than
the metric's bound is flagged.  Runs are sequential, one ``run.py`` process
at a time.  The exit code is 1 if a run failed, a check failed, a spread is
above its bound or a median is worse than the recorded one by more than it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_by(metric: dict, median: float, before: float) -> float:
    """How much worse ``median`` is than ``before``, as a share of ``before``."""
    change = (median - before) / before if before else 0.0
    return change if metric["better"] == "lower" else -change


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args()

    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    seeds = list(range(1, args.seeds + 1))
    before = json.loads(Path(args.compare).read_text())["workloads"] if args.compare else {}
    record: dict = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
        walls = []
        for seed in seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            walls.append(time.perf_counter() - t0)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            summary = json.loads(lines[-2])
            record["machine"] = summary["machine"]
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']} "
                      f"problems={summary['problems']}")
                ok = False
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {len(walls)} runs, wall per run max {max(walls):.1f} s, "
              f"median {statistics.median(walls):.1f} s", flush=True)
        rows = {}
        for m in metrics:
            vals = values[m["name"]]
            if len(vals) < 2:
                continue
            row = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                   "median": statistics.median(vals), "spread": spread(vals), "values": vals}
            rows[m["name"]] = row
            flags = []
            if row["spread"] > m["bound"]:
                flags.append("spread above the bound")
            elif row["spread"] > m["bound"] / 3:
                flags.append("spread above bound/3")
            note = ""
            old = before.get(workload, {}).get(m["name"])
            if old is not None:
                change = worse_by(m, row["median"], old["median"])
                note = f"  (worse by {change:+.3f} than the recorded {old['median']:.6g})"
                if change > m["bound"]:
                    flags.append("worse than recorded by more than the bound")
            ok = ok and not [f for f in flags if f != "spread above bound/3"]
            print(f"  {m['name']:<12} median {row['median']:<12.6g} {m['unit']:<6} "
                  f"spread {row['spread']:.3f} bound {m['bound']}{note}"
                  + "".join(f"  <-- {f}" for f in flags)
                  + "  [" + " ".join(f"{v:.4g}" for v in vals) + "]", flush=True)
        record["workloads"][workload] = rows
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
