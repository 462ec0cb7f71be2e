#!/usr/bin/env python3
"""Run the benchmark over many seeds and summarise each end-to-end metric.

Usage, from the root of a checkout:

    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/results/baseline.json

For every workload of BENCHMARK.json and every seed, runs
``perfbench/run.py --trace 0`` once for BENCHMARK.json's ``run_seconds``,
one run at a time.  Per metric it reports the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median,
which must stay within the metric's bound; the exit code is 1 if any
spread does not, or any run is not correct.  Compare two commits by
running the same seeds on each.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    seconds = SPEC["run_seconds"]
    summary = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        values = {name: [] for name in bounds}
        correct = []
        for seed in args.seeds:
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            summary["env"] = json.loads(lines[-2])["report"]["env"]
            correct.append(result["correct"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(workload, seed, {k: round(v[-1], 6) for k, v in values.items()}, flush=True)
        stats = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            stats[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                           "bound": bounds[name], "values": vals}
            if spread > bounds[name]:
                ok = False
        ok = ok and all(correct)
        summary["workloads"][workload] = {"all_correct": all(correct), "metrics": stats}
        for name, st in stats.items():
            print(f"{workload:13s} {name:13s} median {st['median']:.6g}  spread {st['spread']:.4f}"
                  f"  bound {st['bound']}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
