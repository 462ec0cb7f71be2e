#!/usr/bin/env python3
"""One-shot timing report of the tier-1 test suite.

Usage, from the root of a checkout:

    python3 perfbench/tier1_timing.py

Runs ``python -m pytest -q --durations=10`` on the repo's tests with
``src`` on the path, once, and writes ``perfbench/results/tier1_timing.json``
with the suite's wall time, its outcome counts and its ten slowest tests.
The run uses ``-p no:cacheprovider`` and no bytecode cache, so it writes
nothing into the checkout besides the report.  It is separate from the
workload runs of ``run.py``.
"""

import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "results" / "tier1_timing.json"

DURATION = re.compile(r"^\s*([0-9.]+)s\s+(call|setup|teardown)\s+(\S+)")
OUTCOME = re.compile(r"(\d+) (passed|failed|error|errors|skipped|xfailed|xpassed|deselected)")


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "--continue-on-collection-errors", "--durations=10"]
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    wall_s = perf_counter() - t0
    lines = proc.stdout.splitlines()
    slowest = [
        {"seconds": float(m.group(1)), "phase": m.group(2), "test": m.group(3)}
        for m in map(DURATION.match, lines) if m
    ]
    summary = lines[-1] if lines else ""
    import numpy

    report = {
        "command": " ".join(["PYTHONPATH=src", "python"] + cmd[1:]),
        "exit_code": proc.returncode,
        "wall_s": wall_s,
        "outcomes": {kind: int(n) for n, kind in OUTCOME.findall(summary)},
        "summary": summary,
        "slowest": slowest,
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
    }
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
