#!/usr/bin/env python3
"""coherentlab benchmark: one workload per process, closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ring_drain --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py``): ring_drain, born_sweep, select_chain,
veto_stream.  The next op starts when the previous one returns.  The
package is imported from ``src/`` of the checkout and nowhere else.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced cycles: the per-layer
metrics come from the traced cycles, and traced over untraced throughput
is reported as ``trace.overhead_ratio``.  Spans are written to
``.perfbench_out/trace-<workload>.npz`` after the run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is a JSON ``report`` with the environment, sample counts, the tail
percentile and the sha256 of every artifact.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread per process: no workload may run more threads
# than nproc (born_sweep's own pool is sized to nproc).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-ups timed per run for setup_s (each in a fresh process).
SETUP_REPEATS = 15

#: Probe time that defines reference machine speed, in seconds.
REFERENCE_PROBE_S = 1e-3

#: Op latencies kept per run (a uniform sample once more ops have run).
LATENCY_SAMPLES = 1 << 16


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ring_drain", "born_sweep", "select_chain", "veto_stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="do the workload set-up, print 'ready' and exit (times setup_s)")
    return parser.parse_args(argv)


def import_package() -> float:
    """Import coherentlab from the checkout's src/; returns the import time in ms."""
    if not (SRC / "coherentlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no coherentlab package under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import coherentlab

    import_ms = (perf_counter() - t0) * 1e3
    if Path(coherentlab.__file__).resolve().parent != SRC / "coherentlab":
        raise SystemExit(f"error: coherentlab imported from {coherentlab.__file__}, not {SRC}")
    return import_ms


def enter_workdir(workload: str) -> Path:
    """A private directory for generated configs and CLI outputs.

    Paths given to the CLI are relative to it, so the echoed configs, and
    hence the artifact hashes, do not depend on where the checkout lives.
    """
    path = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    path.mkdir(parents=True)
    os.chdir(path)
    return path


def leave_workdir(path: Path) -> None:
    os.chdir(ROOT)
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass


class SpeedProbe:
    """Machine-speed probe, run between groups of ops outside the timed ops.

    The virtual machines this benchmark runs on change speed by up to 2x
    within seconds (other tenants of the host), which moves every
    wall-clock figure alike.  Each group of ops is bracketed by two runs of
    a fixed mix of interpreted Python and small numpy FFTs, and the
    group's times are scaled by REFERENCE_PROBE_S over the faster of the
    two: every time reads as on a machine on which the probe takes 1 ms.
    The probe runs no coherentlab code, so a change to the package moves
    the scaled times and a change of machine speed does not.  The report
    line keeps the unscaled figures.

    With ``threads`` > 1 (for ops that run on a thread pool) the probe
    instead fills a random array on that many threads at once, as the
    ops' own vectorised RNG work does: a single-threaded probe does not
    see a slowdown of the other CPUs, which such ops do.
    """

    def __init__(self, threads: int = 1):
        import numpy as np

        self._np = np
        self._x = np.exp(2j * np.pi * np.arange(256) / 256)
        self.threads = threads
        if threads > 1:
            self._pool = ThreadPoolExecutor(threads)
            self._rngs = [np.random.default_rng(i) for i in range(threads)]
            self._bufs = [np.empty(200_000) for _ in range(threads)]
        self.samples: list[float] = []

    def _fill(self, i: int) -> None:
        self._rngs[i].random(out=self._bufs[i])

    def probe(self) -> int:
        """Time the probe once; returns the index of the sample."""
        if self.threads > 1:
            t0 = perf_counter()
            list(self._pool.map(self._fill, range(self.threads)))
            self.samples.append(perf_counter() - t0)
            return len(self.samples) - 1
        fft, ifft = self._np.fft.fft, self._np.fft.ifft
        x, table = self._x, {}
        t0 = perf_counter()
        for i in range(60):
            x = ifft(fft(x) * 1j)  # a unit factor: no decay into subnormals
            table[i] = [float(abs(x[i])), i * 0.5, str(i)]
            sum(v[0] for v in table.values())
        self.samples.append(perf_counter() - t0)
        return len(self.samples) - 1

    def close(self) -> None:
        if self.threads > 1:
            self._pool.shutdown()

    def scale(self, i: int) -> float:
        """Scale of the times between probe i and probe i + 1."""
        return REFERENCE_PROBE_S / min(self.samples[i], self.samples[i + 1])


def setup_seconds(args, speed: SpeedProbe) -> list[tuple[float, float]]:
    """(raw, speed-scaled) time from process start to 'ready' of fresh set-ups."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    for _ in range(SETUP_REPEATS):
        group = speed.probe()
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait()
        if line.strip() != "ready" or rc != 0:
            raise RuntimeError(f"set-up process failed (exit {rc})")
        speed.probe()
        samples.append((elapsed, elapsed * speed.scale(group)))
    return samples


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def tail(latencies) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    import numpy as np

    k = max(len(latencies) - 11, 0)
    return float(np.partition(latencies, k)[k]), 100.0 * (k + 1) / len(latencies)


class Reservoir:
    """A uniform sample of at most LATENCY_SAMPLES (scaled, raw) op latencies.

    The storage is allocated and touched before the first op, so the
    harness's share of peak_rss_mib does not grow with the number of ops
    (algorithm R, drawn a cycle at a time).
    """

    def __init__(self, seed: int):
        import numpy as np

        self._np = np
        self._rng = np.random.default_rng([seed, 99])
        self._data = np.full((LATENCY_SAMPLES, 2), np.nan)
        self.seen = 0

    def add(self, scaled, raw) -> None:
        np = self._np
        batch = np.column_stack([scaled, raw])
        free = max(LATENCY_SAMPLES - self.seen, 0)
        head = batch[:free]
        self._data[self.seen:self.seen + len(head)] = head
        rest = batch[free:]
        if len(rest):
            # the i-th op seen replaces a random slot with probability cap / i
            seen_at = self.seen + len(head) + 1 + np.arange(len(rest))
            slot = self._rng.integers(0, seen_at)
            keep = slot < LATENCY_SAMPLES
            self._data[slot[keep]] = rest[keep]
        self.seen += len(batch)

    def values(self, column: int):
        return self._data[:min(self.seen, LATENCY_SAMPLES), column]


class Loop:
    """Closed-loop load generator: whole cycles until the time is up."""

    def __init__(self, workload, speed: SpeedProbe, seed: int, tracer=None):
        self.wl = workload
        self.speed = speed
        self.tracer = tracer
        self.latencies = Reservoir(seed)  # untraced cycles only
        # index 0: untraced cycles, 1: traced cycles
        self.ops = [0, 0]
        self.items = [0, 0]
        self.raw_busy_s = [0.0, 0.0]
        self.cycle_rates = ([], [])
        self.attempted = 0
        self.failed = 0

    def run(self, seconds: float) -> None:
        t_end = perf_counter() + seconds
        k = 0
        while True:
            traced = self.tracer is not None and k % 2 == 1
            if traced:
                self.tracer.install()
            try:
                ops = self.wl.cycle(self.speed.probe)
            finally:
                if traced:
                    self.tracer.uninstall()
            self.speed.probe()
            oks = self.wl.check(traced)
            raw = [lat for lat, _, _ in ops]
            scaled = [lat * self.speed.scale(group) for lat, _, group in ops]
            items = sum(i for _, i, _ in ops)
            if not traced:
                self.latencies.add(scaled, raw)
            self.ops[traced] += len(ops)
            self.items[traced] += items
            self.raw_busy_s[traced] += sum(raw)
            self.cycle_rates[traced].append(items / sum(scaled))
            # check() gives one verdict per op the cycle attempted, also
            # for ops that an abort kept from running (and so from timing)
            self.attempted += len(oks)
            self.failed += sum(not ok for ok in oks)
            k += 1
            if perf_counter() >= t_end and (self.tracer is None or k >= 2):
                break
        self.failed += self.wl.failed_at_end()

    def rate(self, traced: bool) -> float:
        """Median over cycles of items per second of busy time."""
        return statistics.median(self.cycle_rates[traced])


def end_to_end(loop: Loop, setup: list[tuple[float, float]], peak_rss_mib: float) -> tuple[dict, dict]:
    import numpy as np

    lat = loop.latencies.values(0)
    raw = loop.latencies.values(1)
    tail_s, tail_pct = tail(lat)
    metrics = {
        "setup_s": (statistics.median(s for _, s in setup), "s"),
        "items_per_s": (loop.rate(False), "1/s"),
        "op_p50_ms": (float(np.median(lat)) * 1e3, "ms"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "ok_ratio": (1.0 - loop.failed / loop.attempted, "ratio"),
    }
    details = {
        "ops": loop.ops[0],
        "latency_samples": len(lat),
        "cycles": len(loop.cycle_rates[0]),
        # reported, not bounded: on veto_stream no tail percentile from p95
        # to p99.99 kept a ten-seed spread below 0.2
        "op_tail_ms": tail_s * 1e3,
        "op_tail_percentile": tail_pct,
        "setup_samples": len(setup),
        "items_unit": loop.wl.items_unit,
        "fail_ratio": loop.failed / loop.attempted,
        "probe_ms_median": statistics.median(loop.speed.samples) * 1e3,
        "unscaled": {
            "setup_s": statistics.median(s for s, _ in setup),
            "items_per_s": loop.items[0] / loop.raw_busy_s[0],
            "op_p50_ms": float(np.median(raw)) * 1e3,
            "op_tail_ms": tail(raw)[0] * 1e3,
        },
    }
    return metrics, details


def per_layer(loop: Loop, tracer, import_ms: float) -> tuple[dict, dict]:
    from tracer import TRACED

    metrics = {"import.coherentlab_ms": (import_ms, "ms")}
    st = {}
    for mod, attr in TRACED:
        name = f"{mod}.{attr}"
        st[name] = s = tracer.stat(name)
        metrics[f"{name}.calls"] = (s["calls"], "count")
        metrics[f"{name}.total_ms"] = (s["total_ms"], "ms")
        metrics[f"{name}.self_ms"] = (s["self_ms"], "ms")

    def ratio(a, b):
        return a / b if b else 0.0

    ops = loop.ops[1]
    items = loop.items[1]
    wl = loop.wl
    vgh = st["landscape.v_value_grad_hess"]
    flm = st["selection.find_local_maxima"]
    metrics.update({
        # only ring_drain calls survival_curve, and its items are Strang steps
        "ring.step_us": (ratio(st["ring.survival_curve"]["self_ms"] * 1e3, items)
                         if st["ring.survival_curve"]["calls"] else 0.0, "us"),
        "reporting.bytes_written": (ratio(getattr(wl, "bytes_written", 0), getattr(wl, "ops_done", 0)), "B/op"),
        # only born_sweep calls sweep_transition_prob, and its items are MC samples
        "borngeo.ns_per_sample": (ratio(st["borngeo.sweep_transition_prob"]["total_ms"] * 1e6, items)
                                  if st["borngeo.sweep_transition_prob"]["calls"] else 0.0, "ns"),
        "borngeo.parallel_efficiency": (wl.parallel_efficiency(loop.speed)
                                        if hasattr(wl, "parallel_efficiency") else 0.0, "ratio"),
        "landscape.vgh_per_ascend": (ratio(vgh["calls"], st["landscape.ascend"]["calls"]), "count"),
        "landscape.linesearch_evals_per_vgh": (ratio(st["landscape.v_at"]["calls"], vgh["calls"]), "count"),
        "landscape.vgh_us_per_call": (ratio(vgh["self_ms"] * 1e3, vgh["calls"]), "us"),
        "selection.failed_start_ratio": (ratio(getattr(wl, "failed_starts", 0), st["landscape.ascend"]["calls"]),
                                         "ratio"),
        "selection.tie_count": (getattr(wl, "ties", 0), "count"),
        "selection.maxima_cache_hit_ratio": (ratio(flm["leaf_calls"], flm["calls"]), "ratio"),
        "selection.find_local_maxima.hit_us": (ratio(flm["leaf_ms"] * 1e3, flm["leaf_calls"]), "us"),
        "states.gram_entries": (ratio(tracer.gram_entries, ops), "count/op"),
        "currents.current_j_per_op": (ratio(st["currents.current_j"]["calls"], ops), "count/op"),
        "trace.overhead_ratio": (loop.rate(True) / loop.rate(False), "ratio"),
    })
    checks = {"bindings_restored": tracer.bindings_restored(), **wl.trace_checks(st, ops)}
    details = {"ops_traced": ops, "ops_untraced": loop.ops[0],
               "spans": len(tracer.span_start), "tracer_checks": checks}
    return metrics, details


def run(args) -> int:
    import_ms = import_package()
    if args.setup_only:
        path = enter_workdir(args.workload)
        try:
            from workloads import WORKLOADS

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                WORKLOADS[args.workload](args.seed)
            print("ready", flush=True)
        finally:
            leave_workdir(path)
        return 0

    setup = [] if args.trace else setup_seconds(args, SpeedProbe())
    import numpy as np
    from tracer import Tracer
    from workloads import NPROC, WORKLOADS

    tracer = Tracer() if args.trace else None
    path = enter_workdir(args.workload)
    speed = None
    try:
        # failed ascent starts warn; they are counted, not failures
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            wl = WORKLOADS[args.workload](args.seed)
            speed = SpeedProbe(wl.threads)
            wl.prepare(speed)
            loop = Loop(wl, speed, args.seed, tracer)
            loop.run(args.seconds)
            # before any summary work, so the figure is the workload's
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        leave_workdir(path)
        if speed is not None:
            speed.close()

    if tracer is None:
        metrics, details = end_to_end(loop, setup, peak_rss_mib)
        correct = loop.failed == 0
    else:
        metrics, details = per_layer(loop, tracer, import_ms)
        correct = loop.failed == 0 and all(details["tracer_checks"].values())
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"trace-{args.workload}.npz")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": {
            "nproc": NPROC,
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "born_workers": NPROC,
        },
        **details,
        **wl.report(),
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(run(parse_args()))
