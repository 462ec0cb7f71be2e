"""The four benchmark workloads and their correctness checks.

Each workload drives coherentlab from the outside, the way its users do:
``ring_drain`` and ``born_sweep`` call the CLI entry point in-process on
generated config files, ``select_chain`` and ``veto_stream`` call the
public API as the demos do.  Every input is generated from the workload
seed; the program sees only those inputs.

A workload is used in three steps:

* the constructor is the set-up a user pays before the first op (inputs,
  config resolution, cache warm-up); ``setup_s`` times it;
* ``prepare(speed)`` runs the benchmark's own reference checks that need
  the program (the ``--workers 1`` born runs); it is not part of ``setup_s``;
* ``cycle(probe)`` runs one fixed mix of ops and returns (latency_s, items,
  probe index) per op that ran, calling ``probe()`` (a machine-speed
  probe, see ``run.py``) before each group of ops; ``check()`` then
  verifies that cycle's outputs outside the timed ops and returns one
  verdict per op the cycle attempted, so an op that an abort kept from
  running is a failed op.

A cycle always runs the same mix of inputs, so a run made of whole cycles
has the same mix whatever the seed, which keeps the medians steady.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
import statistics
from itertools import product
from pathlib import Path
from time import perf_counter

import numpy as np

import coherentlab as cl
import coherentlab.cli
import coherentlab.config
import coherentlab.landscape
import coherentlab.selection

#: Worker threads for born_sweep: one per CPU this process may run on.
NPROC = len(os.sched_getaffinity(0))

#: Strang steps per ring_drain op, and the CSV sampling stride (~800 rows).
RING_STEPS = 4000
RING_RECORD_EVERY = 5

#: born_sweep: cells per theta grid, MC samples per cell, distinct configs.
BORN_CELLS = 30
BORN_SAMPLES = 1_000_000
BORN_CONFIGS = 2

#: Thetas are drawn from [margin, pi/2 - margin].  The |z| <= 5 check is
#: a normal approximation: it holds only while a cell expects many
#: accepted and many rejected samples.  At this margin every cell expects
#: about 400 or more of each (n cos^2 sin^2 >= 399.8).  Nearer pi/2 a cell
#: may accept no sample at all, and then z, taken against the estimated
#: stderr, is unbounded: draws up to pi/2 failed a correct reference run
#: on 106 of 3000 seeds.
BORN_THETA_MARGIN = 0.02

#: select_chain: events per run_sequence call, spawned components per event
#: (cycled), and the urgency energy of the schedule.
CHAIN_EVENTS = 12
CHAIN_SPAWNS = (1, 2, 3, 4)
CHAIN_ENERGY = 2.0

#: veto_stream: calls per state in one cycle, and the coefficient
#: magnitudes of its states (1-mode with 2, 4 and 8 components, 3-mode
#: with 3).  The seed permutes them and draws phases and positions; fixed
#: magnitudes fix each state's acceptance rate, and so the cost mix.
VETO_ROUNDS = 250
VETO_MAGNITUDES = (
    (0.7**0.5, 0.3**0.5),
    (1.0, 0.8, 0.6, 0.4),
    (1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3),
    (1.0, 0.7, 0.5),
)

#: Same tolerance as the repo's own ring test for "norm never increases".
NORM_STEP_TOL = 1e-14


def sha256_dir(outdir: Path) -> dict[str, str]:
    """sha256 of every file in an output directory, by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.iterdir())
        if p.is_file()
    }


def dir_bytes(outdir: Path) -> int:
    return sum(p.stat().st_size for p in outdir.iterdir() if p.is_file())


def read_csv_columns(path: Path) -> list[list[float]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [[float(v) for v in row] for row in rows[1:]]


class Workload:
    """Defaults for the optional steps of a workload."""

    #: Threads an op runs on; the speed probe runs on as many.
    threads = 1

    def prepare(self, speed) -> None:
        pass

    def failed_at_end(self) -> int:
        return 0


class _CliWorkload(Workload):
    """Ops are in-process CLI runs over a fixed list of generated configs."""

    family = ""

    def __init__(self, configs: list[dict]):
        self.inputs = []
        for i, config in enumerate(configs):
            coherentlab.config.resolve_config(config)  # generated inputs must be valid
            path = Path(f"in{i:02d}.json")
            path.write_text(json.dumps(config, indent=1))
            self.inputs.append((f"in{i:02d}", path, config))
        self.hashes: dict[str, dict[str, str]] = {}
        self.bytes_written = 0
        self.ops_done = 0
        self._last: list[tuple[str, int]] = []

    def _argv(self, name: str, path: Path) -> list[str]:
        return [self.family, "--config", str(path), "--out", name]

    def cycle(self, probe) -> list[tuple[float, int, int]]:
        out = []
        self._last = []
        for name, path, config in self.inputs:
            argv = self._argv(name, path)
            shutil.rmtree(name, ignore_errors=True)  # no stale artifact can pass a check
            group = probe()
            t0 = perf_counter()
            try:
                rc = coherentlab.cli.main(argv)
            except Exception:  # an op that raises is a failed op, not a failed run
                rc = None
            out.append((perf_counter() - t0, self.items(config), group))
            self._last.append((name, rc))
        return out

    def check(self, traced: bool) -> list[bool]:
        oks = []
        for (name, rc), (_, _, config) in zip(self._last, self.inputs):
            try:
                ok = rc == 0 and self.check_output(Path(name), config)
            except (OSError, ValueError, IndexError):  # missing or malformed output
                ok = False
            if rc == 0 and ok:
                digest = sha256_dir(Path(name))
                ok = ok and self.hashes.setdefault(name, digest) == digest
                self.bytes_written += dir_bytes(Path(name))
            self.ops_done += 1
            oks.append(ok)
        return oks

    def trace_checks(self, st: dict, ops: int) -> dict:
        return {"cli.main.calls == ops": st["cli.main"]["calls"] == ops}

    def report(self) -> dict:
        return {
            "artifact_sha256": {
                f"{name}/{file}": h for name, files in self.hashes.items() for file, h in files.items()
            }
        }


class RingDrain(_CliWorkload):
    """``ring`` CLI runs over N x absorber x initial state (12 configs)."""

    family = "ring"
    items_unit = "Strang steps"

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        configs = []
        for n, kind, profile in product((256, 512), ("delta", "plateau"), ("uniform", "von_mises", "fourier_mode")):
            absorber = {"kind": kind, "center": float(rng.uniform(0.0, 1.0)),
                        "strength": float(rng.uniform(0.2, 2.0))}
            if kind == "plateau":
                absorber["width"] = float(rng.uniform(0.02, 0.1))
                absorber["sigma"] = float(rng.uniform(0.005, 0.02))
            initial = {"profile": profile}
            if profile == "von_mises":
                initial.update(center=float(rng.uniform(0.0, 1.0)),
                               concentration=float(rng.uniform(10.0, 60.0)),
                               boost=int(rng.integers(-3, 4)))
            elif profile == "fourier_mode":
                initial["mode"] = int(rng.integers(-4, 5))
            params = {
                # a quarter of the accuracy bound 400 m / (pi N)^2 at m = 1
                "n_grid": n, "dt": 100.0 / (math.pi * n) ** 2,
                "steps": RING_STEPS, "record_every": RING_RECORD_EVERY,
                "absorber": absorber, "initial": initial,
            }
            if kind == "delta":
                params["classical"] = {"members": 20000, "region_center": absorber["center"],
                                       "region_width": float(rng.uniform(0.02, 0.1))}
            configs.append({"experiment": "ring", "seed": int(rng.integers(0, 2**31)),
                            "parameters": params})
        super().__init__(configs)

    @staticmethod
    def items(config: dict) -> int:
        return config["parameters"]["steps"]

    def trace_checks(self, st: dict, ops: int) -> dict:
        return {**super().trace_checks(st, ops),
                "ring.survival_curve.calls == ops": st["ring.survival_curve"]["calls"] == ops}

    @staticmethod
    def check_output(outdir: Path, config: dict) -> bool:
        rows = read_csv_columns(outdir / "survival.csv")
        norms = np.array([r[1] for r in rows])
        expected_rows = RING_STEPS // RING_RECORD_EVERY + 1
        # every generated initial state is normalised to unit norm
        return (
            len(rows) == expected_rows
            and abs(norms[0] - 1.0) <= 1e-12
            and bool(np.all(np.diff(norms) <= NORM_STEP_TOL))
        )


class BornSweep(_CliWorkload):
    """``born`` CLI runs over seeded theta grids at ``--workers`` = nproc."""

    family = "born"
    items_unit = "MC samples"
    threads = NPROC

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        configs = [
            {
                "experiment": "born",
                "seed": int(rng.integers(0, 2**31)),
                "parameters": {
                    "thetas": sorted(float(t) for t in rng.uniform(
                        BORN_THETA_MARGIN, math.pi / 2 - BORN_THETA_MARGIN, BORN_CELLS)),
                    "samples": BORN_SAMPLES,
                    "shards": 16,
                },
            }
            for _ in range(BORN_CONFIGS)
        ]
        super().__init__(configs)
        self.workers = self.threads
        self.serial: dict[str, tuple[float, int]] = {}
        self.parallel: dict[str, list[tuple[float, int]]] = {name: [] for name, _, _ in self.inputs}

    def _argv(self, name: str, path: Path) -> list[str]:
        return super()._argv(name, path) + ["--workers", str(self.workers)]

    def prepare(self, speed) -> None:
        """Run every input once at --workers 1: its hashes are the reference."""
        for name, path, config in self.inputs:
            group = speed.probe()
            t0 = perf_counter()
            rc = coherentlab.cli.main(super()._argv(name, path) + ["--workers", "1"])
            self.serial[name] = (perf_counter() - t0, group)
            if rc != 0 or not self.check_output(Path(name), config):
                raise RuntimeError(f"born reference run {name} failed")
            self.hashes[name] = sha256_dir(Path(name))
        speed.probe()

    def cycle(self, probe) -> list[tuple[float, int, int]]:
        ops = super().cycle(probe)
        for (name, _, _), (lat, _, group) in zip(self.inputs, ops):
            self.parallel[name].append((lat, group))
        return ops

    def parallel_efficiency(self, speed) -> float:
        """t(workers=1) / (nproc * t(workers=nproc)) per input, averaged (speed-scaled)."""
        def scaled(lat, group):
            return lat * speed.scale(group)

        return statistics.fmean(
            scaled(*self.serial[name])
            / (self.workers * statistics.median(scaled(*op) for op in self.parallel[name]))
            for name, _, _ in self.inputs
        )

    def trace_checks(self, st: dict, ops: int) -> dict:
        return {**super().trace_checks(st, ops),
                "borngeo.sweep_transition_prob.calls == ops":
                    st["borngeo.sweep_transition_prob"]["calls"] == ops}

    @staticmethod
    def items(config: dict) -> int:
        p = config["parameters"]
        return len(p["thetas"]) * p["samples"]

    @staticmethod
    def check_output(outdir: Path, config: dict) -> bool:
        rows = read_csv_columns(outdir / "born.csv")
        thetas = config["parameters"]["thetas"]
        if len(rows) != len(thetas):
            return False
        for (theta, n, p_hat, *_), theta_in in zip(rows, thetas):
            cos2 = math.cos(theta_in) ** 2
            stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 1e-300) / n)
            if theta != theta_in or abs(p_hat - cos2) / stderr > 5.0:
                return False
        return True


def random_modes(rng) -> list:
    """Three field modes: fixed |k| and weights, seeded directions and polarizations."""
    modes = []
    for k, weight in ((0.8, 0.6), (1.0, 0.8), (1.2, 1.0)):
        direction = rng.normal(size=3)
        modes.append(cl.FieldMode(k_vec=direction * (k / np.linalg.norm(direction)),
                                  weight=weight, polarization=int(rng.integers(0, 2))))
    return modes


def random_trajectory(rng):
    """A charge on a 3-segment subluminal worldline over t in [0, 3]."""
    points = [np.concatenate([[0.0], rng.uniform(-1.0, 1.0, 3)])]
    for t in (1.0, 2.0, 3.0):
        v = rng.normal(size=3)
        v *= rng.uniform(0.1, 0.8) / np.linalg.norm(v)
        points.append(np.concatenate([[t], points[-1][1:] + v]))
    charge = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5)
    return cl.Trajectory.from_breakpoints(charge, points)


class SelectChain(Workload):
    """run_sequence over 3-mode bases with a current-sourced drift hook.

    One cycle is one run_sequence call of CHAIN_EVENTS events.  Each call
    gets its own seeded basis and initial superposition, keyed by (seed,
    call), so a run averages over many bases rather than timing one.  The
    hook displaces the leading component by the coherent displacement
    that seeded charge trajectories source, keyed by (seed, call, event),
    so every event searches a fresh state and the maxima cache misses.
    """

    items_unit = "selection events"

    def __init__(self, seed: int):
        self.seed = seed
        self.schedule = cl.UrgencySchedule(CHAIN_ENERGY)
        self.episode = 0
        self._next_input()
        self.first_log = None
        self.failed_starts = 0
        self.ties = 0
        self.expected_ascends = 0

    def _next_input(self) -> None:
        """Basis and initial state of the next run_sequence call."""
        rng = np.random.default_rng([self.seed, self.episode])
        self.modes = random_modes(rng)
        points = [cl.displacement_from_current([random_trajectory(rng)], self.modes) for _ in range(3)]
        coeffs = rng.uniform(0.4, 1.0, 3) * np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
        self.initial = cl.SuperposedState(coeffs, points, cl.mode_basis_for(self.modes))

    def _hook(self, episode: int, modes):
        hooked, marks = [], []

        def hook(state, step):
            marks.append(perf_counter())
            rng = np.random.default_rng([self.seed, episode, step])
            lead = int(np.argmax(np.abs(state.coeffs)))
            out = state
            for _ in range(CHAIN_SPAWNS[(step - 1) % len(CHAIN_SPAWNS)]):
                d = cl.displacement_from_current([random_trajectory(rng)], modes)
                point = cl.CoherentPoint(q=state.q[lead] + d.q, p=state.p[lead] + d.p)
                coeff = rng.uniform(0.3, 0.8) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                out = out.with_component(coeff, point)
            hooked.append(out)
            return out

        return hook, hooked, marks

    def cycle(self, probe) -> list[tuple[float, int, int]]:
        hook, self._hooked, marks = self._hook(self.episode, self.modes)
        group = probe()
        t0 = perf_counter()
        try:
            self._records = cl.run_sequence(self.initial, self.schedule, hook, CHAIN_EVENTS)
        except Exception:  # the events it did not log count as failed
            self._records = []
        t1 = perf_counter()
        bounds = [t0] + marks[1:] + [t1]
        return [(b - a, 1, group) for a, b in zip(bounds, bounds[1:])]

    def check(self, traced: bool) -> list[bool]:
        records, hooked = self._records, self._hooked
        if self.first_log is None:
            self.first_log = [coherentlab.selection.record_as_dict(r) for r in records]
        # every one of the CHAIN_EVENTS events must be logged: an event the
        # run did not reach (an aborted sequence) is a failed op
        oks = [False] * CHAIN_EVENTS
        for i, (record, state) in enumerate(zip(records[:CHAIN_EVENTS], hooked)):
            centre_v = max(cl.v_value(state, pt) for pt in state.points())
            oks[i] = (
                record.index == i + 1
                and 0.0 < record.v_at_choice <= 1.0
                and record.v_at_choice >= centre_v - 1e-12
            )
        if traced:
            self.failed_starts += sum(r.failed_starts for r in records)
            self.ties += sum(r.tie for r in records)
            self.expected_ascends += sum(len(coherentlab.landscape.ascent_starts(s)) for s in hooked)
        self.episode += 1
        self._next_input()
        return oks

    def trace_checks(self, st: dict, ops: int) -> dict:
        flm = st["selection.find_local_maxima"]
        return {
            "landscape.ascend.calls == sum(len(ascent_starts))":
                st["landscape.ascend"]["calls"] == self.expected_ascends,
            "maxima cache hit ratio == 0": flm["calls"] == ops and flm["leaf_calls"] == 0,
        }

    def report(self) -> dict:
        log = json.dumps(self.first_log, sort_keys=True).encode()
        return {"event_log_sha256": hashlib.sha256(log).hexdigest()}


def kernel_v(state, x_q, x_p) -> float:
    """Landscape value |<x|Psi>|^2 / <Psi|Psi>, computed from the kernel formula.

    <a|b> = exp -(<qa-qb.qa-qb> + <pa-pb.pa-pb> + 2i <pa-pb.qa+qb>) / 4
    in the weighted mode bracket; written here independently of the
    package so the veto reference does not reuse the code it checks.
    """
    w = np.asarray(state.basis.weights, dtype=float)
    q = np.vstack([x_q, state.q])
    p = np.vstack([x_p, state.p])
    dq = q[:, None, :] - q[None, :, :]
    dp = p[:, None, :] - p[None, :, :]
    sq = q[:, None, :] + q[None, :, :]
    k = np.exp(-0.25 * ((dq * dq + dp * dp + 2j * dp * sq) @ w))
    c = np.asarray(state.coeffs, dtype=complex)
    amp = k[0, 1:] @ c
    norm_sq = np.real(np.conj(c) @ k[1:, 1:] @ c)
    return float(abs(amp) ** 2 / norm_sq)


class VetoStream(Workload):
    """blocked_select calls on fixed states whose maxima are cached in set-up."""

    items_unit = "veto calls"

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 4])
        one_mode = cl.single_mode()
        self.states = []
        for mags in VETO_MAGNITUDES[:3]:
            m = len(mags)
            coeffs = rng.permutation(mags) * np.exp(1j * rng.uniform(0, 2 * np.pi, m))
            spacing = rng.uniform(13.0, 16.0)
            points = [cl.CoherentPoint(q=[spacing * j], p=[0.0]) for j in range(m)]
            self.states.append(cl.SuperposedState(coeffs, points, one_mode))
        modes = random_modes(rng)
        mags = VETO_MAGNITUDES[3]
        points = []
        for j in range(len(mags)):
            d = cl.displacement_from_current([random_trajectory(rng)], modes)
            points.append(cl.CoherentPoint(q=d.q + 12.0 * j, p=d.p))
        coeffs = rng.permutation(mags) * np.exp(1j * rng.uniform(0, 2 * np.pi, len(mags)))
        self.states.append(cl.SuperposedState(coeffs, points, cl.mode_basis_for(modes)))
        self.theta = []
        for state in self.states:
            top = cl.find_local_maxima(state).maxima[0]  # warms the maxima cache
            self.theta.append(math.acos(math.sqrt(kernel_v(state, top.point.q, top.point.p))))
        self.rng = np.random.default_rng([seed, 5])
        self.accepted = [0] * len(self.states)
        self.calls = [0] * len(self.states)
        self.first_decisions = None

    def cycle(self, probe) -> list[tuple[float, int, int]]:
        out = []
        self._last = last = []
        states = self.states
        group = probe()
        for _ in range(VETO_ROUNDS):
            for j, state in enumerate(states):
                t0 = perf_counter()
                try:
                    phi = cl.sample_phi(self.rng)
                    blocked = cl.blocked_select(state, 0.0, phi).record.blocked
                except Exception:  # an op that raises is a failed op
                    phi, blocked = None, None
                out.append((perf_counter() - t0, 1, group))
                last.append((j, phi, blocked))
        return out

    def check(self, traced: bool) -> list[bool]:
        oks = []
        for j, phi, blocked in self._last:
            theta = self.theta[j]
            oks.append(phi is not None and blocked == (theta > 0.0 and phi.alpha / 2.0 <= theta))
            self.calls[j] += 1
            self.accepted[j] += not blocked
        if self.first_decisions is None:
            self.first_decisions = [bool(blocked) for _, _, blocked in self._last]
        return oks

    def failed_at_end(self) -> int:
        """Calls on states whose acceptance frequency is not within 4 sigma of v."""
        failed = 0
        for theta, acc, n in zip(self.theta, self.accepted, self.calls):
            v = math.cos(theta) ** 2
            if abs(acc / n - v) > 4.0 * math.sqrt(v * (1.0 - v) / n):
                failed += n
        return failed

    def trace_checks(self, st: dict, ops: int) -> dict:
        flm = st["selection.find_local_maxima"]
        return {
            "selection.blocked_select.calls == ops": st["selection.blocked_select"]["calls"] == ops,
            "maxima cache hit ratio == 1": flm["calls"] == ops and flm["leaf_calls"] == ops,
        }

    def report(self) -> dict:
        decisions = bytes(self.first_decisions)
        return {
            "decisions_sha256": hashlib.sha256(decisions).hexdigest(),
            "acceptance": [
                {"v": math.cos(t) ** 2, "freq": a / n, "calls": n}
                for t, a, n in zip(self.theta, self.accepted, self.calls)
            ],
        }


WORKLOADS = {
    "ring_drain": RingDrain,
    "born_sweep": BornSweep,
    "select_chain": SelectChain,
    "veto_stream": VetoStream,
}
