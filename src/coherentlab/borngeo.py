"""Sphere geometry of transition blocking.

A candidate transition Psi -> P Psi defines an angle theta through
cos^2(theta) = |P Psi|^2 / |Psi|^2.  Representatives of the projected
state trace a 2-sphere of radius 1/2 as the path parameter runs from 0
to pi/2; a blocking vector Phi on that sphere, drawn from the uniform
surface measure, vetoes the transition exactly when its polar angle
alpha satisfies alpha/2 <= theta.  Averaging the veto over the uniform
measure reproduces acceptance probability cos^2(theta).
"""

from __future__ import annotations

import math
import operator
import os
import queue
from dataclasses import dataclass
from threading import Thread
from typing import NamedTuple

import numpy as np

#: Number of independent substreams a Monte Carlo estimate is split into.
#: Fixed (not tied to worker count) so results never depend on parallelism.
DEFAULT_SHARDS = 16


@dataclass(frozen=True)
class TransitionGeometry:
    """Transition angle theta in [0, pi/2]."""

    theta: float

    def __post_init__(self):
        if not (0.0 <= self.theta <= np.pi / 2):
            raise ValueError(f"theta must lie in [0, pi/2], got {self.theta}")

    @property
    def cos2(self) -> float:
        """Acceptance probability cos^2(theta)."""
        return float(np.cos(self.theta) ** 2)


class _SpherePoint(NamedTuple):
    alpha: float
    chi: float


class BlockingVector(_SpherePoint):
    """Point on the half-radius sphere: polar angle alpha, azimuth chi.

    An immutable named tuple, built on every veto.  The constructor checks
    both ranges, and ``_make`` (which ``_replace`` uses) goes through it.
    """

    __slots__ = ()

    def __new__(cls, alpha: float, chi: float):
        if not (0.0 <= alpha <= math.pi):
            raise ValueError(f"alpha must lie in [0, pi], got {alpha}")
        if not (0.0 <= chi < 2 * math.pi):
            raise ValueError(f"chi must lie in [0, 2 pi), got {chi}")
        return tuple.__new__(cls, (alpha, chi))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def theta_from_norms(norm_sq_psi: float, norm_sq_p_psi: float) -> TransitionGeometry:
    """Transition geometry from |Psi|^2 and |P Psi|^2.

    theta = atan2(sqrt(1 - ratio), sqrt(ratio)) with the ratio clamped to
    [0, 1]; ratios above 1 beyond a 1e-12 relative tolerance are rejected.
    1 - ratio is exact for ratio >= 1/2, so theta keeps its digits as
    theta -> 0, where arccos(sqrt(ratio)) loses them.
    """
    norm_sq_psi = float(norm_sq_psi)
    norm_sq_p_psi = float(norm_sq_p_psi)
    if not (norm_sq_psi > 0 and np.isfinite(norm_sq_psi)):
        raise ValueError(f"|Psi|^2 must be positive, got {norm_sq_psi}")
    if norm_sq_p_psi < 0 or not np.isfinite(norm_sq_p_psi):
        raise ValueError(f"|P Psi|^2 must be non-negative, got {norm_sq_p_psi}")
    ratio = norm_sq_p_psi / norm_sq_psi
    if ratio > 1.0 + 1e-12:
        raise ValueError(f"|P Psi|^2 exceeds |Psi|^2 (ratio {ratio})")
    ratio = min(max(ratio, 0.0), 1.0)
    return TransitionGeometry(theta=math.atan2(math.sqrt(1.0 - ratio), math.sqrt(ratio)))


def sample_phi(rng: np.random.Generator) -> BlockingVector:
    """Draw one blocking vector from the uniform sphere-surface measure.

    cos(alpha) is uniform on [-1, 1) and chi uniform on [0, 2 pi).  They
    come from two scalar ``rng.random()`` calls, u then w: a scalar call
    takes the next double of the same stream that ``rng.random(2)`` fills
    its array from, so u and w are the same doubles in the same order, and
    ``-1 + 2 u`` and ``2 pi w`` are bit for bit the values
    ``rng.uniform(-1, 1)`` and ``rng.uniform(0, 2 pi)`` return.  Equal
    seeds produce identical sequences.  ``np.arccos`` is kept on purpose:
    ``math.acos`` differs from it in the last bit on some inputs.
    """
    u = rng.random()
    w = rng.random()
    return BlockingVector(float(np.arccos(-1.0 + 2.0 * u)), 2.0 * np.pi * w)


def is_blocked(geom: TransitionGeometry, phi: BlockingVector) -> bool:
    """Whether phi vetoes the transition: alpha/2 <= theta.

    theta = 0 never blocks (the identity transition is no change at all),
    which also keeps the boundary sample alpha = 0 consistent with the
    acceptance law cos^2(0) = 1.
    """
    if geom.theta <= 0.0:
        return False
    return bool(phi.alpha / 2.0 <= geom.theta)


def _shard_sizes(n: int, shards: int) -> list[int]:
    """Samples of shards 0, 1, ... that hold any; the shards from n on hold none."""
    base, extra = divmod(n, shards)
    return [base + (i < extra) for i in range(min(n, shards))]


# numpy seeds default_rng(key) through SeedSequence(key): a pool of four
# 32-bit words hashed from the key's words, then eight output words, which
# PCG64 reads as (initstate, initseq) and steps once.  No constant depends
# on the key, so the pass below replays it for a whole column of keys.
_MASK32 = 0xFFFFFFFF
_POOL = 4
_HASH_POOL = (0x43B0D7E5, 0x931E8875)  # (initial constant, multiplier) of the pool's hash
_HASH_STATE = (0x8B51F9DD, 0x58F38DED)  # ... and of generate_state's
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _words(value: int) -> list[int]:
    """SeedSequence's little-endian 32-bit words of a non-negative int; 0 is [0]."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"seed key entries must be non-negative, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash_chain(const: int, mult: int):
    """SeedSequence's hashmix: each call takes the chain's next constant."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ (value >> 16)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of a pool word with a hashed word."""
    out = _MIX_L * x - _MIX_R * y
    return out ^ (out >> 16)


def _pcg64_states(keys: list[tuple]) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) of ``np.random.default_rng(list(key))`` for every key.

    One pass over all keys at once: each SeedSequence step is one uint32
    array operation over the keys, and a word past a key's end leaves its
    pool as it was.  PCG64 then takes inc = 2 initseq + 1 and state =
    ((inc + initstate) MULT + inc) mod 2**128.  The words of each key,
    and of each state, pass through Python one key at a time: a list held
    for every key at once would leave its pages in the sweep's peak memory.
    """
    entropy = np.zeros((len(keys), _POOL), np.uint32)
    lengths = []
    for j, key in enumerate(keys):
        words = [w for value in key for w in _words(value)]
        if len(words) > entropy.shape[1]:
            entropy = np.pad(entropy, ((0, 0), (0, len(words) - entropy.shape[1])))
        entropy[j, :len(words)] = words
        lengths.append(len(words))
    lengths = np.array(lengths)
    hashmix = _hash_chain(*_HASH_POOL)
    pool = [hashmix(entropy[:, i]) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, entropy.shape[1]):
        live = lengths > src
        for dst in range(_POOL):
            pool[dst] = np.where(live, _mix(pool[dst], hashmix(entropy[:, src])), pool[dst])
    hashmix = _hash_chain(*_HASH_STATE)
    out = np.stack([hashmix(pool[i % _POOL]) for i in range(8)], axis=1)
    states = []
    # generate_state(4, uint64) pairs the eight words little-endian, as here
    for row in out.astype("<u4").view("<u8"):
        hi, lo, seq_hi, seq_lo = row.tolist()
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        states.append((((inc + (hi << 64 | lo)) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def _seat(bitgen: np.random.PCG64, state: int, inc: int) -> np.random.PCG64:
    """``bitgen`` set to (state, inc), as freshly seeded: no buffered half-draw."""
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
    return bitgen


# The sweep counts raw generator draws, not floats.  numpy's default bit
# generator (PCG64) makes each double as (raw >> 11) * 2**-53, so
# rng.uniform(-1, 1) is exactly -1 + j * 2**-52 with j = raw >> 11.  Hence
# cos(alpha) < c iff j < 2**52 (c + 1) iff j < k = ceil(2**52 (c + 1)) iff
# raw < k * 2**11: one integer threshold per cell counts exactly the
# samples the float test counts, draw for draw.
_ALL_ACCEPTED = 1 << 53

#: Most raw draws a shard holds at once, so its memory does not grow with n.
_RAW_BLOCK = 1 << 16


def _lattice_threshold(c: float) -> int:
    """Least k in [0, 2**53] with -1 + k * 2**-52 >= c, in exact arithmetic.

    A uniform(-1, 1) draw with lattice index j lies below c iff j < k.
    """
    num, den = float(c).as_integer_ratio()
    k = -(-((num + den) << 52) // den)
    return min(max(k, 0), _ALL_ACCEPTED)


def _accepted_count(k: int, n: int, bitgen: np.random.PCG64) -> int:
    """Draws among the next n of the seated ``bitgen`` whose lattice index is below k."""
    # at theta = 0 below is 2**64; numpy >= 2 compares it exactly, so every draw counts
    below = k << 11
    accepted = 0
    for start in range(0, n, _RAW_BLOCK):
        raw = bitgen.random_raw(min(_RAW_BLOCK, n - start))
        accepted += int(np.count_nonzero(raw < below))
    return accepted


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _accepted_counts(cells: list[tuple[int, tuple]], n: int, shards: int, workers: int) -> list[int]:
    """Accepted counts of n samples for each (lattice threshold, seed prefix) cell.

    Each cell is split into ``shards`` substreams keyed by (*prefix,
    shard), one job for each shard that holds a sample.  The calling
    thread computes the PCG64 state of every job's key in one pass
    (``_pcg64_states``), the state ``np.random.default_rng(list(key))``
    starts from, before any helper starts.  The job indices go into one
    shared queue.  The calling thread takes jobs from it like every
    helper, so it works rather than waits; min(workers, jobs, usable
    CPUs) - 1 helper threads join it, and with one worker the caller runs
    every job and no thread starts.  Each thread seats its one PCG64 with
    a job's state and counts that job's draws from it.  Each count is
    stored at its job's index and summed per cell in shard order, so no
    count depends on the thread count or on which thread ran a job.  The
    first exception in any thread stops the others taking jobs; it is
    raised here once every helper has ended.
    """
    sizes = _shard_sizes(n, shards)
    jobs = [(k, m) for k, _ in cells for m in sizes]
    states = _pcg64_states([(*prefix, i) for _, prefix in cells for i in range(len(sizes))])
    counts = [0] * len(jobs)
    todo = queue.SimpleQueue()
    for index in range(len(jobs)):
        todo.put(index)
    failures = []

    def drain():
        bitgen = np.random.PCG64(0)  # seated anew for every job
        while not failures:
            try:
                index = todo.get_nowait()
            except queue.Empty:
                return
            try:
                k, m = jobs[index]
                counts[index] = _accepted_count(k, m, _seat(bitgen, *states[index]))
            except BaseException as exc:  # kept and raised by the caller, below
                failures.append(exc)

    helpers = []
    try:
        for _ in range(min(workers, len(jobs), _usable_cpus()) - 1):
            helper = Thread(target=drain)
            helper.start()
            helpers.append(helper)
        drain()
    finally:
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[0]
    per_cell = len(sizes)
    return [sum(counts[c * per_cell:(c + 1) * per_cell]) for c in range(len(cells))]


def _check_sweep(thetas, n: int, shards: int) -> list[TransitionGeometry]:
    """The one check of a sweep's inputs; config resolution calls it too."""
    if n < 1:
        raise ValueError(f"samples must be >= 1, got {n}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    return [TransitionGeometry(theta=float(theta)) for theta in thetas]


def sweep_transition_prob(
    thetas,
    n: int,
    seed: int,
    shards: int = DEFAULT_SHARDS,
    workers: int = 1,
) -> list[dict]:
    """Acceptance sweep over transition angles; one result row per theta.

    Each cell draws n blocking vectors from its own substream family
    keyed by (seed, cell, shard), the streams of numpy's
    ``default_rng([seed, cell, shard])``, so the sweep is reproducible
    cell by cell.  The shard structure is independent of ``workers``, so the
    counts are identical for any worker count.  ``stderr`` is the
    estimated standard error; ``z_score`` is taken against the null one,
    sqrt(cos2 (1 - cos2) / n), and is 0 where that is 0.
    """
    geoms = _check_sweep(thetas, n, shards)
    # accepted iff alpha/2 > theta iff cos(alpha) < cos(2 theta); theta = 0
    # gives cos(2 theta) = 1 and accepts every sample, as is_blocked says
    cells = [(_lattice_threshold(np.cos(2.0 * geom.theta)), (seed, cell))
             for cell, geom in enumerate(geoms)]
    rows = []
    for geom, accepted in zip(geoms, _accepted_counts(cells, n, shards, workers)):
        p_hat = accepted / n
        stderr = float(np.sqrt(max(p_hat * (1.0 - p_hat), 1e-300) / n))
        null_stderr = math.sqrt(geom.cos2 * (1.0 - geom.cos2) / n)
        z = (p_hat - geom.cos2) / null_stderr if null_stderr > 0 else 0.0
        rows.append(
            {
                "theta": geom.theta,
                "n": n,
                "p_hat": p_hat,
                "stderr": stderr,
                "cos2theta": geom.cos2,
                "z_score": float(z),
            }
        )
    return rows
