"""Causal selection engine: event scheduling, landscape maxima, collapse.

An event at time t replaces the state by the single coherent state at the
global maximum of its phase-space landscape.  Event times follow the
urgency schedule t_{i+1} = t_i + 1/E_i (hbar = 1).  A blocking vector can
veto the transition, in which case the state is left unchanged until the
next scheduled event.

A state's maxima search runs once: its result is cached on the state, and
every event on that state reuses the argmax, the collapsed state and the
veto angle taken from it on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .borngeo import BlockingVector, TransitionGeometry, is_blocked, theta_from_norms
from .landscape import ascend, ascent_starts
from .modes import ModeBasis
from .states import CoherentPoint, SuperposedState, evolve_free

#: |dv| below which two global maxima count as tied (resolved lexicographically).
TIE_TOLERANCE = 1e-12

#: Converged maxima closer than this (flattened Euclidean) are merged.
DEDUP_RADIUS = 1e-6


@dataclass(frozen=True)
class Candidate:
    """One local maximum of the landscape."""

    point: CoherentPoint
    v: float


@dataclass(frozen=True)
class MaximaResult:
    """Deduplicated landscape maxima of one state, sorted by descending value.

    What an event on the state selects is derived from the maxima on first
    use and kept with them.
    """

    maxima: list[Candidate]
    failed_starts: int
    basis: ModeBasis

    @cached_property
    def argmax(self) -> tuple[Candidate, bool]:
        """Global maximum with lexicographic tie-breaking on (q, p), and the tie flag."""
        if not self.maxima:
            raise ValueError(
                f"no landscape maximum found: all {self.failed_starts} ascent start(s) failed"
            )
        tied = [c for c in self.maxima if abs(c.v - self.maxima[0].v) < TIE_TOLERANCE]
        return min(tied, key=lambda c: tuple(c.point.as_vector())), len(tied) > 1

    @cached_property
    def collapsed(self) -> SuperposedState:
        """The single coherent state at the argmax, coefficient 1."""
        return SuperposedState.single(self.argmax[0].point, self.basis)

    @cached_property
    def geometry(self) -> TransitionGeometry:
        """Transition angle of the collapse.

        <x|x> = 1 for the argmax x, so cos^2(theta) = |P Psi|^2 / |Psi|^2
        = |<x|Psi>|^2 / |Psi|^2 is the argmax's landscape value.
        """
        return theta_from_norms(1.0, self.argmax[0].v)


class EventRecord(NamedTuple):
    """Log entry for one selection event (an immutable named tuple)."""

    index: int
    time: float
    chosen: CoherentPoint
    v_at_choice: float
    candidates: list[Candidate]
    blocked: bool
    tie: bool
    failed_starts: int


class EventLog(list):
    """Event records of one run; ``abort`` is None, or says why the run stopped early."""

    abort: str | None = None


class CollapseOutcome(NamedTuple):
    """State after one selection event, and the event's log entry."""

    state_next: SuperposedState
    record: EventRecord

    @property
    def accepted(self) -> bool:
        return not self.record.blocked


class UrgencySchedule:
    """Urgency energies E > 0; the interval to the next event is 1/E."""

    def __init__(self, energies):
        if np.isscalar(energies):
            energies = [energies]
        self.energies = [float(e) for e in energies]
        for e in self.energies:
            if not (e > 0 and np.isfinite(e)):
                raise ValueError(f"urgency energy must be positive and finite, got {e}")

    def event_times(self, n_events: int, t0: float = 0.0) -> list[float]:
        """Times of events 1..n_events, t_i = t_{i-1} + 1/E_i from t_0 = t0.

        Event i takes the schedule's entry i; a scalar schedule repeats.
        Raises ValueError unless the schedule covers event ``n_events`` >= 1
        and every time is finite and later than the one before it.
        """
        if n_events < 1:
            raise ValueError(f"events are numbered from 1, so n_events must be >= 1, got {n_events}")
        size = len(self.energies)
        if 1 < size < n_events:
            raise ValueError(f"schedule has {size} entries, asked for {n_events}")
        times = [float(t0)]
        for i in range(1, n_events + 1):
            # a list covers event i, so only a scalar schedule wraps round
            times.append(times[-1] + 1.0 / self.energies[(i - 1) % size])
            if not times[-2] < times[-1] < np.inf:
                raise ValueError(f"event {i} falls at t = {times[-1]!r}, "
                                 f"which is not a finite time after {times[-2]!r}")
        return times[1:]


def find_local_maxima(state: SuperposedState) -> MaximaResult:
    """Locate local maxima of the landscape by multi-start ascent.

    Starts are all component centers plus midpoints of near pairs.
    Non-converged starts are dropped and counted in ``failed_starts``.
    States are immutable, so the result is cached on the state instance.
    """
    cached = state.__dict__.get("_maxima")
    if cached is not None:
        return cached
    found: list[tuple[np.ndarray, float]] = []
    failed = 0
    # far-apart centres overflow: the kernel flushes to 0, an inf start distance is not near
    with np.errstate(over="ignore", invalid="ignore"):
        for start in ascent_starts(state):
            x, v, ok = ascend(state, start)
            if not ok:
                failed += 1
                continue
            for k, (xk, vk) in enumerate(found):
                if np.linalg.norm(x - xk) < DEDUP_RADIUS:
                    if v > vk:
                        found[k] = (x, v)
                    break
            else:
                found.append((x, v))
    found.sort(key=lambda item: (-item[1], tuple(item[0])))
    # |<x|Psi>|^2 <= <Psi|Psi>, so a value above 1 is the roundoff of a norm
    # far below sum |c_j|^2; it is reported, and vetoed, as the bound 1
    maxima = [Candidate(point=CoherentPoint.from_vector(x), v=min(v, 1.0)) for x, v in found]
    result = MaximaResult(maxima, failed, state.basis)
    state.__dict__["_maxima"] = result
    return result


def _select(
    state: SuperposedState, t: float, index: int, phi: BlockingVector | None
) -> CollapseOutcome:
    result = find_local_maxima(state)
    chosen, tie = result.argmax
    blocked = phi is not None and is_blocked(result.geometry, phi)
    record = EventRecord(
        index, float(t), chosen.point, chosen.v, result.maxima, blocked, tie, result.failed_starts
    )
    return CollapseOutcome(state if blocked else result.collapsed, record)


def select_and_collapse(state: SuperposedState, t: float, index: int = 1) -> CollapseOutcome:
    """Actualize the global landscape maximum as the next state.

    The state after the event is the single coherent state at the argmax
    with coefficient 1 (renormalized projection).  Applying the operation
    again re-selects the same point with landscape value 1.
    """
    return _select(state, t, index, None)


def blocked_select(
    state: SuperposedState,
    t: float,
    phi: BlockingVector,
    index: int = 1,
) -> CollapseOutcome:
    """Argmax selection routed through the sphere-geometry blocking test.

    The transition angle satisfies cos^2(theta) = |P Psi|^2 / |Psi|^2 for
    the argmax projector P.  That ratio is the landscape value at the
    argmax, so theta comes from the cached argmax value and no amplitude
    is recomputed.  If phi blocks, the state is left unchanged and the
    record is marked blocked.
    """
    return _select(state, t, index, phi)


DriftHook = Callable[[SuperposedState, int], SuperposedState]


def _spawn(state: SuperposedState, spawns) -> SuperposedState:
    """Append one component per (dq, dp, coeff), offset from the leading component."""
    lead = int(np.argmax(np.abs(state.coeffs)))
    q, p = state.q[lead], state.p[lead]
    for dq, dp, coeff in spawns:
        state = state.with_component(coeff, CoherentPoint(q=q + dq, p=p + dp))
    return state


def offset_spawn(coeff: complex, dq: Sequence[float], dp: Sequence[float]) -> DriftHook:
    """Hook that appends one component at a fixed offset from the leading one."""
    spawns = [(np.asarray(dq, dtype=float), np.asarray(dp, dtype=float), coeff)]
    return lambda state, step: _spawn(state, spawns)


def seeded_spawn(seed: int, count: int = 1, spread: float = 8.0, coeff: float = 0.3) -> DriftHook:
    """Hook that appends ``count`` randomly offset components each step.

    Deterministic: the generator is keyed by (seed, step), so a rerun with
    the same seed reproduces the sequence exactly.  Each component draws
    its q offsets, then its p offsets, then its weight.
    """
    if count < 1:
        raise ValueError(f"seeded_spawn count must be >= 1, got {count}")
    if not spread > 0:
        raise ValueError(f"seeded_spawn spread must be > 0, got {spread}")

    def hook(state: SuperposedState, step: int) -> SuperposedState:
        rng = np.random.default_rng([seed, step])
        n = state.n_modes
        return _spawn(state, [(rng.normal(0.0, spread, size=n), rng.normal(0.0, spread, size=n),
                               coeff * rng.uniform(0.5, 1.0)) for _ in range(count)])

    return hook


def run_sequence(
    initial: SuperposedState,
    schedule: UrgencySchedule,
    drift: DriftHook | None = None,
    n_events: int = 1,
    t0: float = 0.0,
) -> EventLog:
    """Run a sequence of scheduled selection events.

    Each step evolves freely over 1/E, applies the drift hook if one is
    given (it regenerates alternatives between events), then selects and
    collapses.  If the hook raises ValueError (a zero-norm state), the log
    of the events before it is returned with ``abort`` naming the event
    and the hook's reason; otherwise ``abort`` is None.  The event times
    are ``schedule.event_times(n_events, t0)``.
    """
    records = EventLog()
    state = initial
    times = [float(t0), *schedule.event_times(n_events, t0)]
    for i in range(1, n_events + 1):
        state = evolve_free(state, times[i] - times[i - 1])
        if drift is not None:
            try:
                state = drift(state, i)
            except ValueError as exc:
                records.abort = f"drift hook failed at event {i} of {n_events}: {exc}"
                return records
            if not isinstance(state, SuperposedState):
                raise TypeError("drift hook must return a SuperposedState")
        outcome = select_and_collapse(state, times[i], index=i)
        records.append(outcome.record)
        state = outcome.state_next
    return records


def record_as_dict(record: EventRecord) -> dict:
    """JSON-ready mirror of an EventRecord, points as q/p lists."""
    out = record._asdict()
    out["chosen"] = {"q": record.chosen.q.tolist(), "p": record.chosen.p.tolist()}
    out["candidates"] = [
        {"v": c.v, "q": c.point.q.tolist(), "p": c.point.p.tolist()} for c in record.candidates
    ]
    return out
