"""A sequence of argmax selection events.

The state of a few field modes is a superposition of coherent states:
a handful of Gaussian bumps in phase space.  At scheduled times
(intervals 1/E for urgency energy E) the landscape is searched for its
local maxima, the argmax bump is actualized (the state collapses onto
that single coherent state), and between events a drift hook regrows
alternatives around the survivor.

Here the hook spawns two random side-bumps per step, so each event is a
real decision; the log shows which point won and how dominant it was.
`coherentlab select --config configs/select.json` writes the same run.
"""

from coherentlab import (
    CoherentPoint,
    SuperposedState,
    UrgencySchedule,
    find_local_maxima,
    seeded_spawn,
    run_sequence,
    single_mode,
)

basis = single_mode(omega=1.0)
initial = SuperposedState(
    [0.9, 0.5, 0.3],
    [CoherentPoint(q=[0.0], p=[0.0]),
     CoherentPoint(q=[9.0], p=[3.0]),
     CoherentPoint(q=[-6.0], p=[8.0])],
    basis,
)

print("landscape maxima of the initial superposition:")
for cand in find_local_maxima(initial).maxima:
    print(f"  v = {cand.v:.4f} at q = {cand.point.q[0]:+.3f}, p = {cand.point.p[0]:+.3f}")

records = run_sequence(
    initial,
    UrgencySchedule(2.0),          # events every 0.5 time units
    seeded_spawn(seed=11, count=2, spread=7.0, coeff=0.45),
    n_events=12,
)

print("\nevent log:")
for r in records:
    print(f"  #{r.index:2d} t = {r.time:5.2f}  v = {r.v_at_choice:.4f}  "
          f"chose q = {r.chosen.q[0]:+7.3f}, p = {r.chosen.p[0]:+7.3f}  "
          f"({len(r.candidates)} candidates)")
