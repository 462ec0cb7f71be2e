"""Transition statistics from sphere geometry alone.

A candidate transition with weight fraction cos^2(theta) is either
accepted or vetoed by a blocking vector Phi drawn uniformly from a
2-sphere surface: the veto fires exactly when Phi's polar angle alpha
satisfies alpha/2 <= theta.  Nothing else is random.  Averaging the
deterministic veto over the uniform measure reproduces the cos^2(theta)
acceptance law, cell by cell.  The sweep is that of configs/born.json,
whose artifacts `coherentlab born --config configs/born.json` writes.
"""

from coherentlab import sweep_transition_prob

thetas = [round(0.1 * i, 10) for i in range(1, 16)]
rows = sweep_transition_prob(thetas, n=10**6, seed=42)

print(f"{'theta':>6} {'p_hat':>9} {'cos^2':>9} {'z':>6}")
for r in rows:
    print(f"{r['theta']:6.2f} {r['p_hat']:9.5f} {r['cos2theta']:9.5f} {r['z_score']:6.2f}")

within = sum(abs(r["z_score"]) < 4 for r in rows)
print(f"\n{within}/15 cells within 4 standard errors of cos^2(theta)")
