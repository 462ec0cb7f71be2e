import json
from pathlib import Path

import numpy as np
import pytest

from coherentlab import (
    BlockingVector,
    TransitionGeometry,
    is_blocked,
    sample_phi,
    sweep_transition_prob,
    theta_from_norms,
)


BORN_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "born.json"


class TestThetaFromNorms:
    def test_identity_projection_pole(self):
        assert theta_from_norms(1.0, 1.0).theta == pytest.approx(0.0)

    def test_null_projection_pole(self):
        assert theta_from_norms(1.0, 0.0).theta == pytest.approx(np.pi / 2)

    def test_half_weight(self):
        assert theta_from_norms(1.0, 0.5).theta == pytest.approx(np.pi / 4)

    def test_scale_invariance(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            n2 = rng.uniform(0.1, 10.0)
            frac = rng.uniform(0.0, 1.0)
            c = rng.uniform(1e-6, 1e6)
            t1 = theta_from_norms(n2, frac * n2).theta
            t2 = theta_from_norms(c * n2, c * frac * n2).theta
            assert t1 == pytest.approx(t2, abs=1e-12)

    def test_ratio_above_one_rejected(self):
        with pytest.raises(ValueError):
            theta_from_norms(1.0, 1.0 + 1e-9)

    def test_tiny_overshoot_clamped(self):
        geom = theta_from_norms(1.0, 1.0 + 1e-14)
        assert geom.theta == 0.0

    def test_nonpositive_norm_rejected(self):
        with pytest.raises(ValueError):
            theta_from_norms(0.0, 0.0)
        with pytest.raises(ValueError):
            theta_from_norms(1.0, -0.1)


class TestSamplePhi:
    def test_moments_of_uniform_measure(self):
        rng = np.random.default_rng(41)
        n = 10**6
        cos_alpha = np.cos([sample_phi(rng).alpha for _ in range(2000)])
        # full-size check via the vectorized path used by the estimator
        rng2 = np.random.default_rng(42)
        big = rng2.uniform(-1.0, 1.0, size=n)
        assert abs(big.mean()) < 3.0 * (1.0 / np.sqrt(3.0)) / 1000.0
        assert abs(cos_alpha.mean()) < 3.0 * (1.0 / np.sqrt(3.0)) / np.sqrt(2000)

    def test_hemisphere_fraction(self):
        rng = np.random.default_rng(43)
        n = 20000
        upper = sum(sample_phi(rng).alpha <= np.pi / 2 for _ in range(n))
        sigma = np.sqrt(0.25 / n)
        assert upper / n == pytest.approx(0.5, abs=3 * sigma)

    def test_equal_seeds_equal_streams(self):
        a = [sample_phi(np.random.default_rng(7)) for _ in range(1)]
        s1 = np.random.default_rng(123)
        s2 = np.random.default_rng(123)
        for _ in range(100):
            p1, p2 = sample_phi(s1), sample_phi(s2)
            assert p1.alpha == p2.alpha and p1.chi == p2.chi

    def test_cos_alpha_uniform_ks(self):
        # Kolmogorov-Smirnov against the uniform CDF on [-1, 1]
        rng = np.random.default_rng(44)
        n = 10**5
        cos_alpha = np.sort(rng.uniform(-1.0, 1.0, size=n))  # estimator path
        cdf = (cos_alpha + 1.0) / 2.0
        i = np.arange(1, n + 1)
        d = max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n))
        assert d < 1.63 / np.sqrt(n)  # 1% critical value

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockingVector(alpha=-0.1, chi=0.0)
        with pytest.raises(ValueError):
            BlockingVector(alpha=0.1, chi=7.0)


class TestIsBlocked:
    def test_zero_theta_never_blocks(self):
        geom = TransitionGeometry(theta=0.0)
        for alpha in (0.0, 0.1, 1.0, np.pi):
            assert is_blocked(geom, BlockingVector(alpha=alpha, chi=0.0)) is False

    def test_right_angle_always_blocks(self):
        geom = TransitionGeometry(theta=np.pi / 2)
        for alpha in (0.0, 0.5, np.pi):
            assert is_blocked(geom, BlockingVector(alpha=alpha, chi=0.0)) is True

    def test_quarter_angle_example(self):
        geom = TransitionGeometry(theta=np.pi / 4)
        assert is_blocked(geom, BlockingVector(alpha=np.pi / 4, chi=0.0)) is True
        assert is_blocked(geom, BlockingVector(alpha=np.pi / 2 + 0.01, chi=0.0)) is False


class TestTransitionProbMc:
    def test_zero_theta_exact(self):
        [row] = sweep_transition_prob([0.0], n=1000, seed=1)
        assert row["p_hat"] == 1.0

    def test_quarter_angle_half(self):
        [row] = sweep_transition_prob([np.pi / 4], n=10**6, seed=2)
        assert abs(row["p_hat"] - 0.5) < 3 * row["stderr"]

    def test_third_angle_quarter(self):
        [row] = sweep_transition_prob([np.pi / 3], n=10**6, seed=3)
        assert abs(row["p_hat"] - 0.25) < 3 * row["stderr"]

    def test_worker_count_never_changes_counts(self):
        [base] = sweep_transition_prob([0.7], n=100001, seed=9, workers=1)
        for workers in (2, 8):
            [row] = sweep_transition_prob([0.7], n=100001, seed=9, workers=workers)
            assert row["p_hat"] == base["p_hat"]

    def test_law_match_sweep(self):
        thetas = [0.1 * i for i in range(1, 16)]
        rows = sweep_transition_prob(thetas, n=10**6, seed=11)
        hits = sum(abs(r["p_hat"] - r["cos2theta"]) < 4 * r["stderr"] for r in rows)
        assert hits >= 14

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sample_config_accepted_total_is_pinned(self, workers):
        config = json.loads(BORN_CONFIG.read_text())
        p = config["parameters"]
        rows = sweep_transition_prob(
            p["thetas"], p["samples"], config["seed"], shards=p["shards"], workers=workers
        )
        assert sum(round(r["p_hat"] * r["n"]) for r in rows) == 7_353_105

    def test_needs_samples(self):
        with pytest.raises(ValueError, match="at least one sample"):
            sweep_transition_prob([0.1], n=0, seed=0)
