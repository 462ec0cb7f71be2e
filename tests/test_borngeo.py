import json
import math
import os
import pickle
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coherentlab import (
    BlockingVector,
    TransitionGeometry,
    is_blocked,
    sample_phi,
    sweep_transition_prob,
    theta_from_norms,
)
from coherentlab import borngeo
from coherentlab.borngeo import _accepted_count, _lattice_threshold


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

    @pytest.mark.parametrize("e", range(10, 53))
    def test_small_angle_keeps_its_digits(self, e):
        # r = 1 - 2^-e is exact, so sin(theta) = sqrt(2^-e) exactly
        expected = math.asin(math.sqrt(2.0**-e))
        theta = theta_from_norms(1.0, 1.0 - 2.0**-e).theta
        assert abs(theta - expected) <= 4 * math.ulp(expected)

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

    def test_same_draws_as_two_uniform_calls(self):
        def two_uniform_phi(rng):
            cos_alpha = rng.uniform(-1.0, 1.0)
            chi = rng.uniform(0.0, 2.0 * np.pi)
            return float(np.arccos(cos_alpha)), float(chi)

        rng, ref = np.random.default_rng(45), np.random.default_rng(45)
        for _ in range(10**5):
            phi = sample_phi(rng)
            assert (phi.alpha, phi.chi) == two_uniform_phi(ref)

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockingVector(alpha=-0.1, chi=0.0)
        with pytest.raises(ValueError):
            BlockingVector(alpha=0.1, chi=7.0)


class TestBlockingVector:
    """The record every veto builds: an immutable, validated named tuple."""

    @pytest.mark.parametrize("alpha, chi", [(0.0, 0.0), (math.pi, 0.0), (1.0, 0.0),
                                            (1.0, math.nextafter(2 * math.pi, 0.0))])
    def test_range_ends_accepted(self, alpha, chi):
        for phi in (BlockingVector(alpha, chi), BlockingVector(alpha=alpha, chi=chi)):
            assert (phi.alpha, phi.chi) == (alpha, chi)

    @pytest.mark.parametrize("alpha, chi", [(1.0, 2 * math.pi), (math.nan, 0.0), (1.0, math.nan),
                                            (math.nextafter(math.pi, 4.0), 0.0), (-1e-300, 0.0)])
    def test_out_of_range_or_nan_rejected(self, alpha, chi):
        with pytest.raises(ValueError):
            BlockingVector(alpha=alpha, chi=chi)

    def test_fields_cannot_be_assigned(self):
        phi = BlockingVector(alpha=1.0, chi=2.0)
        for field in ("alpha", "chi"):
            with pytest.raises(AttributeError):
                setattr(phi, field, 0.5)
        with pytest.raises(AttributeError):
            phi.extra = 0.5  # no instance dict
        assert phi == (1.0, 2.0)

    def test_replace_validates_and_pickle_round_trips(self):
        phi = BlockingVector(alpha=1.0, chi=2.0)
        assert phi._replace(chi=3.0) == BlockingVector(1.0, 3.0)
        with pytest.raises(ValueError):
            phi._replace(alpha=-1.0)
        back = pickle.loads(pickle.dumps(phi))
        assert type(back) is BlockingVector and back == phi


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


def _lattice(j):
    """The j-th uniform(-1, 1) value, exactly: -1 + j * 2**-52."""
    return Fraction(-1) + Fraction(j, 2**52)


def _reference_count(c, n, key):
    return int(np.count_nonzero(np.random.default_rng(list(key)).uniform(-1.0, 1.0, n) < c))


class TestRawDrawCounts:
    """The sweep counts raw draws below an integer threshold; these pin that
    it counts exactly the float test cos(alpha) < c on the same draws."""

    def test_uniform_is_the_pcg64_lattice(self):
        # a numpy that changes the generator or its double conversion fails
        # here instead of silently moving counts
        rng, twin = np.random.default_rng(46), np.random.default_rng(46)
        assert type(rng.bit_generator) is np.random.PCG64
        raw = twin.bit_generator.random_raw(10**4)
        assert np.array_equal(rng.uniform(-1.0, 1.0, 10**4), -1.0 + (raw >> 11) * 2.0**-52)

    @settings(max_examples=500, derandomize=True, deadline=None, database=None)
    @given(c=st.floats(-1.0, 1.0))
    def test_threshold_is_the_least_lattice_index_at_or_above_c(self, c):
        k = _lattice_threshold(c)
        assert 0 <= k <= 2**53
        assert _lattice(k - 1) < Fraction(c) <= _lattice(k)

    @pytest.mark.parametrize(
        "theta",
        [0.0, 1e-300, 1e-9, np.pi / 4, np.pi / 2]
        + np.random.default_rng(47).uniform(0.0, np.pi / 2, 8).tolist(),
    )
    def test_shard_count_equals_float_count(self, theta):
        c = np.cos(2.0 * theta)
        key = (5, 3, 1)
        assert _accepted_count(_lattice_threshold(c), 5000, key) == _reference_count(c, 5000, key)

    @pytest.mark.parametrize("index", [0, 17, 999])
    @pytest.mark.parametrize("step", [-1, 0, 1])
    def test_shard_count_with_c_on_and_beside_a_drawn_value(self, index, step):
        # c equal to a drawn value, or one ulp either side of it: the one
        # place where an off-by-one threshold changes a count
        key = (8, 0, 2)
        drawn = np.random.default_rng(list(key)).uniform(-1.0, 1.0, 1000)[index]
        c = float(np.nextafter(drawn, step * np.inf)) if step else float(drawn)
        assert _accepted_count(_lattice_threshold(c), 1000, key) == _reference_count(c, 1000, key)

    def test_shard_drawn_in_blocks_equals_one_call(self):
        n, key = 3 * 2**16 + 17, (9, 9, 9)
        c = np.cos(2.0 * 0.6)
        assert _accepted_count(_lattice_threshold(c), n, key) == _reference_count(c, n, key)

    def test_shard_memory_does_not_grow_with_samples(self):
        tracemalloc.start()
        try:
            sweep_transition_prob([0.6], n=10**7, seed=4, shards=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


@pytest.fixture
def started(monkeypatch):
    """The helper threads the sweep starts, recorded as each starts."""
    threads = []

    class RecordingThread(threading.Thread):
        def start(self):
            threads.append(self)
            super().start()

    monkeypatch.setattr(borngeo, "Thread", RecordingThread)
    return threads


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

    def test_pool_has_no_more_threads_than_jobs_or_cpus(self, monkeypatch, started):
        # every job records the thread that ran it, and every helper thread is counted
        runners = []
        real_count = borngeo._accepted_count

        def recording_count(*job):
            runners.append(threading.get_ident())
            return real_count(*job)

        monkeypatch.setattr(borngeo, "_accepted_count", recording_count)
        thetas, shards = [0.3, 0.7, 1.1], 4
        serial = sweep_transition_prob(thetas, n=1000, seed=5, shards=shards, workers=1)
        assert started == [] and runners == [threading.get_ident()] * len(thetas) * shards
        runners.clear()
        rows = sweep_transition_prob(thetas, n=1000, seed=5, shards=shards, workers=10**6)
        bound = min(len(thetas) * shards, len(os.sched_getaffinity(0)))
        assert len(runners) == len(thetas) * shards
        assert len(set(runners)) <= bound and len(started) == bound - 1
        assert rows == serial

    def test_one_usable_cpu_starts_no_helper_thread(self, monkeypatch, started):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        rows = sweep_transition_prob([0.4, 0.9], n=5000, seed=6, workers=8)
        assert started == []
        assert rows == sweep_transition_prob([0.4, 0.9], n=5000, seed=6, workers=1)

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_a_failing_job_stops_the_sweep_and_every_helper(self, monkeypatch, workers):
        thetas, shards = [0.19 * i for i in range(1, 9)], 16
        ran = []
        real_count = borngeo._accepted_count

        def failing_count(k, n, seed_key):
            ran.append(seed_key)
            if seed_key == (3, 4, 7):  # the 72nd of 128 jobs
                raise RuntimeError("substream (3, 4, 7) failed")
            time.sleep(1e-3)  # the other jobs take long enough for the failure to stop them
            return real_count(k, n, seed_key)

        monkeypatch.setattr(borngeo, "_accepted_count", failing_count)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=r"^substream \(3, 4, 7\) failed$"):
            sweep_transition_prob(thetas, n=1000, seed=3, shards=shards, workers=workers)
        assert (3, 4, 7) in ran and len(ran) < len(thetas) * shards
        assert threading.active_count() == before

    def test_many_helpers_run_each_job_once(self, monkeypatch):
        # more helpers than cores and a short switch interval: a job lost or run twice shows
        keys = []
        real_count = borngeo._accepted_count

        def recording_count(k, n, seed_key):
            keys.append(seed_key)
            return real_count(k, n, seed_key)

        thetas, shards = [0.05 * i for i in range(1, 31)], 16
        serial = sweep_transition_prob(thetas, n=64, seed=8, shards=shards, workers=1)
        monkeypatch.setattr(borngeo, "_usable_cpus", lambda: 8)
        monkeypatch.setattr(borngeo, "_accepted_count", recording_count)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rows = sweep_transition_prob(thetas, n=64, seed=8, shards=shards, workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(keys) == [(8, cell, shard) for cell in range(30) for shard in range(16)]
        assert rows == serial

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(
        thetas=st.lists(st.floats(0.0, np.pi / 2), min_size=1, max_size=4),
        n=st.integers(1, 20000),
        shards=st.integers(1, 20),
        seed=st.integers(min_value=0),
    )
    def test_worker_count_never_changes_counts_property(self, thetas, n, shards, seed):
        [base, *others] = (sweep_transition_prob(thetas, n, seed, shards=shards, workers=workers)
                           for workers in (1, 2, 3))
        for rows in others:
            assert rows == base

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

    @pytest.mark.parametrize("theta", [1.55, np.pi / 2])
    def test_z_score_against_the_null_stderr(self, theta):
        # p_hat = 0 here, so an estimated stderr would make |z| huge
        [row] = sweep_transition_prob([theta], n=1000, seed=1)
        assert row["p_hat"] == 0.0
        assert abs(row["z_score"]) < 5

    def test_needs_samples(self):
        with pytest.raises(ValueError, match="samples must be >= 1, got 0"):
            sweep_transition_prob([0.1], n=0, seed=0)

    @pytest.mark.parametrize("shards", [-1, 0])
    def test_needs_a_shard(self, shards):
        # -1 used to return p_hat 0.0 for every cell, and 0 a ZeroDivisionError
        with pytest.raises(ValueError, match=f"shards must be >= 1, got {shards}"):
            sweep_transition_prob([0.1, 1.0], n=1000, seed=3, shards=shards)

    def test_theta_just_above_a_right_angle_is_rejected(self):
        theta = np.nextafter(np.pi / 2, 4)
        with pytest.raises(ValueError, match="theta must lie in"):
            TransitionGeometry(theta)
        with pytest.raises(ValueError, match="theta must lie in"):
            sweep_transition_prob([theta], n=10, seed=0)
        # the largest angle theta_from_norms makes is exactly pi/2
        assert theta_from_norms(1.0, 0.0).theta == np.pi / 2
