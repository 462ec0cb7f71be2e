"""Self-tests of the benchmark: tracer counts, bindings, output contract.

Run from the root of a checkout:

    python3 -m pytest -q -p no:cacheprovider perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import coherentlab  # noqa: E402
import coherentlab.selection  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import PACKAGE, TRACED, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bindings():
    """Every (module, name, function) binding of a traced function in the package."""
    traced = (getattr(sys.modules[f"{PACKAGE}.{m}"], a) for m, a in TRACED)
    originals = {id(fn) for fn in traced if not isinstance(fn, type)}
    return [
        (key, name, value)
        for key, mod in sys.modules.items()
        if key == PACKAGE or key.startswith(PACKAGE + ".")
        for name, value in vars(mod).items()
        if id(value) in originals
    ]


def test_tracer_wraps_every_binding_and_restores_them():
    before = _bindings()
    init = coherentlab.SuperposedState.__init__
    tracer = Tracer()
    with tracer:
        for key, name, value in before:
            assert getattr(sys.modules[key], name) is not value, f"{key}.{name} not wrapped"
        assert coherentlab.SuperposedState.__init__ is not init
        # selection re-imports ascend: the wrapped binding there must count
        state = coherentlab.SuperposedState([1.0, 0.5], [coherentlab.CoherentPoint([0.0], [0.0]),
                                                         coherentlab.CoherentPoint([1.0], [0.5])],
                                            coherentlab.single_mode())
        coherentlab.selection.find_local_maxima(state)
    assert tracer.bindings_restored()
    assert _bindings() == before
    assert coherentlab.SuperposedState.__init__ is init
    starts = len(coherentlab.landscape.ascent_starts(state))
    assert tracer.stat("landscape.ascend")["calls"] == starts
    assert tracer.stat("landscape.ascent_starts")["calls"] == 1
    assert tracer.stat("states.SuperposedState")["calls"] == 1
    assert tracer.gram_entries == 4


def test_aborted_select_chain_counts_every_missing_event_as_failed():
    abort_at = 3
    wl = workloads.SelectChain(seed=5)
    make_hook = wl._hook

    def failing_hook(episode, modes):
        hook, hooked, marks = make_hook(episode, modes)

        def hook_that_fails(state, step):
            if step == abort_at:
                marks.append(run.perf_counter())
                raise ValueError("state has non-positive norm")
            return hook(state, step)

        return hook_that_fails, hooked, marks

    wl._hook = failing_hook
    loop = run.Loop(wl, run.SpeedProbe(), seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # run_sequence warns, then aborts
        loop.run(0)
    assert len(wl._records) == abort_at - 1
    assert loop.attempted == workloads.CHAIN_EVENTS
    assert loop.failed == workloads.CHAIN_EVENTS - (abort_at - 1)


def test_born_cells_expect_many_accepted_and_rejected_samples(tmp_path, monkeypatch):
    # the |z| <= 5 check is a normal approximation; a cell near pi/2 that
    # expects about one accepted sample fails it on a correct program
    monkeypatch.chdir(tmp_path)
    for seed in range(200):
        for _, _, config in workloads.BornSweep(seed).inputs:
            p = config["parameters"]
            for theta in p["thetas"]:
                cos2 = np.cos(theta) ** 2
                assert p["samples"] * cos2 * (1.0 - cos2) >= 399.0, (seed, theta)


def test_reservoir_is_bounded_and_keeps_a_uniform_sample(monkeypatch):
    monkeypatch.setattr(run, "LATENCY_SAMPLES", 1000)
    res = run.Reservoir(seed=1)
    values = np.arange(20_000, dtype=float)
    for batch in np.split(values, 40):
        res.add(batch, 2.0 * batch)
    kept = res.values(0)
    assert res.seen == 20_000 and len(kept) == 1000
    assert np.array_equal(res.values(1), 2.0 * kept)  # pairs stay together
    assert len(np.unique(kept)) == 1000
    # the median of a uniform sample of 0..19999 is near 10000
    assert abs(np.median(kept) - 10_000) < 1_000


def _run(workload, trace, seconds=1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_counts(workload):
    report, result = _result(_run(workload, trace=1))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"] and result["failed"] == 0
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    assert report["tracer_checks"] and all(report["tracer_checks"].values()), report["tracer_checks"]
    ops = report["ops_traced"]
    if workload == "ring_drain":
        assert metrics["ring.survival_curve.calls"] == ops
    if workload == "select_chain":
        assert metrics["selection.maxima_cache_hit_ratio"] == 0.0
    if workload == "veto_stream":
        assert metrics["selection.maxima_cache_hit_ratio"] == 1.0
        assert metrics["selection.blocked_select.calls"] == ops


def test_untraced_run_reports_every_end_to_end_metric():
    report, result = _result(_run("veto_stream", trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    assert report["env"]["nproc"] >= 1


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("ring_drain", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
