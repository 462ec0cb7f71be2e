"""Config fuzzer: one leaf of a small valid config replaced or removed.

Whatever the replacement, ``main`` must exit 0, 2 or 3 and never raise,
and a run that fails leaves no output directory.  What a user sees on
stderr is checked too: a failed run prints exactly one ``error[...]``
line, a successful run prints nothing, and no run raises a warning: a
dropped ascent start is counted in ``events.json``, and a failed drift
hook is the run's error line.  The pool holds no large sizes and
``--workers`` is never varied, so no example can allocate much memory or
start many threads.
"""

import contextlib
import copy
import functools
import io
import json
import operator
import os
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from coherentlab.cli import main

TRACKS_CSV = "particle,charge,t,x,y,z\na,1.0,0.0,0.0,0.0,0.0\na,1.0,1.0,0.5,0.0,0.0\n"

BASES = {
    "ring": {
        "experiment": "ring",
        "seed": 3,
        "parameters": {
            "n_grid": 64, "mass": 1.0, "dt": 5e-3, "steps": 20, "record_every": 5,
            "absorber": {"kind": "delta", "center": 0.25, "strength": 0.5},
            "initial": {"profile": "von_mises", "center": 0.5, "concentration": 20.0, "boost": 1},
            "classical": {"members": 200, "region_center": 0.25, "region_width": 0.1},
        },
    },
    "ring_plateau": {
        "experiment": "ring",
        "parameters": {
            "n_grid": 64, "dt": 5e-3, "steps": 20,
            "absorber": {"kind": "plateau", "center": 0.5, "strength": 1.0,
                         "width": 0.1, "sigma": 0.02},
            "initial": {"profile": "fourier_mode", "mode": 2},
        },
    },
    "select_offset": {
        "experiment": "select",
        "parameters": {
            "basis": {"omegas": [1.0], "weights": [1.0]},
            "initial": {"components": [{"coeff": [0.9], "q": [0.0], "p": [0.0]},
                                       {"coeff": [0.5, 0.1], "q": [6.0], "p": [2.0]}]},
            "n_events": 2,
            "schedule": {"energy": [1.0, 2.0]},
            "drift": {"kind": "offset_spawn", "coeff": 0.4, "dq": [3.0], "dp": [-1.0]},
            "t0": 0.5,
        },
    },
    "select_seeded": {
        "experiment": "select",
        "seed": 11,
        "parameters": {
            "basis": {"omegas": [1.0, 0.5]},
            "initial": {"components": [{"coeff": [1.0], "q": [0.0, 1.0], "p": [0.0, 0.0]}]},
            "n_events": 2,
            "schedule": {"energy": 2.0},
            "drift": {"kind": "seeded_spawn", "coeff": 0.45, "count": 1, "spread": 5.0},
        },
    },
    "born": {
        "experiment": "born",
        "seed": 5,
        "parameters": {"thetas": [0.3, 1.0], "samples": 2000, "shards": 2},
    },
    "current_inline": {
        "experiment": "current",
        "parameters": {
            "modes": [{"k": [1.0, 0.0, 0.0], "weight": 0.8, "polarization": 0},
                      {"k": [0.0, 1.0, 0.5], "polarization": 1}],
            "trajectories": [
                {"charge": 1.0, "points": [[0.0, 0.0, 0.0, 0.0], [1.0, 0.4, 0.2, 0.0]]},
                {"charge": -0.5, "points": [[0.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.3, 0.0]]},
            ],
        },
    },
    "current_csv": {
        "experiment": "current",
        "parameters": {"modes": [{"k": [0.5, 0.5, 0.0]}], "trajectories": {"csv": "tracks.csv"}},
    },
    "spread": {
        "experiment": "spread",
        "parameters": {"t_seconds": 2e-4, "x_meters": 1e-9, "mass_kg": 6.6e-26},
    },
}

MISSING = object()

#: Replacement values: negative, zero, non-finite, wrong type, wrong-length
#: list, or the key removed.
POOL = [-1, -0.5, 0, 0.0, float("nan"), float("inf"), float("-inf"),
        "x", True, None, {}, [], [1.0], [1.0, 2.0, 3.0, 4.0, 5.0], MISSING]


def _paths(node, prefix=()):
    """Every dict key and list index path below ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


CASES = [(name, path) for name, config in BASES.items() for path in _paths(config)]


def _replaced(config, path, value):
    config = copy.deepcopy(config)
    *head, last = path
    parent = functools.reduce(operator.getitem, head, config)
    if value is MISSING:
        del parent[last]
    else:
        parent[last] = value
    return config


def _run(config, experiment):
    """Run ``main`` in a fresh working directory and check what it prints.

    Returns (exit code, out exists).
    """
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("tracks.csv").write_text(TRACKS_CSV)
            Path("config.json").write_text(json.dumps(config))
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = main([experiment, "--config", "config.json", "--out", "out"])
            out_exists = Path("out").exists()
        finally:
            os.chdir(cwd)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1 and lines[0].startswith("error["), lines
    assert [str(w.message) for w in caught] == []
    return code, out_exists


def test_every_base_config_runs():
    for name, config in BASES.items():
        assert _run(config, config["experiment"]) == (0, True), name


@settings(max_examples=800, derandomize=True, deadline=None, database=None)
@given(case=st.sampled_from(CASES), value=st.sampled_from(POOL))
def test_one_bad_leaf_never_raises(case, value):
    name, path = case
    experiment = BASES[name]["experiment"]
    code, out_exists = _run(_replaced(BASES[name], path, value), experiment)
    assert code in (0, 2, 3)
    assert out_exists == (code == 0)
