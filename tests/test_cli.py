import errno
import math
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coherentlab
import coherentlab.selection
from coherentlab import spread_estimate
from coherentlab.cli import main
from coherentlab.config import ConfigError, resolve_config

AMU_KG = 1.66053906892e-27
HBAR = 1.054571817e-34


def write_config(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def read_rows(path):
    return path.read_text().splitlines()


class TestSpreadEstimate:
    def test_calcium_ion_case(self):
        m = 40 * AMU_KG
        got = spread_estimate(200e-6, 1e-9, m)
        formula = 200e-6 * (HBAR / 1e-9) / m
        assert got == pytest.approx(formula, rel=1e-12)
        assert got == pytest.approx(3.18e-4, rel=5e-3)

    def test_mass_doubling_halves(self):
        base = spread_estimate(1.0, 1.0, 1.0)
        assert spread_estimate(1.0, 1.0, 2.0) == pytest.approx(base / 2.0, rel=1e-15)

    @pytest.mark.parametrize("args", [(0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 0.0)])
    def test_nonpositive_rejected(self, args):
        with pytest.raises(ValueError):
            spread_estimate(*args)


class TestConfigSchema:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            resolve_config({"experiment": "born", "sede": 1})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            resolve_config(
                {
                    "experiment": "ring",
                    "parameters": {"absorber": {"kind": "delta", "strength": 0.1, "centre": 0.0}},
                }
            )

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing required"):
            resolve_config({"experiment": "ring", "parameters": {}})

    def test_defaults_filled(self):
        cfg, _ = resolve_config(
            {"experiment": "ring", "parameters": {"absorber": {"kind": "delta", "strength": 0.1}}}
        )
        assert cfg["parameters"]["n_grid"] == 256
        assert cfg["parameters"]["initial"]["profile"] == "uniform"
        assert cfg["seed"] == 0

    def test_bad_experiment(self):
        with pytest.raises(ConfigError):
            resolve_config({"experiment": "rings"})

    @pytest.mark.parametrize(
        "dt, message",
        [(True, "must be a number"), ("1e-3", "must be a number"), (10**400, "must be finite")],
    )
    def test_number_must_be_a_finite_json_number(self, dt, message):
        with pytest.raises(ConfigError, match=message):
            resolve_config(
                {"experiment": "ring",
                 "parameters": {"dt": dt, "absorber": {"kind": "delta", "strength": 0.1}}}
            )

    def test_plateau_needs_geometry(self):
        with pytest.raises(ConfigError, match="plateau"):
            resolve_config(
                {"experiment": "ring",
                 "parameters": {"absorber": {"kind": "plateau", "strength": 0.1}}}
            )


class TestCliRing:
    def test_zero_strength_constant_norm(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "ring.json",
            {
                "experiment": "ring",
                "parameters": {
                    "n_grid": 64,
                    "dt": 5e-3,
                    "steps": 300,
                    "record_every": 10,
                    "absorber": {"kind": "delta", "strength": 0.0},
                },
            },
        )
        out = tmp_path / "out"
        assert main(["ring", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "survival.csv")
        assert rows[0] == "t (natural units),norm (dimensionless)"
        norms = [float(r.split(",")[1]) for r in rows[1:]]
        assert max(abs(n - 1.0) for n in norms) <= 1e-10
        # the norm spans a few ulps of 1, and its y ticks stand at distinct heights
        svg = (out / "survival.svg").read_text()
        heights = re.findall(r'<line x1="65" y1="([^"]+)"', svg)
        assert len(heights) >= 2 and len(set(heights)) == len(heights)
        # and their labels tell them apart
        labels = re.findall(r'text-anchor="end" [^>]*>([^<]+)</text>', svg)
        assert len(labels) == len(heights) and len(set(labels)) == len(labels), labels
        resolved = json.loads((out / "config_resolved.json").read_text())
        assert resolved["version"] == "0.1.0"
        assert resolved["parameters"]["absorber"]["kind"] == "delta"

    def test_classical_comparator_written(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "ring.json",
            {
                "experiment": "ring",
                "seed": 5,
                "parameters": {
                    "n_grid": 64,
                    "dt": 5e-3,
                    "steps": 50,
                    "absorber": {"kind": "delta", "strength": 0.2},
                    "classical": {"members": 2000, "region_width": 0.05},
                },
            },
        )
        out = tmp_path / "out"
        assert main(["ring", "--config", cfg, "--out", str(out)]) == 0
        rows = read_rows(out / "classical.csv")
        values = {float(r.split(",")[1]) for r in rows[1:]}
        assert len(values) == 1  # exactly constant

    def test_plateau_sigma_past_the_square_range_runs(self, tmp_path):
        absorber = {"kind": "plateau", "strength": 0.5, "width": 0.1, "sigma": 1e308}
        cfg = write_config(tmp_path, "ring.json", _with(_RING, absorber=absorber))
        assert main(["ring", "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # the step accuracy bound is known from the config, so resolution rejects dt
        cfg = write_config(
            tmp_path,
            "ring.json",
            {
                "experiment": "ring",
                "parameters": {
                    "n_grid": 256,
                    "dt": 1.0,  # violates the step accuracy bound
                    "steps": 10,
                    "absorber": {"kind": "delta", "strength": 0.1},
                },
            },
        )
        assert main(["ring", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(
            "error[config]: config.parameters(ring): dt = 1 exceeds the accuracy bound")
        assert not (tmp_path / "o").exists()


class TestCliSelect:
    def _config(self, tmp_path, n_events=3):
        return write_config(
            tmp_path,
            "select.json",
            {
                "experiment": "select",
                "parameters": {
                    "basis": {"omegas": [0.0]},
                    "initial": {"components": [{"coeff": [1.0], "q": [1.5], "p": [-0.5]}]},
                    "n_events": n_events,
                },
            },
        )

    def test_trivial_drift_reactualizes(self, tmp_path):
        out = tmp_path / "out"
        assert main(["select", "--config", self._config(tmp_path), "--out", str(out)]) == 0
        rows = read_rows(out / "events.csv")
        assert len(rows) == 4  # header + 3 events
        assert rows[0].startswith("index,time (natural units),v (dimensionless),blocked (bool)")
        for row in rows[1:]:
            cells = row.split(",")
            assert float(cells[2]) == pytest.approx(1.0, abs=1e-9)
            assert cells[3] == "false"
            assert float(cells[4]) == pytest.approx(1.5, abs=1e-9)
        doc = json.loads((out / "events.json").read_text())
        assert len(doc["events"]) == 3
        assert doc["events"][0]["chosen"]["q"] == pytest.approx([1.5])

    @pytest.mark.parametrize("coord", [1e7, 1e8, 1e100, 1e154])
    def test_lone_component_far_from_the_origin(self, tmp_path, coord):
        # the Hessian is taken in the probe's frame, so coordinates of this
        # size do not cancel in it: the centre stays a strict maximum
        config = write_config(tmp_path, "far.json", {
            "experiment": "select",
            "parameters": {
                "basis": {"omegas": [1.0]},
                "initial": {"components": [{"coeff": [1.0], "q": [coord], "p": [coord]}]},
                "n_events": 3,
            },
        })
        out = tmp_path / "out"
        assert main(["select", "--config", config, "--out", str(out)]) == 0
        events = json.loads((out / "events.json").read_text())["events"]
        assert len(events) == 3
        for event in events:
            # free rotation of (coord, coord) by the event time, clockwise
            t = event["time"]
            q = coord * (math.cos(t) + math.sin(t))
            p = coord * (math.cos(t) - math.sin(t))
            assert event["chosen"]["q"] == pytest.approx([q], rel=1e-12)
            assert event["chosen"]["p"] == pytest.approx([p], rel=1e-12)
            assert event["v_at_choice"] == 1.0 and event["failed_starts"] == 0

    def test_lone_component_whose_phase_overflows(self, tmp_path):
        # q p = 1e310 overflows the free-evolution phase of the centre, which is
        # itself finite after the turn: one error line, as a user sees it with
        # numpy's default warnings, and no output directory
        config = write_config(tmp_path, "overflow.json", {
            "experiment": "select",
            "parameters": {
                "basis": {"omegas": [1.0]},
                "initial": {"components": [{"coeff": [1.0], "q": [1e155], "p": [1e155]}]},
                "n_events": 3,
            },
        })
        out = tmp_path / "out"
        proc = _run_cli_process(["select", "--config", config, "--out", str(out)],
                                PYTHONWARNINGS="default")
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("error[numeric]: free evolution over dt = 1.0 overflows the phase")
        assert not out.exists()

    def test_search_without_maximum_is_numeric_error(self, tmp_path, monkeypatch, capsys):
        def failing_ascend(end, maxima):
            return end[0], 0.0, False

        monkeypatch.setattr(coherentlab.selection, "ascend", failing_ascend)
        code = main(["select", "--config", self._config(tmp_path), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error[numeric]: no landscape maximum found")
        assert "all 1 ascent start(s) failed" in err

    def test_wrong_subcommand_for_config(self, tmp_path):
        assert main(["born", "--config", self._config(tmp_path), "--out", str(tmp_path / "o")]) == 2


def _spread_overflows(tmp_path, monkeypatch):
    # valid inputs whose result overflows to inf, which JSON cannot hold
    config = {
        "experiment": "spread",
        "parameters": {"t_seconds": 1e300, "x_meters": 1e-300, "mass_kg": 1e-30},
    }
    return "spread", write_config(tmp_path, "spread.json", config), "Out of range float values"


def _select_without_maximum(tmp_path, monkeypatch):
    def failing_ascend(end, maxima):
        return end[0], 0.0, False

    monkeypatch.setattr(coherentlab.selection, "ascend", failing_ascend)
    return "select", TestCliSelect()._config(tmp_path), "no landscape maximum found"


def _cancelling_drift(tmp_path, components):
    # each event the hook adds the leading component again with coefficient -1
    config = {
        "experiment": "select",
        "parameters": {
            "basis": {"omegas": [0.0]},
            "initial": {"components": components},
            "n_events": 3,
            "drift": {"kind": "offset_spawn", "coeff": -1.0, "dq": [0.0], "dp": [0.0]},
        },
    }
    return write_config(tmp_path, "drift.json", config)


_AT_ORIGIN = {"coeff": [1.0], "q": [0.0], "p": [0.0]}


def _select_drift_fails_mid_run(tmp_path, monkeypatch):
    # event 1 collapses onto q = 20; at event 2 the hook cancels that state
    cfg = _cancelling_drift(tmp_path, [_AT_ORIGIN, {"coeff": [0.5], "q": [20.0], "p": [0.0]}])
    return "select", cfg, "drift hook failed at event 2 of 3: state has squared norm 0"


def _select_drift_fails_first(tmp_path, monkeypatch):
    cfg = _cancelling_drift(tmp_path, [_AT_ORIGIN])
    return "select", cfg, "drift hook failed at event 1 of 3: state has squared norm 0"


@pytest.mark.parametrize(
    "failing_run",
    [_spread_overflows, _select_without_maximum, _select_drift_fails_mid_run,
     _select_drift_fails_first],
)
class TestFailedRunLeavesNoOutput:
    def test_no_output_directory(self, tmp_path, monkeypatch, failing_run):
        experiment, cfg, _ = failing_run(tmp_path, monkeypatch)
        out = tmp_path / "runs" / "out"
        assert main([experiment, "--config", cfg, "--out", str(out)]) == 3
        assert [p.name for p in tmp_path.iterdir() if p.is_dir()] == []

    def test_existing_directory_keeps_its_files(self, tmp_path, monkeypatch, failing_run):
        experiment, cfg, _ = failing_run(tmp_path, monkeypatch)
        out = tmp_path / "out"
        out.mkdir()
        (out / "sentinel.txt").write_text("kept")
        assert main([experiment, "--config", cfg, "--out", str(out)]) == 3
        assert [p.name for p in out.iterdir()] == ["sentinel.txt"]
        assert (out / "sentinel.txt").read_text() == "kept"

    def test_one_numeric_error_line(self, tmp_path, monkeypatch, capsys, failing_run):
        experiment, cfg, message = failing_run(tmp_path, monkeypatch)
        assert main([experiment, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error[numeric]: {message}")


_RING = {
    "experiment": "ring",
    "parameters": {"n_grid": 64, "dt": 5e-3, "steps": 10,
                   "absorber": {"kind": "delta", "strength": 0.1}},
}
_SELECT = {
    "experiment": "select",
    "parameters": {"basis": {"omegas": [1.0]},
                   "initial": {"components": [{"coeff": [1.0], "q": [0.0], "p": [0.0]}]}},
}
_BORN = {"experiment": "born", "parameters": {"thetas": [0.3], "samples": 100, "shards": 2}}
_CURRENT = {
    "experiment": "current",
    "parameters": {"modes": [{"k": [1.0, 0.0, 0.0]}],
                   "trajectories": [{"charge": 1.0, "points": [[0, 0, 0, 0], [1, 0.5, 0, 0]]}]},
}
_SPREAD = {"experiment": "spread",
           "parameters": {"t_seconds": 1.0, "x_meters": 1e-9, "mass_kg": 1e-26}}


def _with(base, **params):
    return {**base, "parameters": {**base["parameters"], **params}}


def _track(*points):
    return [{"charge": 1.0, "points": list(points)}]


# no grid point of n_grid 64 lies where exp(kappa (cos - 1)) is nonzero
_UNDERFLOWING_VON_MISES = {"profile": "von_mises", "center": 0.501, "concentration": 1e10}

# Each input is rejected during resolution: by the schema, or while resolution builds
# the domain objects.
BAD_INPUTS = {
    "n_grid_not_a_power_of_two": _with(_RING, n_grid=100),
    "von_mises_packet_underflows": _with(_RING, initial=_UNDERFLOWING_VON_MISES),
    "von_mises_exponent_overflows": _with(
        _RING, initial={**_UNDERFLOWING_VON_MISES, "concentration": 1e308}),
    "delta_absorber_negative_strength": _with(
        _RING, absorber={"kind": "delta", "strength": -1.0}),
    "delta_absorber_negative_width": _with(
        _RING, absorber={"kind": "delta", "strength": 0.1, "width": -1.0}),
    "offset_spawn_longer_than_basis": _with(
        _SELECT, drift={"kind": "offset_spawn", "dq": [1.0, 2.0], "dp": [0.0, 0.0]}),
    "negative_omega": _with(_SELECT, basis={"omegas": [-1.0]}),
    "coeff_of_three_numbers": _with(_SELECT, initial={"components": [
        {"coeff": [1.0, 0.0, 0.0], "q": [0.0], "p": [0.0]}]}),
    "zero_basis_weight": _with(_SELECT, basis={"omegas": [1.0], "weights": [0.0]}),
    "zero_norm_state": _with(_SELECT, initial={"components": [
        {"coeff": [1.0], "q": [0.0], "p": [0.0]}, {"coeff": [-1.0], "q": [0.0], "p": [0.0]}]}),
    "superluminal_trajectory": _with(_CURRENT, trajectories=_track([0, 0, 0, 0], [1, 2, 0, 0])),
    "zero_wave_vector": _with(_CURRENT, modes=[{"k": [0.0, 0.0, 0.0]}]),
    "wave_vector_length_overflows": _with(_CURRENT, modes=[{"k": [1e300, 1e300, 0.0]}]),
    "decreasing_breakpoint_times": _with(
        _CURRENT, trajectories=_track([1, 0, 0, 0], [0, 0.1, 0, 0])),
    "breakpoint_interval_overflows": _with(
        _CURRENT, trajectories=_track([-1e308, 0, 0, 0], [1e308, 0, 0, 0])),
    "breakpoint_step_overflows": _with(
        _CURRENT, trajectories=_track([0, -1e308, 0, 0], [1, 1e308, 0, 0])),
    "missing_trajectory_csv": _with(_CURRENT, trajectories={"csv": "missing.csv"}),
    "trajectory_csv_without_rows": _with(_CURRENT, trajectories={"csv": "header_only.csv"}),
    "trajectory_csv_short_row": _with(_CURRENT, trajectories={"csv": "short_row.csv"}),
    "trajectory_csv_long_row": _with(_CURRENT, trajectories={"csv": "long_row.csv"}),
    "trajectories_over_different_spans": _with(
        _CURRENT,
        trajectories=_track([0, 0, 0, 0], [1, 0.5, 0, 0]) + _track([0, 1, 0, 0], [2, 1, 0, 0])),
    "schedule_shorter_than_events": _with(_SELECT, n_events=3, schedule={"energy": [1.0, 2.0]}),
    "schedule_interval_overflows": _with(_SELECT, n_events=2, schedule={"energy": 1e-310}),
    "schedule_event_time_overflows": _with(_SELECT, n_events=3, schedule={"energy": 1e-308}),
    "schedule_interval_below_the_t0_ulp": _with(_SELECT, t0=1e16),
    "ring_zero_dt": _with(_RING, dt=0.0),
    "ring_zero_steps": _with(_RING, steps=0),
    "ring_zero_record_every": _with(_RING, record_every=0),
    "born_zero_shards": _with(_BORN, shards=0),
    "born_zero_samples": _with(_BORN, samples=0),
    "born_theta_above_a_right_angle": _with(_BORN, thetas=[0.5, float(np.nextafter(np.pi / 2, 4))]),
    "select_zero_events_scalar_schedule": _with(_SELECT, n_events=0, schedule={"energy": 2.0}),
    "seeded_spawn_zero_count": _with(_SELECT, drift={"kind": "seeded_spawn", "count": 0}),
    "seeded_spawn_zero_spread": _with(_SELECT, drift={"kind": "seeded_spawn", "spread": 0.0}),
    "von_mises_zero_concentration": _with(
        _RING, initial={"profile": "von_mises", "concentration": 0.0}),
    "classical_zero_members": _with(_RING, classical={"members": 0, "region_width": 0.1}),
    "classical_region_wider_than_the_ring": _with(_RING, classical={"region_width": 1.5}),
    "spread_zero_mass": _with(_SPREAD, mass_kg=0.0),
    "out_null": {**_SPREAD, "out": None},
    "out_list": {**_SPREAD, "out": ["a"]},
    "trajectory_csv_number": _with(_CURRENT, trajectories={"csv": 5}),
}

# The error line of these inputs names the config key and the value given.
KEY_IN_MESSAGE = {
    "delta_absorber_negative_strength": "absorber strength must be >= 0",
    "coeff_of_three_numbers": "must be [re] or [re, im]",
    "born_zero_samples": "samples must be >= 1, got 0",
    "spread_zero_mass": "mass_kg must be positive and finite, got 0.0",
    "trajectory_csv_short_row": "line 3 does not have the header's 6 fields",
    "trajectory_csv_long_row": "line 3 does not have the header's 6 fields",
    "out_null": "config.out must be a string",
    "out_list": "config.out must be a string",
    "trajectory_csv_number": "config.parameters(current).trajectories.csv must be a string",
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_is_config_error(tmp_path, monkeypatch, capsys, name):
    monkeypatch.chdir(tmp_path)
    header = "particle,charge,t,x,y,z\n"
    (tmp_path / "header_only.csv").write_text(header)
    (tmp_path / "short_row.csv").write_text(header + "a,1,0,0,0,0\na,1,1,0.5,0\n")
    (tmp_path / "long_row.csv").write_text(header + "a,1,0,0,0,0\na,1,1,0.5,0,0,7\n")
    config = BAD_INPUTS[name]
    cfg = write_config(tmp_path, "bad.json", config)
    assert main([config["experiment"], "--config", cfg, "--out", "out"]) == 2
    err = [line for line in capsys.readouterr().err.splitlines()
           if line.startswith("error[config]:")]
    assert err and KEY_IN_MESSAGE.get(name, "") in err[0], err
    assert [p.name for p in tmp_path.iterdir() if p.is_dir()] == []


def _assert_prints_one_error_line(tmp_path, config, code, tag):
    _assert_file_prints_one_line(tmp_path, json.dumps(config).encode(), code, f"error[{tag}]:")


def _run_cli_process(args, **env):
    """Run the CLI in a fresh interpreter, with ``env`` added to the environment.

    A RuntimeWarning is an error there, as in the in-process tests.
    """
    src = str(Path(coherentlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "PYTHONWARNINGS": "error::RuntimeWarning", **env}
    return subprocess.run([sys.executable, "-m", "coherentlab", *args],
                          capture_output=True, text=True, env=env, timeout=60)


def _assert_file_prints_one_line(tmp_path, raw, code, prefix):
    # a separate process, so that numpy warnings and tracebacks reach stderr
    # as a user sees them
    cfg = tmp_path / "ring.json"
    cfg.write_bytes(raw)
    proc = _run_cli_process(["ring", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert proc.returncode == code
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), lines
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "raw",
    [b"\xff\xfe", b"[" * 100000 + b"]" * 100000],
    ids=["not_utf8", "nested_too_deeply"],
)
def test_unreadable_config_file_prints_one_config_error(tmp_path, raw):
    _assert_file_prints_one_line(tmp_path, raw, 2, "error[config]: cannot read config:")


def test_config_that_is_not_an_object_prints_one_config_error(tmp_path):
    _assert_file_prints_one_line(tmp_path, b"[]", 2, "error[config]: config must be a JSON object")


@pytest.mark.parametrize(
    "args, code, prefix",
    [(["--workers", "0"], 2, "error[config]: workers must be >= 1"),
     (["--out", "a_file/out"], 3, "error[io]: [Errno 20] Not a directory")],
    ids=["zero_workers", "out_below_a_file"],
)
def test_bad_argument_prints_one_line_and_writes_nothing(
        tmp_path, monkeypatch, capsys, args, code, prefix):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a_file").write_text("kept")
    cfg = write_config(tmp_path, "ring.json", _RING)
    assert main(["ring", "--config", cfg, "--out", "out", *args]) == code
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(prefix)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a_file", "ring.json"]


def test_empty_von_mises_grid_prints_only_the_config_error(tmp_path):
    _assert_prints_one_error_line(
        tmp_path, _with(_RING, n_grid=0, initial={"profile": "von_mises"}), 2, "config")


def test_underflowing_von_mises_packet_prints_only_the_config_error(tmp_path):
    _assert_prints_one_error_line(
        tmp_path, _with(_RING, initial=_UNDERFLOWING_VON_MISES), 2, "config")


def test_sample_ring_config_with_dt_above_the_bound_prints_only_the_config_error(tmp_path):
    config = json.loads((Path(__file__).resolve().parents[1] / "configs" / "ring.json").read_text())
    config["parameters"]["dt"] = 0.01
    _assert_prints_one_error_line(tmp_path, config, 2, "config")


def test_grid_too_large_to_allocate_prints_one_memory_error(tmp_path):
    # 2**52 complex amplitudes are 64 PiB: the allocation fails on any machine
    _assert_prints_one_error_line(tmp_path, _with(_RING, n_grid=2**52), 3, "memory")


_SADDLE_START = {
    "experiment": "select",
    "parameters": {
        "basis": {"omegas": [1.0]},
        "initial": {"components": [{"coeff": [1.0], "q": [0.0], "p": [0.0]},
                                   {"coeff": [1.0], "q": [5.0], "p": [0.0]}]},
        "n_events": 1,
    },
}


def test_dropped_ascent_start_is_counted_not_printed(tmp_path):
    # two equal bumps: the ascent start at their midpoint sits on a saddle
    cfg = write_config(tmp_path, "saddle.json", _SADDLE_START)
    out = tmp_path / "out"
    proc = _run_cli_process(["select", "--config", cfg, "--out", str(out)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    (event,) = json.loads((out / "events.json").read_text())["events"]
    assert event["failed_starts"] == 1


def test_failed_drift_hook_is_one_line_with_its_reason(tmp_path):
    _, cfg, _ = _select_drift_fails_mid_run(tmp_path, None)
    out = tmp_path / "out"
    proc = _run_cli_process(["select", "--config", cfg, "--out", str(out)])
    assert proc.returncode == 3
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error[numeric]: drift hook failed at event 2 of 3:")
    assert "squared norm 0" in line
    assert not out.exists()


_TWO_BUMPS = _with(_SELECT, initial={"components": [
    {"coeff": [1.0], "q": [0.0], "p": [0.0]}, {"coeff": [0.5], "q": [3.0], "p": [0.0]}]})


@pytest.mark.parametrize(
    "params",
    [{"n_events": 3, "t0": 1e16, "schedule": {"energy": 0.5}},
     {"n_events": 1, "t0": 1e17, "schedule": {"energy": 0.0625}},
     {"n_events": 3, "t0": -1.5e308, "schedule": {"energy": 1e-308}},
     {"n_events": 1, "t0": 1.7976931348623155e308, "schedule": {"energy": 5e-293}}],
    ids=["ticks_below_half_an_ulp", "one_event_above_two_to_the_53",
         "axis_wider_than_the_float_range", "one_event_at_the_largest_float"],
)
def test_event_times_of_large_magnitude_are_plotted(tmp_path, params):
    # a tick step of half an ulp of t, a one-event time axis whose unit
    # widening rounds away, an axis from -5e307 to 1.5e308 whose width
    # overflows, or a one-event axis at the largest float, which widens
    # below it, must still give a finite set of ticks at finite positions
    cfg = write_config(tmp_path, "late.json", _with(_TWO_BUMPS, **params))
    out = tmp_path / "out"
    proc = _run_cli_process(["select", "--config", cfg, "--out", str(out)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    svg = (out / "events.svg").read_text()
    assert "<svg" in svg and "nan" not in svg


def test_delta_absorber_too_deep_for_a_float_saturates_silently(tmp_path):
    written = []
    for strength in (1e300, 1e308):
        config = _with(_RING, absorber={"kind": "delta", "strength": strength})
        cfg = write_config(tmp_path, f"deep{strength:g}.json", config)
        out = tmp_path / f"out{strength:g}"
        proc = _run_cli_process(["ring", "--config", cfg, "--out", str(out)])
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
        written.append([(out / name).read_bytes() for name in ("survival.csv", "survival.svg")])
    assert written[0] == written[1]


_HUGE_COEFF = {"coeff": [1e300], "q": [0.0], "p": [0.0]}
_HUGE_SPAWN = {"kind": "offset_spawn", "coeff": 1e300, "dq": [3.0], "dp": [0.0]}


@pytest.mark.parametrize(
    "config, code, prefix",
    [(_with(_SELECT, initial={"components": [_HUGE_COEFF]}), 2,
      "error[config]: config.parameters(select): state has squared norm inf"),
     (_with(_SELECT, drift=_HUGE_SPAWN), 3,
      "error[numeric]: drift hook failed at event 1 of 3: state has squared norm inf")],
    ids=["initial_coeff", "drift_coeff"],
)
def test_overflowing_coefficient_prints_only_the_norm_rule(tmp_path, config, code, prefix):
    cfg = write_config(tmp_path, "huge.json", config)
    proc = _run_cli_process(["select", "--config", cfg, "--out", str(tmp_path / "out")])
    assert (proc.returncode, proc.stdout) == (code, "")
    (line,) = proc.stderr.splitlines()
    assert line.startswith(prefix), line
    assert not (tmp_path / "out").exists()


def test_component_whose_q_doubled_overflows_is_named(tmp_path):
    # q + q overflows in the kernel above max / 2, which would make the self-overlap 0
    component = {"coeff": [1.0], "q": [1e308], "p": [0.0]}
    cfg = write_config(tmp_path, "q.json", _with(_SELECT, initial={"components": [
        *_SELECT["parameters"]["initial"]["components"], component]}))
    proc = _run_cli_process(["select", "--config", cfg, "--out", str(tmp_path / "out")])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == [
        "error[config]: config.parameters(select): component 1 has q[0] = 1e+308, "
        "above the magnitude 8.988465674311579e+307 at which the kernel's q + q overflows"]
    assert not (tmp_path / "out").exists()


def test_charge_whose_content_overflows_persists_with_probability_0(tmp_path):
    cfg = write_config(tmp_path, "huge.json", _with(_CURRENT, trajectories=[
        {"charge": 1e200, "points": [[0, 0, 0, 0], [1, 0, 0.5, 0]]}]))
    out = tmp_path / "out"
    proc = _run_cli_process(["current", "--config", cfg, "--out", str(out)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert json.loads((out / "current.json").read_text())["vacuum_persistence"] == 0.0


def test_mode_at_large_k_is_on_its_shell(tmp_path):
    # at |k| = 1.76e7 one ulp is 3.7e-9, above an absolute shell tolerance of 1e-9
    cfg = write_config(tmp_path, "big_k.json", _with(_CURRENT, modes=[
        {"k": [13040000.451301372, 9470809.631292421, -7037352.358069926]}]))
    out = tmp_path / "out"
    proc = _run_cli_process(["current", "--config", cfg, "--out", str(out)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert sorted(p.name for p in out.iterdir()) == [
        "config_resolved.json", "current.csv", "current.json"]
    doc = json.loads((out / "current.json").read_text())
    assert 0.0 < doc["vacuum_persistence"] <= 1.0


def test_component_too_far_for_a_float_exponent_runs_silently(tmp_path):
    # at q = p = 1e154 the kernel exponent and the start distance overflow: the
    # overlap with the far component flushes to 0, and the two are not near
    far = {"coeff": [0.5], "q": [1e154], "p": [1e154]}
    cfg = write_config(tmp_path, "far.json", _with(_SELECT, initial={"components": [
        *_SELECT["parameters"]["initial"]["components"], far]}))
    proc = _run_cli_process(["select", "--config", cfg, "--out", str(tmp_path / "out")])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


def test_memory_error_during_the_run_is_one_line(tmp_path, monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(coherentlab.cli, "survival_curve", exhausted)
    cfg = write_config(tmp_path, "ring.json", _RING)
    assert main(["ring", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.splitlines() == ["error[memory]: out of memory"]
    assert not (tmp_path / "out").exists()


def test_directory_in_an_artifact_place_fails_before_any_move(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "survival.csv").mkdir(parents=True)
    # classical.csv and config_resolved.json sort before the blocked survival.csv
    cfg = write_config(tmp_path, "ring.json", _with(_RING, classical={"region_width": 0.1}))
    assert main(["ring", "--config", cfg, "--out", str(out)]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error[io]: [Errno 21] Is a directory")
    assert [p.name for p in out.iterdir()] == ["survival.csv"]
    assert [p.name for p in tmp_path.iterdir() if p.is_dir()] == ["out"]


@pytest.mark.parametrize("error, kind", [
    (OSError(errno.ENOSPC, "No space left on device"), "io"),
    (ValueError("cannot plot non-finite values"), "numeric"),
])
class TestFailedWriteLeavesNoOutput:
    """A ring run whose plot fails after its two CSVs are written."""

    def _run_failing_plot(self, tmp_path, monkeypatch, error, out):
        written = []

        def failing_plot(path, *args, **kwargs):
            written.extend(sorted(p.name for p in Path(path).parent.iterdir()))
            raise error

        monkeypatch.setattr(coherentlab.cli, "svg_line_plot", failing_plot)
        cfg = write_config(tmp_path, "ring.json", _with(_RING, classical={"region_width": 0.1}))
        code = main(["ring", "--config", cfg, "--out", str(out)])
        assert written == ["classical.csv", "config_resolved.json", "survival.csv"]
        return code

    def test_one_error_line_and_no_directory(self, tmp_path, monkeypatch, capsys, error, kind):
        assert self._run_failing_plot(tmp_path, monkeypatch, error, tmp_path / "runs" / "out") == 3
        assert capsys.readouterr().err.splitlines() == [f"error[{kind}]: {error}"]
        assert list(tmp_path.glob(".coherentlab-run-*")) == []
        assert [p.name for p in tmp_path.iterdir() if p.is_dir()] == []

    def test_existing_directory_keeps_only_its_files(self, tmp_path, monkeypatch, error, kind):
        out = tmp_path / "out"
        out.mkdir()
        (out / "sentinel.txt").write_text("kept")
        assert self._run_failing_plot(tmp_path, monkeypatch, error, out) == 3
        assert [p.name for p in out.iterdir()] == ["sentinel.txt"]
        assert (out / "sentinel.txt").read_text() == "kept"


def test_thetas_a_few_subnormal_units_apart_are_plotted(tmp_path):
    cfg = write_config(tmp_path, "born.json", _with(_BORN, thetas=[0.0, 5e-323]))
    assert main(["born", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "born.svg").exists()


def test_nan_charge_in_a_trajectory_csv_is_not_finite(tmp_path):
    # NaN != NaN, which once read as two different charges of one particle
    tracks = tmp_path / "tracks.csv"
    tracks.write_text("particle,charge,t,x,y,z\na,nan,0.0,0.0,0.0,0.0\na,nan,1.0,0.5,0.0,0.0\n")
    with pytest.raises(ConfigError, match="charge must be finite"):
        resolve_config(_with(_CURRENT, trajectories={"csv": str(tracks)}))


class TestCliBorn:
    def _config(self, tmp_path, seed=42):
        return write_config(
            tmp_path,
            "born.json",
            {
                "experiment": "born",
                "seed": seed,
                "parameters": {"thetas": [0.2, 0.7, 1.2], "samples": 40000},
            },
        )

    def test_rerun_byte_identical(self, tmp_path):
        cfg = self._config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["born", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["born", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "born.csv").read_bytes() == (out2 / "born.csv").read_bytes()

    def test_worker_counts_byte_identical(self, tmp_path):
        cfg = self._config(tmp_path)
        outputs = []
        for w in (1, 2, 8):
            out = tmp_path / f"w{w}"
            assert main(["born", "--config", cfg, "--out", str(out), "--workers", str(w)]) == 0
            outputs.append((out / "born.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_seed_override_changes_output(self, tmp_path):
        cfg = self._config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["born", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["born", "--config", cfg, "--out", str(out2), "--seed", "7"]) == 0
        assert (out1 / "born.csv").read_bytes() != (out2 / "born.csv").read_bytes()

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        cfg = self._config(tmp_path)
        env_out = tmp_path / "env_out"
        monkeypatch.setenv("COHERENTLAB_OUT", str(env_out))
        assert main(["born", "--config", cfg]) == 0
        assert (env_out / "born.csv").exists()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        cfg = self._config(tmp_path)
        monkeypatch.setenv("COHERENTLAB_OUT", str(tmp_path / "env_out"))
        flag_out = tmp_path / "flag_out"
        assert main(["born", "--config", cfg, "--out", str(flag_out)]) == 0
        assert (flag_out / "born.csv").exists()
        assert not (tmp_path / "env_out").exists()

    def test_missing_out_is_config_error(self, tmp_path, monkeypatch):
        monkeypatch.delenv("COHERENTLAB_OUT", raising=False)
        assert main(["born", "--config", self._config(tmp_path)]) == 2


class TestCliCurrent:
    def test_inline_trajectories(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "current.json",
            {
                "experiment": "current",
                "parameters": {
                    "modes": [
                        {"k": [1.0, 0.0, 0.0], "polarization": 0},
                        {"k": [0.0, 1.0, 0.5], "polarization": 1},
                    ],
                    "trajectories": [
                        {"charge": 1.0,
                         "points": [[0.0, 0.0, 0.0, 0.0], [1.0, 0.4, 0.2, 0.0]]}
                    ],
                },
            },
        )
        out = tmp_path / "out"
        assert main(["current", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "current.json").read_text())
        assert 0.0 < doc["vacuum_persistence"] <= 1.0
        rows = read_rows(out / "current.csv")
        assert len(rows) == 3

    def test_csv_trajectories(self, tmp_path):
        tracks = tmp_path / "tracks.csv"
        tracks.write_text(
            "particle,charge,t,x,y,z\n"
            "a,1.0,0.0,0.0,0.0,0.0\n"
            "a,1.0,1.0,0.5,0.0,0.0\n"
        )
        cfg = write_config(
            tmp_path,
            "current.json",
            {
                "experiment": "current",
                "parameters": {
                    "modes": [{"k": [0.5, 0.5, 0.0]}],
                    "trajectories": {"csv": str(tracks)},
                },
            },
        )
        out = tmp_path / "out"
        assert main(["current", "--config", cfg, "--out", str(out)]) == 0

    def test_csv_trajectories_are_utf8_in_any_locale(self, tmp_path):
        # a separate process per locale, since the locale's encoding is
        # fixed when the interpreter starts
        tracks = tmp_path / "tracks.csv"
        tracks.write_text(
            "particle,charge,t,x,y,z\n"
            "\u00e9,1.0,0.0,0.0,0.0,0.0\n"
            "\u00e9,1.0,1.0,0.5,0.0,0.0\n",
            encoding="utf-8",
        )
        cfg = write_config(
            tmp_path,
            "current.json",
            {
                "experiment": "current",
                "parameters": {
                    "modes": [{"k": [0.5, 0.5, 0.0]}],
                    "trajectories": {"csv": str(tracks)},
                },
            },
        )
        locales = {
            "utf8": {"LC_ALL": "C.UTF-8"},
            "ascii": {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
        }
        written = []
        for name, env in locales.items():
            out = tmp_path / name
            proc = _run_cli_process(["current", "--config", cfg, "--out", str(out)], **env)
            assert proc.returncode == 0, (name, proc.stderr)
            written.append((out / "current.csv").read_bytes())
        assert written[0] == written[1]


class TestCliSpread:
    def test_writes_result(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "spread.json",
            {
                "experiment": "spread",
                "parameters": {
                    "t_seconds": 200e-6,
                    "x_meters": 1e-9,
                    "mass_kg": 40 * AMU_KG,
                },
            },
        )
        out = tmp_path / "out"
        assert main(["spread", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "spread.json").read_text())
        assert doc["spread_meters"] == pytest.approx(3.18e-4, rel=5e-3)

    def test_existing_directory_keeps_its_files(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "spread.json",
            {
                "experiment": "spread",
                "parameters": {"t_seconds": 1.0, "x_meters": 1.0, "mass_kg": 1.0},
            },
        )
        out = tmp_path / "out"
        out.mkdir()
        (out / "sentinel.txt").write_text("kept")
        assert main(["spread", "--config", cfg, "--out", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["config_resolved.json", "sentinel.txt", "spread.json"]
        assert [p.name for p in tmp_path.iterdir() if p.is_dir()] == ["out"]

    def test_non_finite_result_is_numeric_error(self, tmp_path, capsys):
        # 1e300 * (hbar / 1e-300) / 1e-30 overflows; JSON has no Infinity
        cfg = write_config(
            tmp_path,
            "spread.json",
            {
                "experiment": "spread",
                "parameters": {"t_seconds": 1e300, "x_meters": 1e-300, "mass_kg": 1e-30},
            },
        )
        assert main(["spread", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert any(line.startswith("error[numeric]:") for line in err), err
        assert [p.name for p in tmp_path.iterdir() if p.is_dir()] == []

    def test_unreadable_config(self, tmp_path):
        assert main(["spread", "--config", str(tmp_path / "missing.json")]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["spread", "--config", str(path)]) == 2
