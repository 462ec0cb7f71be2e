import json

import numpy as np
import pytest

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
        cfg = resolve_config(
            {"experiment": "ring", "parameters": {"absorber": {"kind": "delta", "strength": 0.1}}}
        )
        assert cfg["parameters"]["n_grid"] == 256
        assert cfg["parameters"]["initial"]["profile"] == "uniform"
        assert cfg["seed"] == 0

    def test_bad_experiment(self):
        with pytest.raises(ConfigError):
            resolve_config({"experiment": "rings"})

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
        assert (out / "survival.svg").exists()
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

    def test_numerical_failure_exit_code(self, tmp_path):
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
        assert main(["ring", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


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

    def test_search_without_maximum_is_numeric_error(self, tmp_path, monkeypatch, capsys):
        def failing_ascend(state, start, tol, max_iter):
            return np.asarray(start, dtype=float), 0.0, False

        monkeypatch.setattr(coherentlab.selection, "ascend", failing_ascend)
        with pytest.warns(RuntimeWarning):
            code = main(["select", "--config", self._config(tmp_path), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error[numeric]: no landscape maximum found")
        assert "all 1 ascent start(s) failed" in err

    def test_wrong_subcommand_for_config(self, tmp_path):
        assert main(["born", "--config", self._config(tmp_path), "--out", str(tmp_path / "o")]) == 2


def _ring_with_bad_grid(tmp_path, monkeypatch):
    config = {
        "experiment": "ring",
        "parameters": {"n_grid": 100, "absorber": {"kind": "delta", "strength": 0.1}},
    }
    return "ring", write_config(tmp_path, "ring.json", config)


def _select_without_maximum(tmp_path, monkeypatch):
    def failing_ascend(state, start, tol, max_iter):
        return np.asarray(start, dtype=float), 0.0, False

    monkeypatch.setattr(coherentlab.selection, "ascend", failing_ascend)
    return "select", TestCliSelect()._config(tmp_path)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("failing_run", [_ring_with_bad_grid, _select_without_maximum])
class TestFailedRunLeavesNoOutput:
    def test_no_output_directory(self, tmp_path, monkeypatch, failing_run):
        experiment, cfg = failing_run(tmp_path, monkeypatch)
        out = tmp_path / "runs" / "out"
        assert main([experiment, "--config", cfg, "--out", str(out)]) == 3
        assert [p.name for p in tmp_path.iterdir() if p.is_dir()] == []

    def test_existing_directory_keeps_its_files(self, tmp_path, monkeypatch, failing_run):
        experiment, cfg = failing_run(tmp_path, monkeypatch)
        out = tmp_path / "out"
        out.mkdir()
        (out / "sentinel.txt").write_text("kept")
        assert main([experiment, "--config", cfg, "--out", str(out)]) == 3
        assert [p.name for p in out.iterdir()] == ["sentinel.txt"]
        assert (out / "sentinel.txt").read_text() == "kept"


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

    def test_unreadable_config(self, tmp_path):
        assert main(["spread", "--config", str(tmp_path / "missing.json")]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["spread", "--config", str(path)]) == 2
