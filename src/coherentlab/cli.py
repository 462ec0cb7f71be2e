"""Configuration-driven command line entry point.

One subcommand per experiment family in ``config.EXPERIMENTS``.  Every
run resolves its config strictly (which builds the experiment's domain
objects), echoes the fully resolved config (defaults included, plus the
artifact version) into the output directory, and writes CSV/JSON
results plus an SVG plot where the experiment produces a curve.
Identical (config, seed) runs produce byte-identical CSV and JSON
regardless of worker count.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
Every bad input exits 2 during resolution, before the run starts: a
config file that cannot be read, is not UTF-8 or nests too deeply for
the JSON parser, a file the config refers to, a ring time step above
the accuracy bound, a schedule whose event times overflow or stop
increasing.  Exit 3 is kept for failures inside the run: a selection
ascent that finds no maximum, a drift hook that fails before the last
event and a spread that JSON cannot hold, each with one
``error[numeric]`` line, and a write that fails, with one ``error[io]``
line.  An allocation that fails, during resolution or the run, also
exits 3, with one ``error[memory]`` line.
A failed run creates no output directory and writes nothing into an
existing one.  The output directory resolves as: --out flag, else the
COHERENTLAB_OUT environment variable, else the config's "out" entry.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from . import __version__
from .borngeo import sweep_transition_prob
from .config import EXPERIMENTS, ConfigError, resolve_config
from .currents import (
    _wave_vectors,
    current_j,
    displacement_from_current,
    lorentz_dot,
    vacuum_persistence,
)
from .reporting import svg_line_plot, write_csv, write_json
from .ring import classical_survival, survival_curve
from .selection import record_as_dict, run_sequence

ENV_OUT = "COHERENTLAB_OUT"


def _run_ring(config: dict, inputs: dict, outdir: Path, workers: int) -> None:
    p = config["parameters"]
    curve = survival_curve(
        inputs["state"], inputs["absorber"], p["dt"], p["steps"], p["record_every"]
    )
    write_csv(
        outdir / "survival.csv",
        ["t (natural units)", "norm (dimensionless)"],
        zip(curve.t.tolist(), curve.survival.tolist()),
    )
    series = [(curve.t, curve.survival, "quantum")]
    if p["classical"] is not None:
        c = p["classical"]
        classical = classical_survival(
            inputs["ensemble"], c["region_center"], c["region_width"], curve.t
        )
        write_csv(
            outdir / "classical.csv",
            ["t (natural units)", "survival (fraction)"],
            zip(classical.t.tolist(), classical.survival.tolist()),
        )
        series.append((classical.t, classical.survival, "classical"))
    svg_line_plot(
        outdir / "survival.svg",
        series,
        title="Ring survival",
        xlabel="t (natural units)",
        ylabel="survival",
    )


def _run_select(config: dict, inputs: dict, outdir: Path, workers: int) -> None:
    p = config["parameters"]
    state = inputs["state"]
    records = run_sequence(state, inputs["schedule"], inputs["drift"], p["n_events"], p["t0"])
    if records.abort is not None:
        raise ValueError(records.abort)
    n = state.n_modes
    header = (
        ["index", "time (natural units)", "v (dimensionless)", "blocked (bool)"]
        + [f"q{k} (quadrature units)" for k in range(n)]
        + [f"p{k} (quadrature units)" for k in range(n)]
    )
    rows = [
        [r.index, r.time, r.v_at_choice, json.dumps(r.blocked)]
        + r.chosen.q.tolist()
        + r.chosen.p.tolist()
        for r in records
    ]
    write_csv(outdir / "events.csv", header, rows)
    write_json(outdir / "events.json", {"events": [record_as_dict(r) for r in records]})
    svg_line_plot(
        outdir / "events.svg",
        [([r.time for r in records], [r.v_at_choice for r in records], "v at choice")],
        title="Selection events",
        xlabel="t (natural units)",
        ylabel="v",
    )


def _run_born(config: dict, inputs: dict, outdir: Path, workers: int) -> None:
    p = config["parameters"]
    rows = sweep_transition_prob(
        p["thetas"], p["samples"], config["seed"], shards=p["shards"], workers=workers
    )
    write_csv(
        outdir / "born.csv",
        [
            "theta (rad)",
            "n (count)",
            "p_hat (dimensionless)",
            "stderr (dimensionless)",
            "cos2theta (dimensionless)",
            "z_score (dimensionless)",
        ],
        [[r["theta"], r["n"], r["p_hat"], r["stderr"], r["cos2theta"], r["z_score"]] for r in rows],
    )
    thetas = [r["theta"] for r in rows]
    svg_line_plot(
        outdir / "born.svg",
        [
            (thetas, [r["p_hat"] for r in rows], "measured"),
            (thetas, [r["cos2theta"] for r in rows], "cos^2 theta"),
        ],
        title="Acceptance frequency vs transition angle",
        xlabel="theta (rad)",
        ylabel="acceptance",
    )


def _run_current(config: dict, inputs: dict, outdir: Path, workers: int) -> None:
    modes, trajectories = inputs["modes"], inputs["trajectories"]
    point = displacement_from_current(trajectories, modes)
    persistence = vacuum_persistence(trajectories, modes)
    header = [
        "mode (index)",
        "k0 (natural units)", "kx (natural units)", "ky (natural units)", "kz (natural units)",
        "weight (dimensionless)", "polarization (index)",
        "j0_re", "j0_im", "jx_re", "jx_im", "jy_re", "jy_im", "jz_re", "jz_im",
        "k_dot_j_re", "k_dot_j_im",
        "q (quadrature units)", "p (quadrature units)",
    ]
    k = _wave_vectors(modes)
    j = current_j(trajectories, k)
    div = lorentz_dot(k, j)
    rows = [
        [i, mode.omega, *mode.k_vec.tolist(), mode.weight, mode.polarization]
        + [part for z in (*j_i, d) for part in (z.real, z.imag)]
        + [q, p]
        for i, (mode, j_i, d, q, p) in enumerate(
            zip(modes, j.tolist(), div.tolist(), point.q.tolist(), point.p.tolist())
        )
    ]
    write_csv(outdir / "current.csv", header, rows)
    write_json(
        outdir / "current.json",
        {
            "vacuum_persistence": persistence,
            "n_modes": len(modes),
            "n_trajectories": len(trajectories),
            "displacement": {"q": point.q.tolist(), "p": point.p.tolist()},
        },
    )


def _run_spread(config: dict, inputs: dict, outdir: Path, workers: int) -> None:
    p = config["parameters"]
    write_json(
        outdir / "spread.json",
        {
            "t_seconds": p["t_seconds"],
            "x_meters": p["x_meters"],
            "mass_kg": p["mass_kg"],
            "spread_meters": inputs["spread_meters"],
        },
    )


_RUNNERS = {
    "ring": _run_ring,
    "select": _run_select,
    "born": _run_born,
    "current": _run_current,
    "spread": _run_spread,
}


def run(config: dict, inputs: dict, workers: int = 1) -> None:
    """Run a resolved config on the domain objects its resolution built.

    Artifacts go to a temporary directory in the output directory, or in
    its nearest existing ancestor (so on the same file system), and are
    moved into the output directory only when the run succeeds.
    """
    outdir = Path(config["out"])
    base = next(d for d in (outdir, *outdir.parents) if d.is_dir())
    workdir = Path(tempfile.mkdtemp(prefix=".coherentlab-run-", dir=base))
    try:
        echoed = {**config, "version": __version__, "out": str(outdir)}
        write_json(workdir / "config_resolved.json", echoed)
        _RUNNERS[config["experiment"]](config, inputs, workdir, workers)
        artifacts = sorted(workdir.iterdir())
        # a directory in an artifact's place would fail its move after earlier moves
        for target in (outdir / path.name for path in artifacts):
            if target.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
        outdir.mkdir(parents=True, exist_ok=True)
        for path in artifacts:
            path.replace(outdir / path.name)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coherentlab",
        description="Coherent-state dynamics laboratory experiment runner",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name, help=f"run the {name} experiment family")
        sp.add_argument("--config", required=True, help="path to the JSON config file")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="seed override")
        sp.add_argument("--workers", type=int, default=1, help="worker threads (never changes results)")
    return parser


def _resolve(args) -> tuple[dict, dict]:
    """Read, check and resolve the config the arguments name; a bad input raises ConfigError."""
    try:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON and bytes that are not UTF-8
        raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    raw.setdefault("experiment", args.experiment)
    if raw["experiment"] != args.experiment:
        raise ConfigError(
            f"config is for experiment {raw['experiment']!r} "
            f"but the {args.experiment!r} subcommand was invoked"
        )
    if args.seed is not None:
        raw["seed"] = args.seed
    config, inputs = resolve_config(raw)
    config["out"] = args.out or os.environ.get(ENV_OUT) or config.get("out")
    if not config["out"]:
        raise ConfigError(f"no output directory (use --out, the config, or {ENV_OUT})")
    if args.workers < 1:
        raise ConfigError("workers must be >= 1")
    return config, inputs


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config, inputs = _resolve(args)
        run(config, inputs, workers=args.workers)
        return 0
    except ConfigError as exc:
        kind, code, message = "config", 2, str(exc)
    except MemoryError as exc:
        kind, code, message = "memory", 3, str(exc) or "out of memory"
    except (ValueError, ArithmeticError) as exc:  # np.linalg.LinAlgError is a ValueError
        kind, code, message = "numeric", 3, str(exc)
    except OSError as exc:
        kind, code, message = "io", 3, str(exc)
    print(f"error[{kind}]: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
