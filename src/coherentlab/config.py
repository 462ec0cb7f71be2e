"""Strict experiment configuration schema.

Configs are plain JSON objects.  The schema checks shape and type: every
key is checked against the schema for its experiment, unknown or
misspelled keys are rejected, every value must have its JSON type, and
resolution fills in all defaults so the echoed config is complete.  It
checks a range only where no domain object owns the rule, such as the
ring time step, the counts, the born angles and the spread inputs.

The domain constructors check values.  As its last step, resolution
builds the experiment's domain objects once (the ring state and
absorber; the selection state, schedule and drift hook; the field modes
and trajectories) and reports a ValueError or OSError they raise as a
ConfigError, so a bad input fails before the run starts.
"""

from __future__ import annotations

import numpy as np

from .currents import FieldMode, Trajectory, _check_common_span, trajectories_from_csv
from .modes import ModeBasis
from .ring import Absorber, _check_run, fourier_mode_state, uniform_state, von_mises_state
from .selection import UrgencySchedule, offset_spawn, seeded_spawn
from .states import CoherentPoint, SuperposedState

_REQUIRED = object()


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


def _strict(raw, spec: dict, where: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object")
    for key in raw:
        if key not in spec:
            raise ConfigError(f"unknown key {key!r} in {where}")
    out = {}
    for key, (default, cast) in spec.items():
        if key in raw:
            out[key] = cast(raw[key], f"{where}.{key}")
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r} in {where}")
        else:
            out[key] = default
    return out


def _float(value, where, minimum=None, maximum=None, strict_min=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    try:
        v = float(value)
    except OverflowError:  # an integer beyond the float range
        v = np.inf
    if not np.isfinite(v):
        raise ConfigError(f"{where} must be finite")
    if minimum is not None and (v <= minimum if strict_min else v < minimum):
        raise ConfigError(f"{where} must be {'>' if strict_min else '>='} {minimum}")
    if maximum is not None and v > maximum:
        raise ConfigError(f"{where} must be <= {maximum}")
    return v


def _int(value, where, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where} must be >= {minimum}")
    return value


def _str_choice(choices):
    def cast(value, where):
        if value not in choices:
            raise ConfigError(f"{where} must be one of {sorted(choices)}")
        return value

    return cast


def _float_list(value, where, min_len=1):
    if not isinstance(value, list) or len(value) < min_len:
        raise ConfigError(f"{where} must be a list of at least {min_len} number(s)")
    return [_float(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _objects(spec):
    """Cast for a non-empty list of objects that each follow ``spec``."""

    def cast(value, where):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{where} must be a non-empty list")
        return [_strict(item, spec, f"{where}[{i}]") for i, item in enumerate(value)]

    return cast


def _absorber(value, where):
    return _strict(
        value,
        {
            "kind": (_REQUIRED, _str_choice(("delta", "plateau"))),
            "center": (0.0, _float),
            "strength": (_REQUIRED, _float),
            "width": (None, _float),
            "sigma": (None, _float),
        },
        where,
    )


def _ring_initial(value, where):
    return _strict(
        value,
        {
            "profile": ("uniform", _str_choice(("uniform", "von_mises", "fourier_mode"))),
            "center": (0.5, _float),
            "concentration": (40.0, lambda v, w: _float(v, w, minimum=0.0, strict_min=True)),
            "boost": (0, _int),
            "mode": (1, _int),
        },
        where,
    )


def _classical(value, where):
    if value is None:
        return None
    return _strict(
        value,
        {
            "members": (100000, lambda v, w: _int(v, w, minimum=1)),
            "region_center": (0.0, _float),
            "region_width": (_REQUIRED, lambda v, w: _float(v, w, minimum=0.0, maximum=1.0)),
        },
        where,
    )


def _ring_params(raw, where):
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object")
    raw = dict(raw)
    raw.setdefault("initial", {})
    return _strict(
        raw,
        {
            "n_grid": (256, _int),
            "mass": (1.0, _float),
            "dt": (2.5e-4, _float),
            "steps": (20000, _int),
            "record_every": (10, _int),
            "absorber": (_REQUIRED, _absorber),
            "initial": (_REQUIRED, _ring_initial),
            "classical": (None, _classical),
        },
        where,
    )


def _energy(value, where):
    return _float_list(value, where) if isinstance(value, list) else _float(value, where)


def _coeff(value, where):
    out = _float_list(value, where)
    if len(out) > 2:
        raise ConfigError(f"{where} must be [re] or [re, im]")
    return out


_COMPONENT = {
    "coeff": (_REQUIRED, _coeff),
    "q": (_REQUIRED, _float_list),
    "p": (_REQUIRED, _float_list),
}
_INITIAL_STATE = {"components": (_REQUIRED, _objects(_COMPONENT))}
_SCHEDULE = {"energy": (_REQUIRED, _energy)}


def _basis(value, where):
    out = _strict(
        value,
        {
            "omegas": (_REQUIRED, _float_list),
            "weights": (None, _float_list),
        },
        where,
    )
    if out["weights"] is None:
        out["weights"] = [1.0] * len(out["omegas"])
    return out


def _drift(value, where):
    out = _strict(
        value,
        {
            "kind": ("none", _str_choice(("none", "offset_spawn", "seeded_spawn"))),
            "coeff": (0.1, _float),
            "dq": (None, _float_list),
            "dp": (None, _float_list),
            "count": (1, lambda v, w: _int(v, w, minimum=1)),
            "spread": (8.0, lambda v, w: _float(v, w, minimum=0.0, strict_min=True)),
        },
        where,
    )
    if out["kind"] == "offset_spawn" and (out["dq"] is None or out["dp"] is None):
        raise ConfigError(f"{where} of kind 'offset_spawn' needs dq and dp")
    return out


def _select_params(raw, where):
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object")
    raw = dict(raw)
    raw.setdefault("schedule", {"energy": 1.0})
    raw.setdefault("drift", {})
    return _strict(
        raw,
        {
            "basis": (_REQUIRED, _basis),
            "initial": (_REQUIRED, lambda v, w: _strict(v, _INITIAL_STATE, w)),
            "n_events": (3, lambda v, w: _int(v, w, minimum=1)),
            "schedule": (_REQUIRED, lambda v, w: _strict(v, _SCHEDULE, w)),
            "drift": (_REQUIRED, _drift),
            "t0": (0.0, _float),
        },
        where,
    )


def _born_params(raw, where):
    out = _strict(
        raw,
        {
            "thetas": ([round(0.1 * i, 10) for i in range(1, 16)], _float_list),
            "samples": (100000, lambda v, w: _int(v, w, minimum=1)),
            "shards": (16, lambda v, w: _int(v, w, minimum=1)),
        },
        where,
    )
    for i, theta in enumerate(out["thetas"]):
        if not (0.0 <= theta <= np.pi / 2):
            raise ConfigError(f"{where}.thetas[{i}] must lie in [0, pi/2]")
    return out


def _points(value, where):
    if not (isinstance(value, list) and all(isinstance(r, list) and len(r) == 4 for r in value)):
        raise ConfigError(f"{where} must be a list of [t, x, y, z] rows")
    return [_float_list(row, f"{where}[{j}]") for j, row in enumerate(value)]


_MODE = {"k": (_REQUIRED, _float_list), "weight": (1.0, _float), "polarization": (0, _int)}
_TRAJECTORY = {"charge": (_REQUIRED, _float), "points": (_REQUIRED, _points)}


def _trajectories(value, where):
    if isinstance(value, dict):
        return _strict(value, {"csv": (_REQUIRED, lambda v, w: str(v))}, where)
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a non-empty list or {{'csv': path}}")
    return _objects(_TRAJECTORY)(value, where)


def _current_params(raw, where):
    return _strict(
        raw,
        {
            "modes": (_REQUIRED, _objects(_MODE)),
            "trajectories": (_REQUIRED, _trajectories),
        },
        where,
    )


def _spread_params(raw, where):
    return _strict(
        raw,
        {
            "t_seconds": (_REQUIRED, lambda v, w: _float(v, w, minimum=0.0, strict_min=True)),
            "x_meters": (_REQUIRED, lambda v, w: _float(v, w, minimum=0.0, strict_min=True)),
            "mass_kg": (_REQUIRED, lambda v, w: _float(v, w, minimum=0.0, strict_min=True)),
        },
        where,
    )


def _ring_inputs(config):
    p = config["parameters"]
    init = p["initial"]
    if init["profile"] == "uniform":
        state = uniform_state(p["n_grid"], p["mass"])
    elif init["profile"] == "von_mises":
        state = von_mises_state(
            p["n_grid"], init["center"], init["concentration"], init["boost"], p["mass"]
        )
    else:
        state = fourier_mode_state(p["n_grid"], init["mode"], p["mass"])
    _check_run(state, p["dt"], p["steps"], p["record_every"])
    return {"state": state, "absorber": Absorber(**p["absorber"])}


def _select_inputs(config):
    p = config["parameters"]
    basis = ModeBasis(**p["basis"])
    components = p["initial"]["components"]
    state = SuperposedState(
        [complex(*c["coeff"]) for c in components],
        [CoherentPoint(q=c["q"], p=c["p"]) for c in components],
        basis,
    )
    schedule = UrgencySchedule(p["schedule"]["energy"])
    schedule.energy_for(p["n_events"])  # a list of energies must cover every event
    d = p["drift"]
    if d["kind"] == "none":
        drift = None
    elif d["kind"] == "offset_spawn":
        offset = CoherentPoint(q=d["dq"], p=d["dp"])
        if offset.n_modes != basis.n_modes:
            raise ValueError(
                f"drift offset has {offset.n_modes} modes but basis has {basis.n_modes}"
            )
        drift = offset_spawn(d["coeff"], offset.q, offset.p)
    else:
        drift = seeded_spawn(config["seed"], d["count"], d["spread"], d["coeff"])
    return {"state": state, "schedule": schedule, "drift": drift}


def _current_inputs(config):
    p = config["parameters"]
    modes = [FieldMode(m["k"], m["weight"], m["polarization"]) for m in p["modes"]]
    spec = p["trajectories"]
    if isinstance(spec, dict):
        trajectories = trajectories_from_csv(spec["csv"])
    else:
        trajectories = [Trajectory.from_breakpoints(t["charge"], t["points"]) for t in spec]
    _check_common_span(trajectories)
    return {"modes": modes, "trajectories": trajectories}


def _no_inputs(config):
    return {}


#: Per experiment family: its parameter schema and its domain-object builder.
_FAMILIES = {
    "ring": (_ring_params, _ring_inputs),
    "select": (_select_params, _select_inputs),
    "born": (_born_params, _no_inputs),
    "current": (_current_params, _current_inputs),
    "spread": (_spread_params, _no_inputs),
}

EXPERIMENTS = tuple(_FAMILIES)


def resolve_config(raw: dict) -> tuple[dict, dict]:
    """Check a raw config, fill in every default and build its domain objects.

    Returns (config, inputs): the resolved config, which a run echoes, and
    the domain objects its runner takes.  A value that a domain constructor
    rejects, or a referenced file that cannot be read, raises ConfigError.
    """
    top = _strict(
        raw,
        {
            "experiment": (_REQUIRED, _str_choice(EXPERIMENTS)),
            "seed": (0, lambda v, w: _int(v, w, minimum=0)),
            "out": (None, lambda v, w: str(v)),
            "parameters": ({}, lambda v, w: v),
        },
        "config",
    )
    where = f"config.parameters({top['experiment']})"
    params, build = _FAMILIES[top["experiment"]]
    top["parameters"] = params(top["parameters"], where)
    try:
        inputs = build(top)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return top, inputs
