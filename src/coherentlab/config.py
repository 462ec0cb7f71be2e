"""Strict experiment configuration schema.

Configs are plain JSON objects.  The schema checks shape and type only:
every key is checked against the schema for its experiment, unknown or
misspelled keys are rejected, every value must have its JSON type (a
finite number, a list of the right length, one of the named choices),
and resolution fills in all defaults so the echoed config is complete.
The one range rule it keeps is seed >= 0, which no domain object owns.

Every other range rule belongs to the domain function that uses the
value.  As its last step, resolution reaches that owner for all five
families: it builds the ring state, absorber and classical ensemble and
runs the ring's run and region checks; the selection state, schedule
and drift hook; the born sweep's check; the spread estimate; the field
modes and trajectories.  A ValueError or OSError they raise becomes a
ConfigError, so a bad input fails before the run starts.
"""

from __future__ import annotations

import numpy as np

from .borngeo import DEFAULT_SHARDS, _check_sweep
from .currents import FieldMode, Trajectory, _check_common_span, trajectories_from_csv
from .modes import ModeBasis
from .ring import (Absorber, _check_region, _check_run, fourier_mode_state, spread_estimate,
                   uniform_ensemble, uniform_state, von_mises_state)
from .selection import UrgencySchedule, offset_spawn, seeded_spawn
from .states import CoherentPoint, SuperposedState, _check_point

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
            out[key] = cast(default, f"{where}.{key}") if isinstance(default, dict) else default
    return out


def _float(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    try:
        v = float(value)
    except OverflowError:  # an integer beyond the float range
        v = np.inf
    if not np.isfinite(v):
        raise ConfigError(f"{where} must be finite")
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


def _float_list(value, where):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a non-empty list of numbers")
    return [_float(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _objects(spec):
    """Cast for a non-empty list of objects that each follow ``spec``."""

    def cast(value, where):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{where} must be a non-empty list")
        return [_strict(item, spec, f"{where}[{i}]") for i, item in enumerate(value)]

    return cast


def _object(spec):
    """Cast for an object that follows ``spec``."""
    return lambda value, where: _strict(value, spec, where)


_ABSORBER = {
    "kind": (_REQUIRED, _str_choice(("delta", "plateau"))),
    "center": (0.0, _float),
    "strength": (_REQUIRED, _float),
    "width": (None, _float),
    "sigma": (None, _float),
}
_RING_INITIAL = {
    "profile": ("uniform", _str_choice(("uniform", "von_mises", "fourier_mode"))),
    "center": (0.5, _float),
    "concentration": (40.0, _float),
    "boost": (0, _int),
    "mode": (1, _int),
}
_CLASSICAL = {
    "members": (100000, _int),
    "region_center": (0.0, _float),
    "region_width": (_REQUIRED, _float),
}


def _classical(value, where):
    return None if value is None else _strict(value, _CLASSICAL, where)


_RING = {
    "n_grid": (256, _int),
    "mass": (1.0, _float),
    "dt": (2.5e-4, _float),
    "steps": (20000, _int),
    "record_every": (10, _int),
    "absorber": (_REQUIRED, _object(_ABSORBER)),
    "initial": ({}, _object(_RING_INITIAL)),
    "classical": (None, _classical),
}


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
            "count": (1, _int),
            "spread": (8.0, _float),
        },
        where,
    )
    if out["kind"] == "offset_spawn" and (out["dq"] is None or out["dp"] is None):
        raise ConfigError(f"{where} of kind 'offset_spawn' needs dq and dp")
    return out


_SELECT = {
    "basis": (_REQUIRED, _basis),
    "initial": (_REQUIRED, _object(_INITIAL_STATE)),
    "n_events": (3, _int),
    "schedule": ({"energy": 1.0}, _object(_SCHEDULE)),
    "drift": ({}, _drift),
    "t0": (0.0, _float),
}
_BORN = {
    "thetas": ([round(0.1 * i, 10) for i in range(1, 16)], _float_list),
    "samples": (100000, _int),
    "shards": (DEFAULT_SHARDS, _int),
}


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


_CURRENT = {"modes": (_REQUIRED, _objects(_MODE)), "trajectories": (_REQUIRED, _trajectories)}
_SPREAD = {"t_seconds": (_REQUIRED, _float), "x_meters": (_REQUIRED, _float),
           "mass_kg": (_REQUIRED, _float)}


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
    inputs = {"state": state, "absorber": Absorber(**p["absorber"]), "ensemble": None}
    if p["classical"] is not None:
        inputs["ensemble"] = uniform_ensemble(p["classical"]["members"], config["seed"])
        _check_region(p["classical"]["region_width"])
    return inputs


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
    # n_events >= 1, a list of energies covers it, and the times are finite and increasing
    schedule.event_times(p["n_events"], p["t0"])
    d = p["drift"]
    if d["kind"] == "none":
        drift = None
    elif d["kind"] == "offset_spawn":
        offset = CoherentPoint(q=d["dq"], p=d["dp"])
        _check_point(offset, basis)
        drift = offset_spawn(d["coeff"], offset.q, offset.p)
    else:
        drift = seeded_spawn(config["seed"], d["count"], d["spread"], d["coeff"])
    return {"state": state, "schedule": schedule, "drift": drift}


def _born_inputs(config):
    p = config["parameters"]
    _check_sweep(p["thetas"], p["samples"], p["shards"])
    return {}


def _spread_inputs(config):
    p = config["parameters"]
    return {"spread_meters": spread_estimate(p["t_seconds"], p["x_meters"], p["mass_kg"])}


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


#: Per experiment family: its parameter schema and its domain-object builder.
_FAMILIES = {
    "ring": (_RING, _ring_inputs),
    "select": (_SELECT, _select_inputs),
    "born": (_BORN, _born_inputs),
    "current": (_CURRENT, _current_inputs),
    "spread": (_SPREAD, _spread_inputs),
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
    spec, build = _FAMILIES[top["experiment"]]
    top["parameters"] = _strict(top["parameters"], spec, where)
    try:
        inputs = build(top)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return top, inputs
