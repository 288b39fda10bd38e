"""Run configuration files.

A run config is a YAML mapping with three sections: `experiment`
(physics and preset choice), `output` (artifact path and format), and
`oracle_check` (optional Fock-space cross-validation).  Unknown keys
anywhere are rejected so typos fail loudly instead of silently falling
back to defaults.  The parsed config resolves every omitted key to its
default; the resolved mapping is echoed into every output artifact and
is sufficient to reproduce the run.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, fields
from numbers import Real

import yaml

from .errors import ConfigInvalid, EtaOutOfRange, IoError
from .experiments import EXPERIMENT_KINDS, ExperimentSpec
from .fock import OracleSettings
from .walk import (
    DEFAULT_COIN_ANGLE,
    DEFAULT_CRYSTAL_TRANSMISSION,
    LayerParams,
    WalkConfig,
)

__all__ = ["RunConfig"]

_TOP_KEYS = ("experiment", "output", "oracle_check")
_WALK_KEYS = ("n_steps", "bin_capacity", "omega", "gamma", "crystal_transmission")
_STEP_KEYS = ("inner_kind", "n_max")
_HOM_KEYS = ("overlap_values", "fit_target")
_OUTPUT_KEYS = ("path", "format")

# keys named after dataclass fields take their type and default from the
# field; the walk and the kind are parsed by hand
_SPEC_FIELDS = tuple(f for f in fields(ExperimentSpec) if f.name not in ("walk", "kind"))
_ORACLE_FIELDS = fields(OracleSettings)
_EXPERIMENT_KEYS = ("kind", "walk", "step", "hom") + tuple(f.name for f in _SPEC_FIELDS)
_ORACLE_KEYS = ("enabled", "tolerance") + tuple(f.name for f in _ORACLE_FIELDS)

_DEFAULT_HOM_OVERLAPS = tuple(round(0.05 * i, 2) for i in range(21))

# libyaml's parser where PyYAML was built with it; both loaders share the
# safe constructor and resolver, so they give the same mappings
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _require_mapping(value, where: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigInvalid(f"{where} must be a mapping, got {type(value).__name__}")
    return value


def _reject_unknown(data: dict, allowed, where: str):
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigInvalid(f"unknown key(s) in {where}: {', '.join(map(str, unknown))}")


def _number(data: dict, key: str, default, where: str) -> float:
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigInvalid(
            f"{where}.{key} must be a number, got {value!r} "
            "(YAML note: write scientific notation as 1.0e-6)"
        )
    # NaN fails both comparisons; an integer too large for a float fails one
    if not -sys.float_info.max <= value <= sys.float_info.max:
        raise ConfigInvalid(f"{where}.{key} must be finite, got {value!r}")
    return float(value)


def _integer(data: dict, key: str, default, where: str) -> int:
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigInvalid(f"{where}.{key} must be an integer, got {value!r}")
    return value


def _boolean(data: dict, key: str, default, where: str) -> bool:
    value = data.get(key, default)
    if not isinstance(value, bool):
        raise ConfigInvalid(f"{where}.{key} must be true or false, got {value!r}")
    return value


def _string(data: dict, key: str, default, where: str) -> str:
    value = data.get(key, default)
    if not isinstance(value, str):
        raise ConfigInvalid(f"{where}.{key} must be a string, got {value!r}")
    return value


def _typed_fields(data: dict, specs, where: str) -> dict:
    """Each field's value from `data`, checked by the type of its default."""
    parse = {float: _number, int: _integer, bool: _boolean, str: _string}
    return {f.name: parse[type(f.default)](data, f.name, f.default, where) for f in specs}


def _build_walk(data: dict) -> WalkConfig:
    data = _require_mapping(data, "experiment.walk")
    _reject_unknown(data, _WALK_KEYS, "experiment.walk")
    if "n_steps" not in data:
        raise ConfigInvalid("experiment.walk.n_steps is required")
    n_steps = _integer(data, "n_steps", None, "experiment.walk")
    bin_capacity = _integer(data, "bin_capacity", 0, "experiment.walk")
    omega = _number(data, "omega", DEFAULT_COIN_ANGLE, "experiment.walk")
    gamma = _number(data, "gamma", 0.0, "experiment.walk")
    transmission = data.get("crystal_transmission", DEFAULT_CRYSTAL_TRANSMISSION)
    listed = isinstance(transmission, (list, tuple))
    if listed and len(transmission) != n_steps:
        raise ConfigInvalid(
            "experiment.walk.crystal_transmission list must have one "
            f"entry per step ({n_steps}), got {len(transmission)}"
        )
    entries = tuple(transmission) if listed else (transmission,)
    for entry in entries:
        if isinstance(entry, bool) or not isinstance(entry, Real):
            raise ConfigInvalid(
                "experiment.walk.crystal_transmission must be a number or a list "
                f"of numbers, got {entry!r}"
            )
    # the walk checks its step count, capacity, coin angles and transmissions
    try:
        layers = tuple(
            LayerParams(omega=omega, gamma=gamma, transmission=float(t))
            for t in (entries if listed else entries * n_steps)
        )
        return WalkConfig(n_steps, layers, bin_capacity)
    except (ValueError, EtaOutOfRange) as exc:
        raise ConfigInvalid(f"experiment.walk: {exc}") from exc


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description.

    `resolved` is the canonical plain mapping (every key explicit) that
    gets echoed into artifacts; the typed fields are derived from it.
    """

    spec: ExperimentSpec
    step_inner_kind: str
    step_n_max: int
    hom_overlaps: tuple
    fit_target: float
    out_path: str | None
    out_format: str
    oracle_enabled: bool
    oracle_tolerance: float
    oracle_settings: OracleSettings
    resolved: dict = field(repr=False)

    @classmethod
    def from_dict(cls, data) -> "RunConfig":
        data = _require_mapping(data, "config")
        _reject_unknown(data, _TOP_KEYS, "config")
        exp = _require_mapping(data.get("experiment"), "experiment")
        _reject_unknown(exp, _EXPERIMENT_KEYS, "experiment")
        if "walk" not in exp:
            raise ConfigInvalid("experiment.walk is required")

        walk = _build_walk(exp["walk"])
        kind = _string(exp, "kind", "one-fold", "experiment")
        if kind not in EXPERIMENT_KINDS:
            raise ConfigInvalid(
                f"experiment.kind must be one of {', '.join(EXPERIMENT_KINDS)}"
            )

        step = _require_mapping(exp.get("step"), "experiment.step")
        _reject_unknown(step, _STEP_KEYS, "experiment.step")
        inner_kind = _string(step, "inner_kind", "one-fold", "experiment.step")
        n_max = _integer(step, "n_max", walk.n_steps, "experiment.step")

        hom = _require_mapping(exp.get("hom"), "experiment.hom")
        _reject_unknown(hom, _HOM_KEYS, "experiment.hom")
        overlaps = hom.get("overlap_values", list(_DEFAULT_HOM_OVERLAPS))
        if not isinstance(overlaps, (list, tuple)) or not overlaps:
            raise ConfigInvalid(
                "experiment.hom.overlap_values must be a non-empty list"
            )
        overlap_values = []
        for entry in overlaps:
            if isinstance(entry, bool) or not isinstance(entry, Real):
                raise ConfigInvalid(
                    f"experiment.hom.overlap_values entries must be numbers, got {entry!r}"
                )
            overlap_values.append(float(entry))
        fit_target = _number(hom, "fit_target", 0.70, "experiment.hom")

        try:
            spec = ExperimentSpec(
                walk=walk, kind=kind, **_typed_fields(exp, _SPEC_FIELDS, "experiment")
            )
        except (ValueError, TypeError) as exc:
            raise ConfigInvalid(str(exc)) from exc

        output = _require_mapping(data.get("output"), "output")
        _reject_unknown(output, _OUTPUT_KEYS, "output")
        path = output.get("path")
        if path is not None and not isinstance(path, str):
            raise ConfigInvalid(f"output.path must be a string, got {path!r}")
        fmt = _string(output, "format", "csv", "output")
        if fmt not in ("csv", "json"):
            raise ConfigInvalid(f"output.format must be csv or json, got {fmt!r}")

        oracle = _require_mapping(data.get("oracle_check"), "oracle_check")
        _reject_unknown(oracle, _ORACLE_KEYS, "oracle_check")
        enabled = _boolean(oracle, "enabled", False, "oracle_check")
        tolerance = _number(oracle, "tolerance", 1e-6, "oracle_check")
        settings = OracleSettings(**_typed_fields(oracle, _ORACLE_FIELDS, "oracle_check"))

        resolved = {
            "experiment": {
                "kind": kind,
                "walk": {
                    "n_steps": walk.n_steps,
                    "bin_capacity": walk.bin_capacity,
                    "omega": walk.layers[0].omega if walk.layers else DEFAULT_COIN_ANGLE,
                    "gamma": walk.layers[0].gamma if walk.layers else 0.0,
                    "crystal_transmission": [l.transmission for l in walk.layers],
                },
                **{f.name: getattr(spec, f.name) for f in _SPEC_FIELDS},
                "step": {"inner_kind": inner_kind, "n_max": n_max},
                "hom": {"overlap_values": overlap_values, "fit_target": fit_target},
            },
            # the artifact's own location is not part of the computation,
            # so the echo pins only the format
            "output": {"path": None, "format": fmt},
            "oracle_check": {
                "enabled": enabled,
                "tolerance": tolerance,
                **{f.name: getattr(settings, f.name) for f in _ORACLE_FIELDS},
            },
        }
        return cls(
            spec=spec,
            step_inner_kind=inner_kind,
            step_n_max=n_max,
            hom_overlaps=tuple(overlap_values),
            fit_target=fit_target,
            out_path=path,
            out_format=fmt,
            oracle_enabled=enabled,
            oracle_tolerance=tolerance,
            oracle_settings=settings,
            resolved=resolved,
        )

    @classmethod
    def from_file(cls, path: str, flags=None) -> "RunConfig":
        """The config in the YAML file at `path`, parsed once, with the command
        line's `flags` ({section: {key: value}}, None if not given) set in first."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = yaml.load(handle, Loader=_LOADER)
        except (OSError, UnicodeDecodeError) as exc:
            raise IoError(f"cannot read config {path}: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigInvalid(f"config {path} is not valid YAML: {exc}") from exc
        if isinstance(data, dict):  # a non-mapping file or section is from_dict's to refuse
            for section, values in (flags or {}).items():
                current = {} if data.get(section) is None else data[section]
                given = {key: value for key, value in values.items() if value is not None}
                if isinstance(current, dict):
                    data[section] = {**current, **given}
        return cls.from_dict(data)

    @property
    def kind(self) -> str:
        return self.resolved["experiment"]["kind"]

    def echo(self) -> str:
        """Canonical JSON form of the resolved config."""
        return json.dumps(self.resolved, sort_keys=True)
