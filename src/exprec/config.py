"""Experiment configuration: validation and canonical hashing.

A config document fully determines one experiment (grid, phantom, coils,
mask, noise, filter and solver settings).  Unknown keys are rejected and
the SHA-256 of the canonicalized JSON is stamped into every output file.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import MISSING, dataclass, field, fields
from importlib import resources

from .core import Grid
from .lifting import FilterSpec
from .simulate import PhantomSpec
from .solver import SolverConfig

__all__ = ["ExperimentConfig", "ConfigError", "available_presets", "load_preset"]


class ConfigError(ValueError):
    pass


def _field_defaults(cls):
    """The defaulted fields of a spec dataclass, as a config section."""
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


# every section is filled before hashing, so the hash pins each value the run uses
_DEFAULTS = {
    "grid": {"dt_ms": 10.0},
    "phantom": _field_defaults(PhantomSpec),
    "coils": {"count": 1},
    "mask": {"static": False, "center_block": 8},
    "noise": {"sigma": 0.0, "relative": True},
    "solver": _field_defaults(SolverConfig),
    "ktlr": {"mu_rel": 0.02, "iters": 120},
}

# the keys with no default; every other key takes the JSON type of its default
_KEYS = {
    "grid": {"p": int, "q": int, "t": int},
    "mask": {"kind": str, "fraction": float, "acceleration": float},
    "filter": {"n1": int, "n2": int, "nt": int},
}
_TYPES = {s: {k: type(v) for k, v in _DEFAULTS.get(s, {}).items()} | _KEYS.get(s, {})
          for s in _DEFAULTS | _KEYS}
_TYPES[""] = {"name": str, "seed": int} | dict.fromkeys(_TYPES, dict)
_REQUIRED = {
    "": ("seed", "grid", "phantom", "coils", "mask", "filter", "solver"),
    "grid": ("p", "q", "t"),
    "mask": ("kind",),
    "filter": ("n1", "n2", "nt"),
}
_TYPE_NAMES = {dict: "object", str: "string", bool: "boolean", int: "integer", float: "number"}
_MASK_PARAM = {"uniform_random": "fraction", "vd_cartesian": "acceleration"}

# the ranges of the values no spec takes (the specs check their own), each as
# a test that holds for a value out of range, and its message
_OUT_OF_RANGE = {
    "/seed": (lambda v: v < 0 or v >= 2**64, "is not in [0, 2**64)"),
    "/coils/count": (lambda v: v < 1, "is less than 1"),
    "/mask/kind": (lambda v: v not in _MASK_PARAM, f"is not one of {list(_MASK_PARAM)}"),
    "/mask/fraction": (lambda v: v <= 0 or v > 1, "is not in (0, 1]"),
    "/mask/acceleration": (lambda v: v < 4, "is less than 4"),
    "/mask/center_block": (lambda v: v < 1, "is less than 1"),
    "/noise/sigma": (lambda v: v < 0, "is negative"),
    "/ktlr/mu_rel": (lambda v: v <= 0, "is not positive"),
    "/ktlr/iters": (lambda v: v < 1, "is less than 1"),
}


def _is(value, kind):
    """JSON typing: a bool is neither integer nor number, and an int is also a number."""
    if isinstance(value, bool) != (kind is bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _errors(node, section="", pointer=""):
    """Every structure, type and range error in a config doc, as 'pointer: message'."""
    if not _is(node, dict):
        return [f"{pointer or '/'}: {node!r} is not of type 'object'"]
    types = _TYPES[section]
    errors = [f"{pointer}/{k}: required key is missing"
              for k in _REQUIRED.get(section, ()) if k not in node]
    for key, value in node.items():
        at, kind = f"{pointer}/{key}", types.get(key)
        if kind is None:
            errors.append(f"{at}: unknown key")
        elif kind is dict:
            errors += _errors(value, key, at)
        elif not _is(value, kind):
            errors.append(f"{at}: {value!r} is not of type '{_TYPE_NAMES[kind]}'")
        elif isinstance(value, float) and not math.isfinite(value):  # json parses NaN, Infinity
            errors.append(f"{at}: {value!r} is not finite")
        elif at in _OUT_OF_RANGE and _OUT_OF_RANGE[at][0](value):
            errors.append(f"{at}: {value!r} {_OUT_OF_RANGE[at][1]}")
    return errors


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated config document and the specs built from it."""

    doc: dict
    grid: Grid = field(init=False)
    phantom_spec: PhantomSpec = field(init=False)
    filter_spec: FilterSpec = field(init=False)
    solver_config: SolverConfig = field(init=False)

    def __post_init__(self):
        # each spec checks the ranges of its own values; its errors name its section
        for name, section, make in [
            ("grid", "grid", lambda p, q, t, dt_ms: Grid(p, q, t, dt_ms)),
            ("phantom_spec", "phantom", lambda **kw: PhantomSpec(self.grid, **kw)),
            ("filter_spec", "filter", lambda **kw: FilterSpec(grid=self.grid, **kw)),
            ("solver_config", "solver", SolverConfig),
        ]:
            try:
                object.__setattr__(self, name, make(**self.doc[section]))
            except ValueError as exc:
                raise ConfigError(f"invalid config: /{section}: {exc}") from exc

    @classmethod
    def from_doc(cls, doc, seed=None):
        doc = copy.deepcopy(doc)
        if seed is not None and isinstance(doc, dict):
            doc["seed"] = int(seed)
        errors = _errors(doc)
        if errors:
            raise ConfigError("invalid config: " + "; ".join(sorted(errors)))
        for section, defaults in _DEFAULTS.items():
            doc[section] = {**defaults, **doc.get(section, {})}
        kind = doc["mask"]["kind"]
        if _MASK_PARAM[kind] not in doc["mask"]:
            raise ConfigError(f"invalid config: /mask: {kind} requires {_MASK_PARAM[kind]!r}")
        return cls(doc=doc)

    @classmethod
    def from_json(cls, path, seed=None):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
        return cls.from_doc(doc, seed=seed)

    def canonical_json(self) -> str:
        return json.dumps(self.doc, sort_keys=True, separators=(",", ":"))

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    @property
    def seed(self) -> int:
        return int(self.doc["seed"])

    @property
    def echo_times(self):
        return self.grid.echo_times()

    @property
    def coil_count(self) -> int:
        return int(self.doc["coils"]["count"])

    @property
    def mask_kind(self) -> str:
        return self.doc["mask"]["kind"]

    @property
    def mask_param(self) -> float:
        m = self.doc["mask"]
        return float(m[_MASK_PARAM[m["kind"]]])


def available_presets():
    root = resources.files("exprec") / "presets"
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_preset(name, seed=None) -> ExperimentConfig:
    path = resources.files("exprec") / "presets" / f"{name}.json"
    if not path.is_file():
        raise ConfigError(f"unknown preset {name!r}; available: {available_presets()}")
    return ExperimentConfig.from_doc(json.loads(path.read_text(encoding="utf-8")), seed=seed)
