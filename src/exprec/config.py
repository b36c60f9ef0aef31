"""Experiment configuration: JSON schema, validation and canonical hashing.

A config document fully determines one experiment (grid, phantom, coils,
mask, noise, filter and solver settings).  Unknown keys are rejected and
the SHA-256 of the canonicalized JSON is stamped into every output file.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import MISSING, dataclass, field, fields
from importlib import resources

import jsonschema

from .core import Grid
from .lifting import FilterSpec
from .simulate import PhantomSpec
from .solver import SolverConfig

__all__ = ["ExperimentConfig", "ConfigError", "SCHEMA", "available_presets", "load_preset"]


class ConfigError(ValueError):
    pass


_NUM = {"type": "number"}
_POSNUM = {"type": "number", "exclusiveMinimum": 0}
_POSINT = {"type": "integer", "minimum": 1}

SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["grid", "phantom", "coils", "mask", "filter", "solver", "seed"],
    "properties": {
        "name": {"type": "string"},
        "seed": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1},
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "required": ["p", "q", "t"],
            "properties": {"p": _POSINT, "q": _POSINT, "t": {"type": "integer", "minimum": 2}, "dt_ms": _POSNUM},
        },
        "phantom": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["regions_smoothed", "bandlimited_exact"]},
                "l": _POSINT,
                "bandwidth": _POSINT,
                "t2_low": _POSNUM,
                "t2_high": _POSNUM,
                "amp_variation": {"type": "number", "minimum": 0},
            },
        },
        "coils": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"count": _POSINT},
        },
        "mask": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["uniform_random", "vd_cartesian"]},
                "fraction": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "acceleration": {"type": "number", "minimum": 4},
                "static": {"type": "boolean"},
                "center_block": _POSINT,
            },
        },
        "noise": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "sigma": {"type": "number", "minimum": 0},
                "relative": {"type": "boolean"},
            },
        },
        "filter": {
            "type": "object",
            "additionalProperties": False,
            "required": ["n1", "n2", "nt"],
            "properties": {"n1": _POSINT, "n2": _POSINT, "nt": _POSINT},
        },
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "p": _POSNUM,
                "lam": _POSNUM,
                "eps_decay": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "outer_iters": _POSINT,
                "cg_iters": _POSINT,
                "cg_tol": _POSNUM,
            },
        },
        "ktlr": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"mu_rel": _POSNUM, "iters": _POSINT},
        },
    },
}


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


def _json_pointer(error):
    return "/" + "/".join(str(p) for p in error.absolute_path)


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated config document and the specs built from it."""

    doc: dict
    grid: Grid = field(init=False)
    phantom_spec: PhantomSpec = field(init=False)
    filter_spec: FilterSpec = field(init=False)
    solver_config: SolverConfig = field(init=False)

    def __post_init__(self):
        g = self.doc["grid"]
        # the schema bounds each value alone; the specs check them together
        try:
            grid = Grid(g["p"], g["q"], g["t"], g["dt_ms"])
            specs = {
                "grid": grid,
                "phantom_spec": PhantomSpec(grid, **self.doc["phantom"]),
                "filter_spec": FilterSpec(grid=grid, **self.doc["filter"]),
                "solver_config": SolverConfig(**self.doc["solver"]),
            }
        except ValueError as exc:
            raise ConfigError(f"invalid config: {exc}") from exc
        for name, spec in specs.items():
            object.__setattr__(self, name, spec)

    @classmethod
    def from_doc(cls, doc, seed=None):
        doc = copy.deepcopy(doc)
        if seed is not None:
            doc["seed"] = int(seed)
        validator = jsonschema.Draft202012Validator(SCHEMA)
        errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
        if errors:
            msgs = [f"{_json_pointer(e)}: {e.message}" for e in errors]
            raise ConfigError("invalid config: " + "; ".join(msgs))
        for section, defaults in _DEFAULTS.items():
            doc[section] = {**defaults, **doc.get(section, {})}
        mask = doc["mask"]
        if mask["kind"] == "uniform_random" and "fraction" not in mask:
            raise ConfigError("/mask: uniform_random requires 'fraction'")
        if mask["kind"] == "vd_cartesian" and "acceleration" not in mask:
            raise ConfigError("/mask: vd_cartesian requires 'acceleration'")
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
        return float(m["fraction"] if m["kind"] == "uniform_random" else m["acceleration"])


def available_presets():
    root = resources.files("exprec") / "presets"
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_preset(name, seed=None) -> ExperimentConfig:
    path = resources.files("exprec") / "presets" / f"{name}.json"
    if not path.is_file():
        raise ConfigError(f"unknown preset {name!r}; available: {available_presets()}")
    return ExperimentConfig.from_doc(json.loads(path.read_text(encoding="utf-8")), seed=seed)
