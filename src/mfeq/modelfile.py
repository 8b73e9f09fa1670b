"""Model files: JSON schema 1 loading, format checks and construction.

A model file fixes the state count, horizon, generator and cost; the grid
resolution and the initial law are supplied at solve time.  Built-in model
files ship as package data and resolve by bare name when no such path exists
on disk.  validate_model checks the file's format; the model constructors
that build_model calls check the model's numbers, once.
"""

from __future__ import annotations

import hashlib
import json
import math
from importlib import resources
from pathlib import Path

import numpy as np

from .chain import GeneratorModel, TimeGrid
from .errors import ModelDefect, ModelFileError
from .hj import CostModel
from .models import AffineQuadraticModel, SeparableCost, TabulatedGenerator
from .solver import value_bound

SCHEMA_VERSION = 1

_RUNNING_KINDS = ("zero", "table", "mean_square")
_TERMINAL_NAMES = ("mean_variance_g", "mean_variance_gtilde")
_CONTROL_KINDS = ("quadratic", "zero")


def builtin_names() -> list[str]:
    pkg = resources.files("mfeq") / "data"
    return sorted(p.name[:-5] for p in pkg.iterdir() if p.name.endswith(".json"))


def read_model_file(path_or_name) -> dict:
    """Read a model file from disk, or from package data by bare name, and
    check its format only (validate_model); build_model checks the model."""
    path = Path(path_or_name)
    if path.exists():
        text = path.read_text(encoding="utf-8")
    else:
        name = path.name
        if name.endswith(".json"):
            name = name[:-5]
        candidate = resources.files("mfeq") / "data" / f"{name}.json"
        if not candidate.is_file():
            raise ModelFileError("", f"model file not found: {path_or_name} "
                                 f"(builtins: {', '.join(builtin_names())})")
        text = candidate.read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFileError("", f"invalid JSON at line {exc.lineno}, "
                             f"column {exc.colno}: {exc.msg}") from exc
    return validate_model(raw)


def _require(spec: dict, key: str, types, where: str):
    if key not in spec:
        raise ModelFileError(f"{where}.{key}" if where else key, "missing field")
    value = spec[key]
    if not isinstance(value, types):
        raise ModelFileError(f"{where}.{key}" if where else key,
                             f"expected {types}, got {type(value).__name__}")
    return value


def is_finite_number(value) -> bool:
    """Whether a JSON value is a finite number: JSON model files may hold
    NaN and Infinity, and NaN fails no comparison.  A JSON boolean is not a
    number, though Python's bool is an int."""
    try:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an integer too large for a float
        return False


def _holds_bool(value) -> bool:
    return isinstance(value, bool) or (isinstance(value, list) and any(map(_holds_bool, value)))


def _array(spec: dict, key: str, where: str, want: tuple, per_cell: bool) -> None:
    """A numeric array field of shape want, or (cells, *want) if per_cell."""
    field = f"{where}.{key}"
    value = _require(spec, key, (list,), where)
    if _holds_bool(value):  # NumPy would read true as 1.0
        raise ModelFileError(field, "not numeric: holds a JSON boolean")
    try:
        shape = np.asarray(value, dtype=float).shape
    except (TypeError, ValueError) as exc:
        raise ModelFileError(field, f"not numeric: {exc}") from exc
    if shape != want and not (per_cell and shape[1:] == want):
        cells = f" or (cells, *{want})" if per_cell else ""
        raise ModelFileError(field, f"expected shape {want}{cells}, got {shape}")


def validate_model(raw: dict) -> dict:
    """Format check of a model file's tree: JSON types, required keys, known
    kinds, array shapes, no JSON booleans and finite scalars.  The model's
    numbers (generator rows, cost tables, the tau weight) are checked by the
    constructors that build_model calls.  Returns the normalized tree."""
    if not isinstance(raw, dict):
        raise ModelFileError("", "top level must be a JSON object")
    schema = raw.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ModelFileError("schema", f"unsupported version {schema}")
    m = _require(raw, "states", int, "")
    if isinstance(m, bool) or m < 2:
        raise ModelFileError("states", "need an integer of at least 2 states")
    horizon = _require(raw, "horizon", (int, float), "")
    if not is_finite_number(horizon) or horizon <= 0:
        raise ModelFileError("horizon", "must be a finite positive number")

    gen = _require(raw, "generator", dict, "")
    kind = _require(gen, "kind", str, "generator")
    if kind == "affine":
        _array(gen, "alpha", "generator", (m, m), per_cell=True)
        _array(gen, "beta", "generator", (m,), per_cell=True)
    elif kind == "tabulated":
        _array(gen, "rates", "generator", (m, m), per_cell=True)
    else:
        raise ModelFileError("generator.kind", f"unknown kind {kind!r}")

    cost = _require(raw, "cost", dict, "")
    running = cost.get("running", {"kind": "zero"})
    if not isinstance(running, dict):
        raise ModelFileError("cost.running", "must be an object")
    rkind = running.get("kind", "zero")
    if rkind not in _RUNNING_KINDS:
        raise ModelFileError("cost.running.kind", f"unknown kind {rkind!r}")
    if rkind == "table":
        _array(running, "values", "cost.running", (m,), per_cell=False)
    if rkind == "mean_square" and not is_finite_number(running.get("scale", 1.0)):
        raise ModelFileError("cost.running.scale", "must be a finite number")
    tw = running.get("tau_weight")
    if tw is not None:
        if not isinstance(tw, dict) or tw.get("kind") not in ("one", "affine", "exp"):
            raise ModelFileError("cost.running.tau_weight",
                                 "kind must be one of 'one', 'affine', 'exp'")
        for key in ("intercept", "slope", "rate"):
            if key in tw and not is_finite_number(tw[key]):
                raise ModelFileError(f"cost.running.tau_weight.{key}",
                                     "must be a finite number")
    control = cost.get("control", "quadratic")
    if control not in _CONTROL_KINDS:
        raise ModelFileError("cost.control", f"unknown kind {control!r}")
    terminal = cost.get("terminal", "mean_variance_g")
    if isinstance(terminal, str):
        if terminal not in _TERMINAL_NAMES:
            raise ModelFileError("cost.terminal", f"unknown name {terminal!r}")
    elif isinstance(terminal, dict):
        if terminal.get("kind") != "table":
            raise ModelFileError("cost.terminal.kind", "only 'table' is supported")
        _array(terminal, "values", "cost.terminal", (m,), per_cell=False)
    else:
        raise ModelFileError("cost.terminal", "must be a name or an object")

    constants = raw.get("constants", {})
    if not isinstance(constants, dict):
        raise ModelFileError("constants", "must be an object")
    for key, value in constants.items():
        if key not in ("K1", "K2", "K3"):
            raise ModelFileError(f"constants.{key}", "unknown constant")
        if not is_finite_number(value) or value < 0:
            raise ModelFileError(f"constants.{key}", "must be a finite nonnegative number")

    normalized = {
        "schema": SCHEMA_VERSION,
        "states": m,
        "horizon": float(horizon),
        "generator": gen,
        "cost": {"running": running, "control": control, "terminal": terminal},
    }
    if constants:
        normalized["constants"] = constants
    return normalized


def model_hash(model: dict) -> str:
    """sha256 of the canonical JSON encoding (sorted keys, no whitespace)."""
    canon = json.dumps(model, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def build_model(model: dict, grid: TimeGrid) -> tuple[GeneratorModel, CostModel]:
    """Instantiate the generator and cost declared by a format-checked tree.

    This is where a file's model is checked: each constructor rejects the
    argument it finds defective, and the ModelFileError names the file field
    that argument came from.  The pair's value bound must be finite too.
    """
    if abs(model["horizon"] - grid.horizon) > 1e-12:
        raise ModelFileError("horizon", f"model horizon {model['horizon']} differs "
                             f"from grid horizon {grid.horizon}")
    gspec, cspec = model["generator"], model["cost"]
    running, terminal = cspec["running"], cspec["terminal"]
    rkind = running.get("kind", "zero")
    if rkind == "zero":
        run = ("zero",)
    elif rkind == "table":
        run = ("table", running["values"])
    else:
        run = ("mean_square", float(running.get("scale", 1.0)))
    if isinstance(terminal, str):
        term = ("mean_variance", "g" if terminal.endswith("_g") else "gtilde")
    else:
        term = ("table", terminal["values"])
    constants = model.get("constants", {})
    fields = {"alpha": "generator.alpha", "beta": "generator.beta",
              "rates": "generator.rates", "control": "cost.control",
              "running": "cost.running." + ("values" if rkind == "table" else "scale"),
              "terminal": "cost.terminal.values", "tau_weight": "cost.running.tau_weight"}
    try:
        if gspec["kind"] == "affine":
            gen: GeneratorModel = AffineQuadraticModel(gspec["alpha"], gspec["beta"], grid)
        else:
            gen = TabulatedGenerator(gspec["rates"], grid)
        cost = SeparableCost(
            model["states"], running=run, control=cspec["control"], terminal=term,
            tau_weight=running.get("tau_weight"), horizon=model["horizon"],
            K2=constants.get("K2"), K3=constants.get("K3"))
    except ModelDefect as exc:
        raise ModelFileError(fields.get(exc.field, ""), str(exc)) from exc
    if "K1" in constants:
        gen.K1 = float(constants["K1"])
    if not math.isfinite(value_bound(gen, cost, grid)):
        raise ModelFileError("", f"value bound (K1 + K2) * horizon + K2 is not finite: "
                             f"K1 = {gen.K1:.6g}, K2 = {cost.K2:.6g}, "
                             f"horizon = {grid.horizon:.6g}")
    return gen, cost
