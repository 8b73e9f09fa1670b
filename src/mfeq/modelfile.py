"""Model files: JSON schema 1 loading, validation and construction.

A model file fixes the state count, horizon, generator and cost; the grid
resolution and the initial law are supplied at solve time.  Built-in model
files ship as package data and resolve by bare name when no such path exists
on disk.
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
from .models import (
    AFFINE_ATOL,
    TABULATED_ATOL,
    AffineQuadraticModel,
    SeparableCost,
    TabulatedGenerator,
    check_rate_tables,
    check_zero_sums,
    make_tau_weight,
)

SCHEMA_VERSION = 1

_RUNNING_KINDS = ("zero", "table", "mean_square")
_TERMINAL_NAMES = ("mean_variance_g", "mean_variance_gtilde")
_CONTROL_KINDS = ("quadratic", "zero")


def builtin_names() -> list[str]:
    pkg = resources.files("mfeq") / "data"
    return sorted(p.name[:-5] for p in pkg.iterdir() if p.name.endswith(".json"))


def read_model_file(path_or_name) -> dict:
    """Read a model file from disk, or from package data by bare name."""
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


def _matrix(value, m: int, field: str, depth: int) -> np.ndarray:
    if _holds_bool(value):  # NumPy would read true as 1.0
        raise ModelFileError(field, "not numeric: holds a JSON boolean")
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelFileError(field, f"not numeric: {exc}") from exc
    want = {1: (m,), 2: (m, m)}.get(depth)
    if arr.ndim == depth and arr.shape == want:
        return arr
    if arr.ndim == depth + 1 and arr.shape[1:] == want:
        return arr
    raise ModelFileError(field, f"expected shape {want} or (cells, *{want}), "
                         f"got {arr.shape}")


def _checked(field: str, check, *args) -> None:
    """Run a model check, reporting its ModelDefect against the file field."""
    try:
        check(*args)
    except ModelDefect as exc:
        raise ModelFileError(field, str(exc)) from exc


def validate_model(raw: dict) -> dict:
    """Schema and consistency validation; returns the normalized tree."""
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
        alpha = _matrix(_require(gen, "alpha", (list,), "generator"),
                        m, "generator.alpha", 2)
        beta = _matrix(_require(gen, "beta", (list,), "generator"),
                       m, "generator.beta", 1)
        a2 = alpha if alpha.ndim == 3 else alpha[None]
        b2 = beta if beta.ndim == 2 else beta[None]
        if a2.shape[0] != b2.shape[0]:
            raise ModelFileError("generator", "alpha and beta cell counts differ")
        _checked("generator.alpha", check_rate_tables, a2, "alpha", AFFINE_ATOL)
        _checked("generator.beta", check_zero_sums, b2, "beta", AFFINE_ATOL)
    elif kind == "tabulated":
        rates = _matrix(_require(gen, "rates", (list,), "generator"),
                        m, "generator.rates", 2)
        r2 = rates if rates.ndim == 3 else rates[None]
        _checked("generator.rates", check_rate_tables, r2, "rate", TABULATED_ATOL)
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
        vals = _matrix(_require(running, "values", (list,), "cost.running"),
                       m, "cost.running.values", 1)
        if vals.min() < 0.0:
            raise ModelFileError("cost.running.values", "must be nonnegative")
    if rkind == "mean_square":
        scale = running.get("scale", 1.0)
        if not is_finite_number(scale) or scale < 0:
            raise ModelFileError("cost.running.scale", "must be a finite nonnegative number")
    tw = running.get("tau_weight")
    if tw is not None:
        if not isinstance(tw, dict) or tw.get("kind") not in ("one", "affine", "exp"):
            raise ModelFileError("cost.running.tau_weight",
                                 "kind must be one of 'one', 'affine', 'exp'")
        for key in ("intercept", "slope", "rate"):
            if key in tw and not is_finite_number(tw[key]):
                raise ModelFileError(f"cost.running.tau_weight.{key}",
                                     "must be a finite number")
        _checked("cost.running.tau_weight", make_tau_weight, tw, float(horizon))
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
        vals = _matrix(_require(terminal, "values", (list,), "cost.terminal"),
                       m, "cost.terminal.values", 1)
        if vals.min() < 0.0:
            raise ModelFileError("cost.terminal.values", "must be nonnegative")
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
    """Instantiate the generator and cost declared by a validated tree."""
    if abs(model["horizon"] - grid.horizon) > 1e-12:
        raise ModelFileError("horizon", f"model horizon {model['horizon']} differs "
                             f"from grid horizon {grid.horizon}")
    m = model["states"]
    gspec = model["generator"]
    try:
        if gspec["kind"] == "affine":
            alpha = np.asarray(gspec["alpha"], dtype=float)
            beta = np.asarray(gspec["beta"], dtype=float)
            needs_grid = alpha.ndim == 3 or beta.ndim == 2
            gen: GeneratorModel = AffineQuadraticModel(
                alpha, beta, grid=grid if needs_grid else None)
        else:
            rates = np.asarray(gspec["rates"], dtype=float)
            gen = TabulatedGenerator(rates, grid=grid if rates.ndim == 3 else None)
    except ModelDefect as exc:
        raise ModelFileError("generator", str(exc)) from exc

    cspec = model["cost"]
    running = cspec["running"]
    rkind = running.get("kind", "zero")
    if rkind == "zero":
        run = ("zero",)
    elif rkind == "table":
        run = ("table", np.asarray(running["values"], dtype=float))
    else:
        run = ("mean_square", float(running.get("scale", 1.0)))
    terminal = cspec["terminal"]
    if isinstance(terminal, str):
        term = ("mean_variance", "g" if terminal.endswith("_g") else "gtilde")
    else:
        term = ("table", np.asarray(terminal["values"], dtype=float))
    constants = model.get("constants", {})
    try:
        cost = SeparableCost(
            m, running=run, control=cspec["control"], terminal=term,
            tau_weight=running.get("tau_weight"), horizon=model["horizon"],
            K2=constants.get("K2"), K3=constants.get("K3"))
    except ModelDefect as exc:
        raise ModelFileError("cost", str(exc)) from exc
    if "K1" in constants:
        gen.K1 = float(constants["K1"])
    return gen, cost
