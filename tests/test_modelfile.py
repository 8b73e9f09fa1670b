"""Model file schema validation, canonical hashing, construction."""

import json

import pytest

from mfeq import (AffineQuadraticModel, ModelFileError, TabulatedGenerator, TimeGrid,
                  modelfile, models)
from mfeq.modelfile import (
    build_model,
    builtin_names,
    model_hash,
    read_model_file,
    validate_model,
)

from instances import BAD_MODEL_NUMBERS, with_value


def minimal_model(**overrides):
    model = {
        "schema": 1,
        "states": 2,
        "horizon": 0.5,
        "generator": {"kind": "affine",
                      "alpha": [[-0.8, 0.8], [0.9, -0.9]],
                      "beta": [0.4, -0.4]},
        "cost": {"running": {"kind": "zero"}, "control": "quadratic",
                 "terminal": "mean_variance_g"},
    }
    model.update(overrides)
    return model


def checked(model: dict):
    """A model through both checks: validate_model's file format, then the
    model constructors that build_model calls."""
    return build_model(validate_model(model), TimeGrid(model["horizon"], 4))


class TestValidation:
    def test_minimal_model_passes(self):
        normalized = validate_model(minimal_model())
        assert normalized["states"] == 2
        assert normalized["schema"] == 1

    def test_missing_field(self):
        bad = minimal_model()
        del bad["states"]
        with pytest.raises(ModelFileError) as err:
            validate_model(bad)
        assert err.value.field == "states"

    def test_unsupported_schema(self):
        with pytest.raises(ModelFileError):
            validate_model(minimal_model(schema=2))

    def test_alpha_row_sum_checked(self):
        bad = minimal_model()
        bad["generator"]["alpha"] = [[-0.8, 0.9], [0.9, -0.9]]
        with pytest.raises(ModelFileError) as err:
            checked(bad)
        assert "alpha" in err.value.field

    def test_beta_sum_checked(self):
        bad = minimal_model()
        bad["generator"]["beta"] = [0.4, -0.3]
        with pytest.raises(ModelFileError) as err:
            checked(bad)
        assert "beta" in err.value.field

    def test_negative_off_diagonal_checked(self):
        bad = minimal_model()
        bad["generator"]["alpha"] = [[0.8, -0.8], [0.9, -0.9]]
        with pytest.raises(ModelFileError):
            checked(bad)

    @pytest.mark.parametrize("field, value", [
        ("alpha", [[float("nan"), 0.8], [0.9, -0.9]]),
        ("beta", [float("nan"), -0.4]),
    ])
    def test_non_finite_coefficients_checked(self, field, value):
        # JSON model files may hold NaN and Infinity, and NaN fails no comparison
        bad = minimal_model()
        bad["generator"][field] = value
        with pytest.raises(ModelFileError) as err:
            checked(bad)
        assert err.value.field == f"generator.{field}"

    def test_tabulated_rates_checked(self):
        bad = minimal_model(generator={"kind": "tabulated",
                                       "rates": [[-1.0, 1.0], [0.5, -0.4]]})
        with pytest.raises(ModelFileError) as err:
            checked(bad)
        assert err.value.field == "generator.rates"

    def test_unknown_kinds_rejected(self):
        bad = minimal_model()
        bad["generator"]["kind"] = "spectral"
        with pytest.raises(ModelFileError):
            validate_model(bad)
        bad = minimal_model()
        bad["cost"]["control"] = "cubic"
        with pytest.raises(ModelFileError):
            validate_model(bad)
        bad = minimal_model()
        bad["cost"]["terminal"] = "entropy"
        with pytest.raises(ModelFileError):
            validate_model(bad)

    def test_dimension_mismatch_rejected(self):
        bad = minimal_model()
        bad["generator"]["beta"] = [0.4, -0.2, -0.2]
        with pytest.raises(ModelFileError):
            validate_model(bad)

    def test_constants_validated(self):
        with pytest.raises(ModelFileError):
            validate_model(minimal_model(constants={"K9": 1.0}))
        with pytest.raises(ModelFileError):
            validate_model(minimal_model(constants={"K2": -1.0}))
        ok = validate_model(minimal_model(constants={"K2": 3.0}))
        assert ok["constants"]["K2"] == 3.0

    @pytest.mark.parametrize("path, value, field", BAD_MODEL_NUMBERS)
    def test_non_finite_numbers_named(self, path, value, field):
        bad = with_value(read_model_file("affine_mv"), path, value)
        with pytest.raises(ModelFileError) as err:
            checked(bad)
        assert err.value.field == field

    def test_tabulated_generator(self):
        model = minimal_model()
        model["generator"] = {"kind": "tabulated",
                              "rates": [[-1.0, 1.0], [1.0, -1.0]]}
        normalized = validate_model(model)
        gen, _ = build_model(normalized, TimeGrid(0.5, 4))
        assert isinstance(gen, TabulatedGenerator)


class TestReadModelFile:
    def test_builtins_resolve(self):
        names = builtin_names()
        assert "affine_mv" in names
        for name in names:
            model = read_model_file(name)
            assert model["schema"] == 1

    def test_missing_file(self):
        with pytest.raises(ModelFileError):
            read_model_file("no_such_model_anywhere")

    def test_disk_file_and_syntax_error(self, tmp_path):
        good = tmp_path / "model.json"
        good.write_text(json.dumps(minimal_model()), encoding="utf-8")
        assert read_model_file(good)["states"] == 2
        bad = tmp_path / "broken.json"
        bad.write_text("{\n  \"states\": 2,\n", encoding="utf-8")
        with pytest.raises(ModelFileError) as err:
            read_model_file(bad)
        assert "line" in str(err.value)


class TestModelHash:
    def test_stable_under_key_order(self):
        a = minimal_model()
        b = json.loads(json.dumps(a))
        b["cost"], b["states"] = b.pop("cost"), b.pop("states")
        assert model_hash(a) == model_hash(b)

    def test_sensitive_to_values(self):
        a = minimal_model()
        b = minimal_model(horizon=0.6)
        assert model_hash(validate_model(a)) != model_hash(validate_model(b))


class TestBuildModel:
    def test_affine_build(self):
        model = validate_model(minimal_model())
        grid = TimeGrid(0.5, 10)
        gen, cost = build_model(model, grid)
        assert isinstance(gen, AffineQuadraticModel)
        assert cost.m == 2
        assert cost.K2 == pytest.approx(1.0)

    def test_horizon_mismatch(self):
        model = validate_model(minimal_model())
        with pytest.raises(ModelFileError):
            build_model(model, TimeGrid(1.0, 10))

    def test_constant_overrides(self):
        model = validate_model(minimal_model(constants={"K1": 9.0, "K2": 7.0,
                                                        "K3": 5.0}))
        gen, cost = build_model(model, TimeGrid(0.5, 10))
        assert gen.K1 == 9.0
        assert cost.K2 == 7.0
        assert cost.K3 == 5.0

    def test_each_model_check_runs_once(self, monkeypatch):
        # counted wherever the name is looked up, in the models or the file layer
        calls = []
        for name in ("check_rate_tables", "check_zero_sums", "make_tau_weight"):
            def counted(*args, _name=name, _check=getattr(models, name)):
                calls.append(_name)
                return _check(*args)
            monkeypatch.setattr(models, name, counted)
            monkeypatch.setattr(modelfile, name, counted, raising=False)
        build_model(read_model_file("affine_mv"), TimeGrid(0.5, 10))
        assert sorted(calls) == ["check_rate_tables", "check_zero_sums", "make_tau_weight"]

    def test_per_cell_tables_must_match_grid(self):
        model = minimal_model()
        model["generator"]["alpha"] = [[[-0.8, 0.8], [0.9, -0.9]]] * 3
        model["generator"]["beta"] = [[0.4, -0.4]] * 3
        normalized = validate_model(model)
        gen, _ = build_model(normalized, TimeGrid(0.5, 3))
        assert gen.m == 2
        with pytest.raises(ModelFileError):
            build_model(normalized, TimeGrid(0.5, 4))
