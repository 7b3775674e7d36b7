"""Model parameter validation."""

import math

import pytest

from solowfrac.model import REFERENCE_PARAMS, ModelParams


class TestModelParams:
    @pytest.mark.parametrize("name", ["p", "q", "k0"])
    @pytest.mark.parametrize("value, message", [
        (0.0, "must be positive, got 0.0"),
        (-1.0, "must be positive, got -1.0"),
        (math.nan, "must be positive, got nan"),
        (math.inf, "must be finite, got inf"),
        (-math.inf, "must be positive, got -inf"),
    ])
    def test_positive_finite_fields(self, name, value, message):
        with pytest.raises(ValueError) as exc:
            REFERENCE_PARAMS.with_(**{name: value})
        assert str(exc.value) == f"{name} {message}"

    @pytest.mark.parametrize("name, value", [
        ("mu", 0.0), ("mu", 1.0), ("mu", math.nan), ("mu", math.inf),
        ("alpha", 0.0), ("alpha", 1.5), ("alpha", math.nan), ("alpha", math.inf),
    ])
    def test_interval_fields(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must lie in"):
            REFERENCE_PARAMS.with_(**{name: value})

    def test_largest_finite_values_accepted(self):
        params = ModelParams(p=1e308, q=1e308, mu=0.5, alpha=1.0, k0=1e308)
        assert params.k0 == 1e308
