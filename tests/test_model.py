"""Model parameter validation and the immutable records built on `Record`."""

import copy
import math
import pickle

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


def _record_factories():
    """Record class name -> a builder; each call builds a fresh, equal record."""
    from solowfrac.equilibrium import find_equilibria
    from solowfrac.series import build_series
    from solowfrac.sweep import PRESETS, SweepGrid
    from solowfrac.transforms import VerificationReport

    return {
        "ModelParams": lambda: ModelParams(p=0.5, q=0.2, mu=1.0 / 3.0),
        "SeriesSolution": lambda: build_series(REFERENCE_PARAMS, 3),
        "EquilibriumReport": lambda: find_equilibria(REFERENCE_PARAMS),
        "SweepConfig": lambda: PRESETS["fig-ktq"].with_(),
        "SweepGrid": lambda: SweepGrid(config=PRESETS["fig-ktq"],
                                       rows=((0.0, 0.1, 1.0, True, "series"),)),
        "VerificationReport": lambda: VerificationReport(name="unit", tol=1e-5,
                                                         rows=[("u=1", 0.0)]),
    }


RECORDS = _record_factories()
# Every record but VerificationReport, whose rows list grows through `add`.
FROZEN = {name: make for name, make in RECORDS.items() if name != "VerificationReport"}
each_record = pytest.mark.parametrize("make", RECORDS.values(), ids=list(RECORDS))


class TestRecords:
    @each_record
    def test_value_equality(self, make):
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b

    @pytest.mark.parametrize("make", FROZEN.values(), ids=list(FROZEN))
    def test_hash_by_value(self, make):
        a, b = make(), make()
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_verification_report_grows_and_is_unhashable(self):
        from solowfrac.transforms import VerificationReport

        first, second = VerificationReport("x", 1e-5), VerificationReport("x", 1e-5)
        first.add("signed", -2e-3)
        assert first.rows == [("signed", 2e-3)] and second.rows == []
        assert first != second
        second.add("signed", 2e-3)
        assert first == second
        with pytest.raises(TypeError):
            hash(first)

    @each_record
    def test_unequal_across_types(self, make):
        record = make()
        twin = type("Twin", (type(record),), {})(*record._values())
        assert twin != record and record != twin
        assert record != record._values()
        assert all(record != other() for other in RECORDS.values() if other is not make)

    @each_record
    def test_immutable(self, make):
        record = make()
        name = record.__slots__[0]
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1.0
        assert record == make()

    @each_record
    def test_copy_pickle_and_with_round_trip(self, make):
        record = make()
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record
        assert record.with_() == record

    def test_repr_names_every_field(self):
        assert repr(REFERENCE_PARAMS) == ("ModelParams(p=0.5, q=0.2, mu=0.3333333333333333, "
                                          "alpha=1.0, k0=1.0)")

    def test_with_validates_again(self):
        make = RECORDS
        assert all(type(build()).__name__ == name for name, build in make.items())
        cases = [
            (make["ModelParams"](), {"q": -1.0}, "q must be positive, got -1.0"),
            (make["SeriesSolution"](), {"order": 4}, "coefficient count must equal order + 1"),
            (make["SweepConfig"](), {"axis": "k0"},
             "axis must be one of ('p', 'q', 'mu', 'alpha'), got 'k0'"),
            (make["SweepConfig"](), {"axis": "mu", "axis_range": (0.1, 1.5, 21)},
             "mu must lie in (0, 1), got 1.5"),
        ]
        for record, changes, message in cases:
            with pytest.raises(ValueError) as exc:
                record.with_(**changes)
            assert str(exc.value) == message

    def test_with_changes_only_the_named_fields(self):
        changed = REFERENCE_PARAMS.with_(alpha=0.8)
        assert changed == ModelParams(p=0.5, q=0.2, mu=1.0 / 3.0, alpha=0.8, k0=1.0)
        assert REFERENCE_PARAMS.alpha == 1.0

    def test_constructor_arguments(self):
        assert ModelParams(0.5, 0.2, 1.0 / 3.0) == REFERENCE_PARAMS
        assert ModelParams(0.5, 0.2, mu=1.0 / 3.0, k0=1.0) == REFERENCE_PARAMS
        for args, kwargs in [((0.5, 0.2), {}), ((0.5, 0.2, 0.3, 1.0, 1.0, 1.0), {}),
                             ((0.5, 0.2, 0.3), {"p": 0.5}), ((0.5, 0.2, 0.3), {"s": 0.1})]:
            with pytest.raises(TypeError):
                ModelParams(*args, **kwargs)

    def test_equilibrium_report_as_dict(self):
        from solowfrac.equilibrium import find_equilibria

        report = find_equilibria(REFERENCE_PARAMS)
        assert report.as_dict() == {
            "k_zero_stability": "unstable",
            "k_star": report.k_star,
            "k_star_stability": "asymptotically stable",
            "derivative_at_star": report.derivative_at_star,
            "inflection_candidate": report.inflection_candidate,
        }
        assert report.k_star == REFERENCE_PARAMS.k_star
