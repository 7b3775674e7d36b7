"""Model parameters for the capital-accumulation equation.

The state variable is the capital-labour ratio k(t), governed by

    D^alpha k = p * k**mu - q * k,    k(0) = k0,

where D^alpha is the Caputo derivative of order alpha in (0, 1] (alpha = 1
recovers the classical ODE).
"""

from __future__ import annotations

import math

__all__ = ["Record", "ModelParams", "REFERENCE_PARAMS"]


class Record:
    """Immutable value record, the package's light stand-in for a frozen dataclass.

    A subclass names its fields in ``__slots__`` and the defaults of trailing
    fields in ``_defaults``, and checks them in ``_validate``, which runs on
    every construction, ``with_`` included.  Records compare, hash and print
    by value; records of different types are never equal.  ``__slots__`` holds
    every field, so a record class is not subclassed further.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        cls, names = type(self).__name__, self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{cls} takes {len(names)} fields, got {len(args)}")
        values = {**self._defaults, **dict(zip(names, args))}
        for name, value in kwargs.items():
            if name not in names or name in names[:len(args)]:
                raise TypeError(f"{cls} got an unexpected or repeated field {name!r}")
            values[name] = value
        for name in names:
            if name not in values:
                raise TypeError(f"{cls} is missing field {name!r}")
            object.__setattr__(self, name, values[name])
        self._validate()

    def _validate(self) -> None:
        """Raise ValueError when a field is out of range; no rule by default."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def as_dict(self) -> dict:
        """Field name -> value."""
        return dict(zip(self.__slots__, self._values()))

    def with_(self, **changes):
        """A copy with `changes` applied, validated again."""
        return type(self)(**{**Record.as_dict(self), **changes})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in Record.as_dict(self).items())
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: {type(self).__name__} is immutable")

    def __reduce__(self):  # copy and pickle rebuild through __init__, not __setattr__
        return type(self), self._values()


class ModelParams(Record):
    """One model instance: productivity p, depreciation q, elasticity mu,
    fractional order alpha, initial capital-labour ratio k0."""

    __slots__ = ("p", "q", "mu", "alpha", "k0")
    _defaults = {"alpha": 1.0, "k0": 1.0}

    def _validate(self):
        check_positive("p", self.p)
        check_positive("q", self.q)
        if not 0 < self.mu < 1:
            raise ValueError(f"mu must lie in (0, 1), got {self.mu}")
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        check_positive("k0", self.k0)

    @property
    def k_star(self) -> float:
        """Nonzero equilibrium (p/q)**(1/(1-mu)); OverflowError past double range."""
        try:
            k = (self.p / self.q) ** (1.0 / (1.0 - self.mu))
        except OverflowError:
            k = math.inf
        if k == math.inf:
            raise OverflowError(f"k_star = (p/q)**(1/(1-mu)) overflows double precision "
                                f"at p={self.p}, q={self.q}, mu={self.mu}")
        return k

    def rhs(self, k: float) -> float:
        """Right-hand side p*k**mu - q*k."""
        return self.p * k ** self.mu - self.q * k

    def at_equilibrium(self) -> bool:
        """True when k0 sits exactly (in floating point) on a fixed point."""
        return self.rhs(self.k0) == 0.0 or self.k0 == self.k_star


def check_positive(name: str, value: float) -> None:
    """ValueError unless `value` is positive and finite."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")
    if value == math.inf:
        raise ValueError(f"{name} must be finite, got {value}")


# Desk-scale reference set used throughout tests and presets.
REFERENCE_PARAMS = ModelParams(p=0.5, q=0.2, mu=1.0 / 3.0, alpha=1.0, k0=1.0)
