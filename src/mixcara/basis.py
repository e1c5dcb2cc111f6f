"""Finite monomial function systems.

A basis is an ordered set of distinct monomials ``x^alpha`` in ``n`` variables,
canonically sorted by (total degree, lexicographic) order.  Exponent gaps are
allowed, e.g. ``{1, x^2, x^3, x^5, x^6}``.  Monomials are evaluated, with
their derivatives, by ``moments.component_moments``: a point is a Gaussian
component of scale 0.
"""
from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = ["MonomialBasis"]


@dataclass(frozen=True)
class MonomialBasis:
    """Ordered system of distinct monomials in ``n`` variables.

    The exponent order given at construction does not matter: exponents are
    sorted canonically, so two bases built from permuted exponent lists
    compare equal.  The convention ``0**0 == 1`` makes the constant monomial
    evaluate to 1 everywhere.
    """

    n: int
    exponents: tuple[tuple[int, ...], ...] = field(default=())

    def __post_init__(self) -> None:
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"variable count must be a positive integer, got {self.n!r}")
        exps = [tuple(alpha) for alpha in self.exponents]
        if any(isinstance(e, bool) or not isinstance(e, numbers.Integral)
               for alpha in exps for e in alpha):
            raise ValueError(f"exponents must be integers, got {self.exponents!r}")
        # numpy integers are stored as int, so to_json stays plain JSON
        exps = [tuple(int(e) for e in alpha) for alpha in exps]
        if not exps:
            raise ValueError("basis needs at least one exponent")
        for alpha in exps:
            if len(alpha) != self.n:
                raise ValueError(f"exponent {alpha} has length {len(alpha)}, expected {self.n}")
            if any(e < 0 for e in alpha):
                raise ValueError(f"exponent {alpha} has a negative entry")
        if len(set(exps)) != len(exps):
            raise ValueError("exponents must be pairwise distinct")
        # graded order; within a degree class, higher power of the first
        # variable first, so n=2 degree 1 lists as x1 then x2
        exps.sort(key=lambda a: (sum(a), tuple(-e for e in a)))
        object.__setattr__(self, "exponents", tuple(exps))
        object.__setattr__(self, "_exp_array", np.array(exps, dtype=np.int64))

    @property
    def m(self) -> int:
        return len(self.exponents)

    @property
    def max_degree(self) -> int:
        return max(sum(alpha) for alpha in self.exponents)

    @property
    def exponent_array(self) -> np.ndarray:
        return self._exp_array  # type: ignore[attr-defined]

    def univariate_degrees(self) -> tuple[int, ...]:
        if self.n != 1:
            raise ValueError("univariate_degrees requires n == 1")
        return tuple(alpha[0] for alpha in self.exponents)

    def is_full_degree(self) -> bool:
        """True when the basis is the gap-free univariate system {1, x, ..., x^d}."""
        return self.n == 1 and self.univariate_degrees() == tuple(range(self.max_degree + 1))

    @classmethod
    def univariate(cls, degrees) -> "MonomialBasis":
        return cls(n=1, exponents=tuple((d,) for d in degrees))

    @classmethod
    def full_degree(cls, d: int, n: int = 1) -> "MonomialBasis":
        """All monomials of total degree at most ``d`` in ``n`` variables."""
        if d < 0:
            raise ValueError("degree must be >= 0")
        exps = (a for a in itertools.product(range(d + 1), repeat=n) if sum(a) <= d)
        return cls(n=n, exponents=tuple(exps))

    def to_json(self) -> dict:
        return {"n": self.n, "exponents": [list(a) for a in self.exponents]}

    @classmethod
    def from_json(cls, data: dict) -> "MonomialBasis":
        """Parse a basis literal; ``n`` and every exponent must be JSON
        integers, so ``1.7`` or ``true`` is an error rather than truncated."""
        try:
            n, exponents = data["n"], tuple(tuple(a) for a in data["exponents"])
        except (KeyError, TypeError) as exc:
            raise ValueError(
                f"a basis is an object with 'n' and a list of exponent lists, got {data!r}"
            ) from exc
        return cls(n=n, exponents=exponents)
