"""Smooth coefficient functions f: R^e -> R with multi-index partials.

Every family exposes ``value`` and ``partial`` vectorized over a
trailing-point layout ``(..., e)``; ``partial`` takes a multi-index of
the same length e.  Every family has exact derivatives of all orders.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .core import midx_degree
from .exceptions import ConfigurationError, DomainError


class VolFunction:
    """Base class; subclasses set ``e`` and implement value/partial."""

    e: int

    def value(self, x):
        raise NotImplementedError

    def partial(self, i, x):
        raise NotImplementedError

    def partials(self, indices, x):
        """``{i: partial(i, x)}`` for every multi-index in ``indices``."""
        return {i: self.partial(i, x) for i in indices}

    def _check_points(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 0 or x.shape[-1] != self.e:
            raise DomainError(f"points must have trailing dimension {self.e}")
        return x

    def _check_index(self, i):
        i = tuple(int(v) for v in i)
        if len(i) != self.e or any(v < 0 for v in i):
            raise DomainError(f"bad multi-index {i} for dimension {self.e}")
        return i

    # Scalar restriction to the first coordinate (others held at 0),
    # used by the variational solver.
    def value_first(self, v):
        v = np.asarray(v, dtype=np.float64)
        x = np.zeros(v.shape + (self.e,))
        x[..., 0] = v
        return self.value(x)

    def partial_first(self, v):
        v = np.asarray(v, dtype=np.float64)
        x = np.zeros(v.shape + (self.e,))
        x[..., 0] = v
        i = (1,) + (0,) * (self.e - 1)
        return self.partial(i, x)


@dataclasses.dataclass(frozen=True)
class ConstantVol(VolFunction):
    """f(x) = c."""

    c: float
    e: int = 2

    def value(self, x):
        x = self._check_points(x)
        return np.full(x.shape[:-1], float(self.c))

    def partial(self, i, x):
        i = self._check_index(i)
        x = self._check_points(x)
        if midx_degree(i) == 0:
            return self.value(x)
        return np.zeros(x.shape[:-1])


@dataclasses.dataclass(frozen=True)
class ExponentialVol(VolFunction):
    """f(x) = xi * exp(coeffs . x); every partial is f times a constant."""

    xi: float
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if len(self.coeffs) < 1:
            raise ConfigurationError("need at least one coefficient")

    @property
    def e(self):
        return len(self.coeffs)

    def value(self, x):
        x = self._check_points(x)
        return float(self.xi) * np.exp(x @ np.asarray(self.coeffs))

    def _scale(self, i):
        """The constant d^i f / f = prod_l coeffs_l^(i_l)."""
        i = self._check_index(i)
        scale = 1.0
        for c, k in zip(self.coeffs, i):
            scale *= np.float64(c) ** k  # overflows to inf, not OverflowError
        return scale

    def partial(self, i, x):
        return self._scale(i) * self.value(x)

    def partials(self, indices, x):
        fx = self.value(x)  # once, for every partial
        return {i: self._scale(i) * fx for i in indices}

