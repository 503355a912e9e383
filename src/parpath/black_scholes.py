"""Zero-rate Black-Scholes call pricing and implied volatility."""

from __future__ import annotations

import math

import numpy as np

from .exceptions import DomainError, NumericalError

_VOL_LO = 1e-4
_VOL_HI = 5.0
_VOL_TOL = 1e-8  # bracket width at which the bisection stops


def call_price(spot, strike, maturity, vol):
    """Undiscounted call price (r = 0), vectorized over the inputs."""
    from scipy.special import ndtr

    spot = np.asarray(spot, dtype=np.float64)
    strike = np.asarray(strike, dtype=np.float64)
    maturity = np.asarray(maturity, dtype=np.float64)
    vol = np.asarray(vol, dtype=np.float64)
    if np.any(spot <= 0) or np.any(strike <= 0):
        raise DomainError("spot and strike must be positive")
    if np.any(maturity <= 0) or np.any(vol <= 0):
        raise DomainError("maturity and vol must be positive")
    sq = vol * np.sqrt(maturity)
    d1 = np.log(spot / strike) / sq + 0.5 * sq
    out = spot * ndtr(d1) - strike * ndtr(d1 - sq)
    return float(out) if out.ndim == 0 else out


def implied_vol(price: float, spot: float, strike: float,
                maturity: float) -> float:
    """Invert the call price by bisection on [1e-4, 5], to 1e-8.

    Raises :class:`NumericalError` when the price violates static
    bounds or the bracket does not contain the root.
    """
    price = float(price)
    intrinsic = max(spot - strike, 0.0)
    if not intrinsic < price < spot:
        raise NumericalError(
            f"price {price} outside the arbitrage bounds ({intrinsic}, {spot})")
    lo, hi, tol = _VOL_LO, _VOL_HI, _VOL_TOL
    f_lo = call_price(spot, strike, maturity, lo) - price
    f_hi = call_price(spot, strike, maturity, hi) - price
    if f_lo > 0.0 or f_hi < 0.0:
        raise NumericalError(f"implied vol outside [{lo}, {hi}]")
    # Price is monotone in vol; ~60 halvings pin the root far below tol.
    for _ in range(int(math.ceil(math.log2((hi - lo) / (0.25 * tol)))) + 1):
        mid = 0.5 * (lo + hi)
        if call_price(spot, strike, maturity, mid) - price <= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)
