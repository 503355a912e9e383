import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import norm

from parpath.black_scholes import call_price, implied_vol
from parpath.exceptions import DomainError, NumericalError


def test_at_the_money_value():
    # S Phi(d1) - K Phi(d1 - s) with d1 = s/2 at the money
    s = 0.2
    expect = 100.0 * (norm.cdf(0.5 * s) - norm.cdf(-0.5 * s))
    assert call_price(100.0, 100.0, 1.0, 0.2) == pytest.approx(expect, rel=1e-14)
    assert call_price(100.0, 100.0, 1.0, 0.2) == pytest.approx(7.965567455405804, rel=1e-12)


def test_out_of_the_money_value():
    sq = 0.25 * np.sqrt(0.5)
    d1 = np.log(100.0 / 110.0) / sq + 0.5 * sq
    expect = 100.0 * norm.cdf(d1) - 110.0 * norm.cdf(d1 - sq)
    assert call_price(100.0, 110.0, 0.5, 0.25) == pytest.approx(expect, rel=1e-14)


def test_call_price_matches_normal_cdf_formula():
    spot = np.array([80.0, 100.0, 120.0, 100.0])
    strike = np.array([100.0, 100.0, 90.0, 1e-3])
    maturity = np.array([0.25, 1.0, 2.0, 0.5])
    vol = np.array([0.2, 0.05, 1.5, 3.0])
    sq = vol * np.sqrt(maturity)
    d1 = np.log(spot / strike) / sq + 0.5 * sq
    expect = spot * norm.cdf(d1) - strike * norm.cdf(d1 - sq)
    np.testing.assert_array_equal(call_price(spot, strike, maturity, vol), expect)
    np.testing.assert_array_equal(call_price(spot[0], strike[0], maturity[0], vol[0]),
                                  expect[0])


def test_cli_import_leaves_scipy_stats_out():
    # Each scipy submodule is imported where it is called, so importing
    # the package and the CLI loads none of them.
    names = ["scipy.stats", "scipy.fft", "scipy.special", "scipy.optimize",
             "scipy.integrate", "scipy.linalg"]
    code = ("import sys, parpath, parpath.cli; "
            f"print([m for m in {names!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_price_monotone_and_bounded():
    vols = np.array([0.05, 0.1, 0.3, 1.0, 4.9])
    prices = call_price(100.0, 90.0, 1.0, vols)
    assert np.all(np.diff(prices) > 0)
    assert np.all(prices > 10.0)  # intrinsic
    assert np.all(prices < 100.0)


def test_vectorized_matches_scalar():
    strikes = np.array([80.0, 100.0, 125.0])
    arr = call_price(100.0, strikes, 0.5, 0.2)
    for k, strike in enumerate(strikes):
        assert arr[k] == call_price(100.0, float(strike), 0.5, 0.2)


def test_price_validation():
    with pytest.raises(DomainError):
        call_price(-1.0, 100.0, 1.0, 0.2)
    with pytest.raises(DomainError):
        call_price(100.0, 0.0, 1.0, 0.2)
    with pytest.raises(DomainError):
        call_price(100.0, 100.0, 0.0, 0.2)
    with pytest.raises(DomainError):
        call_price(100.0, 100.0, 1.0, -0.5)


def test_implied_vol_roundtrip():
    # strikes stay near the money so low vols keep time value above
    # float granularity
    for vol in (0.05, 0.2, 1.0, 3.0):
        for strike in (90.0, 100.0, 125.0):
            price = call_price(100.0, strike, 0.25, vol)
            assert implied_vol(price, 100.0, strike, 0.25) == pytest.approx(vol, abs=1e-7)


def test_implied_vol_arbitrage_bounds():
    with pytest.raises(NumericalError):
        implied_vol(10.0, 100.0, 90.0, 1.0)  # equals intrinsic
    with pytest.raises(NumericalError):
        implied_vol(100.0, 100.0, 90.0, 1.0)  # equals spot
    with pytest.raises(NumericalError):
        implied_vol(-0.5, 100.0, 110.0, 1.0)


def test_implied_vol_bracket():
    # admissible prices mapping outside the [1e-4, 5] vol bracket
    with pytest.raises(NumericalError):
        implied_vol(1e-5, 100.0, 100.0, 1.0)
    with pytest.raises(NumericalError):
        implied_vol(99.0, 100.0, 100.0, 1.0)
