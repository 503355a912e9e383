"""Index-set combinatorics.

The counting oracle is stars-and-bars: the number of multi-indices in
Z^e_+ with total degree <= n is binom(n + e, e), and pairs (j, k) with
|j| + |k| <= m are multi-indices in Z^{2e}_+, so binom(m + 2e, 2e).
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parpath import build_index_sets
from parpath.core import (enumerate_degree_leq, midx_degree, midx_factorial,
                          multiindex_enumerate_leq)
from parpath.exceptions import ConfigurationError, DomainError


def test_default_exponent_pair_sizes():
    cfg = build_index_sets(0.4, 0.08, 2)
    assert cfg.n == 7
    assert cfg.m == 2
    assert len(cfg.I) == math.comb(7 + 2, 2) == 36
    assert len(cfg.J) == math.comb(2 + 4, 4) == 15


def test_small_exponent_pair_sizes():
    cfg = build_index_sets(0.45, 0.2, 2)
    assert cfg.n == 2
    assert cfg.m == 0
    assert len(cfg.I) == 6
    assert cfg.J == (((0, 0), (0, 0)),)


def test_membership_inequalities_and_maximality():
    for alpha, beta, e in [(0.4, 0.08, 2), (0.45, 0.2, 2), (0.35, 0.08, 2),
                           (0.5, 0.3, 1), (0.34, 0.05, 3)]:
        cfg = build_index_sets(alpha, beta, e)
        for i in cfg.I:
            assert midx_degree(i) * beta + alpha <= 1.0 + 1e-9
        for (j, k) in cfg.J:
            assert (midx_degree(j) + midx_degree(k)) * beta + 2 * alpha <= 1.0 + 1e-9
        assert (cfg.n + 1) * beta + alpha > 1.0 - 1e-9
        assert (cfg.m + 1) * beta + 2 * alpha > 1.0 - 1e-9
        assert cfg.m <= cfg.n


def test_boundary_degree_is_kept():
    # 0.4 + 5 * 0.12 == 1.0 exactly in binary? 0.12 is not exact, so use
    # a combination that IS exact: alpha = 0.5, beta = 0.125 gives
    # n = (1 - 0.5) / 0.125 = 4 on the boundary.
    cfg = build_index_sets(0.5, 0.125, 1)
    assert cfg.n == 4
    assert (4,) in cfg.I


def test_downward_closure_and_order():
    cfg = build_index_sets(0.4, 0.08, 2)
    iset = set(cfg.I)
    for i in cfg.I:
        for p in multiindex_enumerate_leq(i):
            assert p in iset
    degrees = [midx_degree(i) for i in cfg.I]
    assert degrees == sorted(degrees)
    jdegrees = [midx_degree(j) + midx_degree(k) for (j, k) in cfg.J]
    assert jdegrees == sorted(jdegrees)
    assert cfg.I[0] == (0, 0)
    assert cfg.J[0] == ((0, 0), (0, 0))


def test_enumerate_counts():
    assert len(enumerate_degree_leq(3, 4)) == math.comb(4 + 3, 3)
    assert len(multiindex_enumerate_leq((2, 3))) == 3 * 4
    assert midx_factorial((3, 2)) == 12
    with pytest.raises(DomainError):
        multiindex_enumerate_leq((1, -1))
    with pytest.raises(DomainError):
        enumerate_degree_leq(0, 2)


def test_enumeration_order_matches_sorted_product():
    # Reference: every tuple in the box, filtered and sorted graded-lex.
    for e in range(1, 5):
        for degree in range(5):
            box = itertools.product(range(degree + 1), repeat=e)
            ref = sorted((p for p in box if sum(p) <= degree),
                         key=lambda p: (sum(p), p))
            assert enumerate_degree_leq(e, degree) == ref
    bound = (2, 0, 1)
    ref = sorted(itertools.product(*(range(b + 1) for b in bound)),
                 key=lambda p: (sum(p), p))
    assert multiindex_enumerate_leq(bound) == ref


def test_many_dimensions_do_not_recurse():
    # One entry per dimension used to cost one stack frame.
    cfg = build_index_sets(0.5, 0.49, 2000)
    assert (cfg.n, cfg.m) == (1, 0)
    assert len(cfg.I) == 2001
    assert cfg.I[0] == (0,) * 2000
    assert cfg.I[1] == (0,) * 1999 + (1,)
    assert cfg.I[-1] == (1,) + (0,) * 1999
    # The splitting tables are built on first use, not with the sets.
    fields = {f.name for f in dataclasses.fields(cfg)}
    assert set(vars(cfg)) - fields == {"_i_set", "_j_set"}


def test_splitting_tables_end_with_the_index_itself(default_cfg):
    # level1_pairs/level2_pairs take the strictly lower entries as table[:-1].
    for i, entries in default_cfg._down1.items():
        assert [p for p, _, _ in entries] == multiindex_enumerate_leq(i)
        assert entries[-1] == (i, (0, 0), 1.0)
    for (j, k), entries in default_cfg._down2.items():
        assert len(entries) == len(default_cfg._down1[j]) * len(default_cfg._down1[k])
        assert entries[-1] == ((j, k), (0, 0), 1.0)
        assert all(midx_degree(p) + midx_degree(q) < midx_degree(j) + midx_degree(k)
                   for (p, q), _, _ in entries[:-1])


@pytest.mark.parametrize("alpha,beta,e,d,T", [
    (0.3, 0.08, 2, 1, 1.0),    # alpha below 1/3
    (0.51, 0.08, 2, 1, 1.0),   # alpha above 1/2
    (0.4, 0.0, 2, 1, 1.0),     # beta at 0
    (0.4, 0.5, 2, 1, 1.0),     # beta at 1/2
    (0.4, 0.08, 0, 1, 1.0),    # e < 1
    (0.4, 0.08, 2, 0, 1.0),    # d < 1
    (0.4, 0.08, 2, 1, 0.0),    # T <= 0
    (0.4, 5e-324, 2, 1, 1.0),  # degree cap overflows a float
    (0.4, 0.004, 2, 1, 1.0),   # 327727 indices, over the supported size
])
def test_rejects_bad_exponents(alpha, beta, e, d, T):
    with pytest.raises(ConfigurationError):
        build_index_sets(alpha, beta, e, d=d, T=T)


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(min_value=0.34, max_value=0.5),
       beta=st.floats(min_value=0.08, max_value=0.45),
       e=st.integers(min_value=1, max_value=3))
def test_counts_match_stars_and_bars(alpha, beta, e):
    cfg = build_index_sets(alpha, beta, e)
    assert len(cfg.I) == math.comb(cfg.n + e, e)
    assert len(cfg.J) == math.comb(cfg.m + 2 * e, 2 * e)
    assert len(set(cfg.I)) == len(cfg.I)
    assert len(set(cfg.J)) == len(cfg.J)
    # n and m are the floor values of the defining inequalities.
    assert cfg.n == int(np.floor((1.0 - alpha) / beta + 1e-12))
    assert cfg.m == int(np.floor((1.0 - 2.0 * alpha) / beta + 1e-12))


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(min_value=0.34, max_value=0.5),
       beta=st.floats(min_value=0.08, max_value=0.45),
       e=st.integers(min_value=1, max_value=2))
def test_pair_set_is_downward_closed(alpha, beta, e):
    cfg = build_index_sets(alpha, beta, e)
    jset = set(cfg.J)
    for (j, k) in cfg.J:
        for p in multiindex_enumerate_leq(j):
            for q in multiindex_enumerate_leq(k):
                assert (p, q) in jset
