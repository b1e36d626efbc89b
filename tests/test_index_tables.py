"""Exact-integer tests for the signed blow-up counting routes.

The reference oracle below re-derives every count from first principles with
explicit integer co-indices (not just parities): a level-p blow-up configuration
is a choice of weak limit (a residual-level solution, or none) plus a set of
concentration points, and its sign is (-1)^{morse index} with the index summed
from the formula pieces directly.  The production routes only ever see parities,
so agreement across arbitrary integer lifts of the same parities is itself a
theorem the tests exercise.
"""
from __future__ import annotations

import random
import warnings
from dataclasses import replace
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsecount import (
    ConsistencyError,
    H3Warning,
    ParityConfig,
    all_parity_patterns,
    classify_case,
    euler_poincare_check,
    index_K,
    mu_closed_form,
    mu_direct,
    mu_recurrence,
    solution_bounds,
)
from morsecount import indexcount
from morsecount.cli import MAX_INDICES_M
from morsecount.indexcount import _mu_row
from oracles import bucketed_mu_direct

# ---------------------------------------------------------------------------
# reference oracle
# ---------------------------------------------------------------------------


def oracle_tables(
    co_indices: list[int], N: int
) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Naive enumeration with explicit integer co-indices.

    Returns (mu, mu_geq, mu_geq_at) with mu_geq[k][p] indexed 1-based via
    mu_geq[k-1][p-1]; the at-rank row mu_geq_at[k-1] keeps the configurations
    whose point set contains rank k itself.
    A configuration at level p from ranks >= k is:
      - a residual solution at level q in 1..p-1 (entering via its signed count
        mu_q) together with p - q concentration points, contributing
        (-1)^{(p-q) + sum co_indices} * mu_q, or
      - no residual solution and exactly p points, contributing
        (-1)^{(p-1) + sum co_indices}.
    mu_p is forced level by level by the alternating-count identity
    mu_p + mu_geq[1][p] = (1 if p == 1 else 0).
    """
    from itertools import combinations

    m = len(co_indices)
    mu: list[int] = []
    mu_geq = [[0] * N for _ in range(m + 1)]
    mu_geq_at = [[0] * N for _ in range(m)]
    for p in range(1, N + 1):
        for k in range(1, m + 2):
            ranks = range(k, m + 1)
            total = total_at = 0
            # weak limit at a positive residual level q
            for q in range(1, p):
                for pts in combinations(ranks, p - q):
                    s = sum(co_indices[j - 1] for j in pts)
                    term = (-1) ** ((p - q) + s) * mu[q - 1]
                    total += term
                    total_at += term if k in pts else 0
            # no weak limit: exactly p concentration points
            for pts in combinations(ranks, p):
                s = sum(co_indices[j - 1] for j in pts)
                term = (-1) ** ((p - 1) + s)
                total += term
                total_at += term if k in pts else 0
            mu_geq[k - 1][p - 1] = total
            if k <= m:
                mu_geq_at[k - 1][p - 1] = total_at
        mu.append((1 if p == 1 else 0) - mu_geq[0][p - 1])
    return mu, mu_geq, mu_geq_at


def lift(parities: tuple[int, ...], shifts: tuple[int, ...]) -> list[int]:
    """Turn parities into concrete integer co-indices by adding even shifts."""
    return [b + 2 * s for b, s in zip(parities, shifts)]


def cfg(parities, N=4, n=7) -> ParityConfig:
    return ParityConfig(n=n, parities=tuple(parities), N=N)


# ---------------------------------------------------------------------------
# frozen values (oracle evaluated first, then pinned here as literals)
# ---------------------------------------------------------------------------

FROZEN_MU = {
    # two points, both even: the signed count is -1 at every level
    (0, 0): (-1, -1, -1, -1),
    # two points, one odd: signs alternate starting positive
    (0, 1): (1, -1, 1, -1),
    # all-even m=3: -C(p+1, 1) = -(p+1)
    (0, 0, 0): (-2, -3, -4, -5),
    # all-odd m=3: m-1 then alternating binomials
    (0, 1, 1): (2, -3, 4, -5),
    # alternating m=3: zeros at odd levels, -C(p, p) at even
    (0, 1, 0): (0, -1, 0, -1),
    # single point: everything cancels
    (0,): (0, 0, 0, 0),
    # all-even m=4: -C(p+2, 2)
    (0, 0, 0, 0): (-3, -6, -10, -15),
    # all-odd m=4
    (0, 1, 1, 1): (3, -6, 10, -15),
    # alternating m=5 (l=2): 0, -C(p+1, p) at even levels
    (0, 1, 0, 1, 0): (0, -2, 0, -3),
    # mixed: e=1, o=3 -> odd-heavy tail (level 3 verified by hand:
    # q=2 gives -4, q=1 gives -4, the no-residual part gives +2, so mu_3 = 6)
    (0, 1, 0, 1, 1): (2, -4, 6, -9),
}


@pytest.mark.parametrize("parities,expected", sorted(FROZEN_MU.items()))
def test_frozen_mu_values(parities, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", H3Warning)
        c = cfg(parities, N=len(expected))
        assert mu_direct(c).mu == expected
        assert mu_recurrence(c).mu == expected
        mu_o, _, _ = oracle_tables(list(parities), len(expected))
        assert tuple(mu_o) == expected


def test_oracle_matches_direct_on_full_tables():
    c = cfg((0, 1, 1, 0, 1), N=6)
    t = mu_direct(c)
    mu_o, mu_geq_o, mu_geq_at_o = oracle_tables(list(c.parities), c.N)
    assert list(t.mu) == mu_o
    assert [list(r) for r in t.mu_geq] == mu_geq_o
    assert [list(r) for r in t.mu_geq_at] == mu_geq_at_o


def test_direct_matches_the_oracle_on_every_small_pattern():
    """All three rows of the bucketed direct route against the literal
    per-(p, k) enumeration, on every pattern with m <= 6 at N = 8."""
    for m in range(1, 7):
        for parities in all_parity_patterns(m):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", H3Warning)
                t = mu_direct(cfg(parities, N=8))
            mu_o, mu_geq_o, mu_geq_at_o = oracle_tables(list(parities), 8)
            assert list(t.mu) == mu_o, parities
            assert [list(r) for r in t.mu_geq] == mu_geq_o, parities
            assert [list(r) for r in t.mu_geq_at] == mu_geq_at_o, parities


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

parity_tails = st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=6)


@given(tail=parity_tails, N=st.integers(min_value=1, max_value=9))
def test_three_routes_agree(tail, N):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", H3Warning)
        c = cfg((0, *tail), N=N)
        td = mu_direct(c)
        tr = mu_recurrence(c)
        assert td.mu == tr.mu
        assert td.mu_geq == tr.mu_geq
        assert td.mu_geq_at == tr.mu_geq_at
        tc = mu_closed_form(c)
        if tc is not None:
            assert tc.mu == tr.mu
            assert tc.mu_geq == tr.mu_geq


@given(tail=parity_tails, N=st.integers(min_value=1, max_value=8))
def test_euler_poincare_identities_always_hold(tail, N):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", H3Warning)
        c = cfg((0, *tail), N=N)
        assert euler_poincare_check(mu_direct(c))
        assert euler_poincare_check(mu_recurrence(c))


@given(
    tail=st.lists(st.integers(0, 1), min_size=1, max_size=6),
    N=st.integers(min_value=1, max_value=8),
    seed=st.randoms(use_true_random=False),
)
def test_mu_invariant_under_tail_permutation(tail, N, seed):
    shuffled = list(tail)
    seed.shuffle(shuffled)
    a = mu_recurrence(cfg((0, *tail), N=N))
    b = mu_recurrence(cfg((0, *shuffled), N=N))
    assert a.mu == b.mu  # intermediates may differ, the counts may not


@given(
    tail=parity_tails,
    N=st.integers(min_value=1, max_value=7),
    shifts=st.lists(st.integers(0, 3), min_size=7, max_size=7),
)
def test_counts_depend_only_on_parity(tail, N, shifts):
    """Integer co-index lifts with the same parities give identical tables."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", H3Warning)
        parities = (0, *tail)
        c = cfg(parities, N=N)
        mu_a, _, _ = oracle_tables(lift(parities, tuple(shifts[: len(parities)])), N)
        assert tuple(mu_a) == mu_recurrence(c).mu


@given(tail=parity_tails, N=st.integers(min_value=1, max_value=8))
def test_boundary_rows(tail, N):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", H3Warning)
        c = cfg((0, *tail), N=N)
        t = mu_recurrence(c)
        m = c.m
        assert t.mu_geq[m] == (0,) * N  # empty-point-set row
        for k in range(1, m + 1):
            expected = sum(1 if b == 0 else -1 for b in c.parities[k - 1 :])
            assert t.mu_geq[k - 1][0] == expected


def _bump(row: tuple[int, ...], p: int, delta: int) -> tuple[int, ...]:
    return row[: p - 1] + (row[p - 1] + delta,) + row[p:]


def test_perturbed_table_fails_check():
    """A +-1 change to any one entry of mu, mu_{>=1} or mu_{>=2}, at any level,
    breaks an identity; so does a mu row one level short."""
    for parities in [(0, 0), (0, 1, 0), (0, 1, 1, 0, 1)]:
        t = mu_recurrence(cfg(parities, N=6))
        assert euler_poincare_check(t)
        for p in range(1, t.config.N + 1):
            for delta in (1, -1):
                broken = [replace(t, mu=_bump(t.mu, p, delta))]
                for k in (0, 1):
                    rows = list(t.mu_geq)
                    rows[k] = _bump(rows[k], p, delta)
                    broken.append(replace(t, mu_geq=tuple(rows)))
                assert not any(euler_poincare_check(b) for b in broken), (parities, p)
        assert not euler_poincare_check(replace(t, mu=t.mu[:-1]))


def test_mu_row_matches_direct_on_every_small_pattern():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", H3Warning)
        for m in range(1, 11):
            for parities in all_parity_patterns(m):
                assert _mu_row(parities, 20) == mu_direct(cfg(parities, N=20)).mu, parities


def test_mu_row_matches_the_closed_forms():
    for m in range(3, 17):
        patterns = [(0,) * m, (0,) + (1,) * (m - 1)]
        if m % 2:
            patterns.append(tuple(j % 2 for j in range(m)))
        for parities in patterns:
            closed = mu_closed_form(cfg(parities, N=64))
            assert closed is not None and _mu_row(parities, 64) == closed.mu, parities


def test_mu_row_vanishes_for_a_single_point():
    assert _mu_row((0,), 9) == (0,) * 9


def test_solution_bounds_runs_no_rank_recursion(monkeypatch):
    def forbidden(*args):
        raise AssertionError("solution_bounds ran the rank recursion")

    c = cfg((0, 1, 0, 0, 1, 1, 0), N=12)
    monkeypatch.setattr(indexcount, "_recurrence_rows", forbidden)
    assert solution_bounds(c).mu == mu_direct(c).mu


def test_direct_route_equals_the_bucketed_oracle():
    """Whole tables: every pattern with m <= 10 at N = 1, 2 and 12, forty seeded
    patterns with m = 11..16 at N = 64, and one at the indices cap with N = 12."""
    rng = random.Random(29)

    def pattern(m):
        return (0,) + tuple(rng.getrandbits(1) for _ in range(m - 1))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", H3Warning)
        configs = [
            cfg(parities, N=N)
            for m in range(1, 11)
            for parities in all_parity_patterns(m)
            for N in (1, 2, 12)
        ]
    configs += [cfg(pattern(rng.randint(11, 16)), N=64) for _ in range(40)]
    configs.append(cfg(pattern(MAX_INDICES_M), N=12))
    for c in configs:
        assert mu_direct(c) == bucketed_mu_direct(c), c


def test_direct_route_reads_no_other_route(monkeypatch):
    def forbidden(*args):
        raise AssertionError("mu_direct read another counting route")

    c = cfg((0, 1, 1, 0, 1, 0, 0, 1), N=12)
    want = bucketed_mu_direct(c)
    for name in ("_mu_row", "_recurrence_rows", "comb"):
        monkeypatch.setattr(indexcount, name, forbidden)
    assert mu_direct(c) == want


# ---------------------------------------------------------------------------
# exhaustive sweep (small): every pattern with m <= 6, N = 8
# ---------------------------------------------------------------------------


def test_exhaustive_small_sweep():
    for m in range(1, 7):
        for parities in all_parity_patterns(m):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", H3Warning)
                c = cfg(parities, N=8)
                td, tr = mu_direct(c), mu_recurrence(c)
                assert td.mu == tr.mu
                assert td.mu_geq == tr.mu_geq
                assert td == tr  # whole tables, the at-rank rows included
                assert euler_poincare_check(td)
                tc = mu_closed_form(c)
                if tc is not None:
                    assert tc.mu == tr.mu
                    assert euler_poincare_check(tc)


# ---------------------------------------------------------------------------
# closed forms: availability and values
# ---------------------------------------------------------------------------


def test_closed_form_absent_for_mixed_patterns():
    assert mu_closed_form(cfg((0, 1, 1, 0))) is None  # not literal alternating
    assert mu_closed_form(cfg((0, 0, 1))) is None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", H3Warning)
        assert mu_closed_form(cfg((0,))) is None  # m < 3
        assert mu_closed_form(cfg((0, 0))) is None


def test_closed_form_even_tail_binomials():
    for m in range(3, 8):
        c = cfg((0,) * m, N=10)
        t = mu_closed_form(c)
        assert t is not None
        assert t.mu == tuple(-comb(p + m - 2, m - 2) for p in range(1, 11))


def test_closed_form_odd_tail_binomials():
    for m in range(3, 8):
        c = cfg((0,) + (1,) * (m - 1), N=10)
        t = mu_closed_form(c)
        assert t is not None
        assert t.mu[0] == m - 1
        assert t.mu[1:] == tuple(
            (-1) ** (p + 1) * comb(p + m - 2, m - 2) for p in range(2, 11)
        )


def test_closed_form_alternating_pattern():
    c = cfg((0, 1, 0, 1, 0, 1, 0), N=12)  # l = 3
    t = mu_closed_form(c)
    assert t is not None
    for p in range(1, 13):
        if p % 2:
            assert t.mu[p - 1] == 0
        else:
            assert t.mu[p - 1] == -comb(p // 2 + 2, p // 2)


# ---------------------------------------------------------------------------
# index_K and classification
# ---------------------------------------------------------------------------


def test_index_K_examples():
    assert index_K(cfg((0, 0, 0))) == 3
    assert index_K(cfg((0, 1, 0))) == 1
    assert index_K(cfg((0, 1))) == 0


def test_classification_examples():
    assert classify_case(cfg((0, 0, 0))) == ("Case1", None)
    assert classify_case(cfg((0, 1, 1))) == ("Case2", None)
    assert classify_case(cfg((0, 1, 0))) == ("IndexOne", 1)
    # derived by hand: tail (1,0,1,1,1) has e=1, o=4 -> odd-heavy, l = e = 1
    assert classify_case(cfg((0, 1, 0, 1, 1, 1))) == ("Case4", 1)
    r = solution_bounds(cfg((0, 1, 0, 1, 1, 1)))
    assert r.ell == 1


def test_classification_rejects_malformed():
    with pytest.raises(ValueError):
        ParityConfig(n=7, parities=(1, 0), N=2)


@pytest.mark.parametrize("parities", [(0, 1.9, True), (0, True), (0, 1.0), (0, "1"), (False, 1)])
def test_a_parity_that_is_not_an_int_is_refused(parities):
    """A float, bool or string parity used to be coerced by int()."""
    with pytest.raises(ValueError, match="parities"):
        ParityConfig(n=7, parities=parities, N=2)
    with pytest.raises(ValueError, match="parities"):
        ParityConfig.from_dict({"n": 7, "parities": list(parities), "N": 2})


@pytest.mark.parametrize("field", ["n", "N"])
def test_a_bool_dimension_or_level_cap_is_refused(field):
    kwargs = {"n": 7, "parities": (0, 1), "N": 3, field: True}
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        ParityConfig(**kwargs)


@pytest.mark.parametrize("m", [0, -1])
def test_all_parity_patterns_refuses_fewer_than_one_point(m):
    with pytest.raises(ValueError, match=f"got m = {m}"):
        all_parity_patterns(m)


@given(tail=st.lists(st.integers(0, 1), min_size=1, max_size=7))
def test_classification_total_and_consistent(tail):
    c = cfg((0, *tail), N=2)
    label, ell = classify_case(c)
    e = tail.count(0)
    o = tail.count(1)
    assert ell == {"IndexOne": e, "Case3": o, "Case4": e}.get(label)
    if label == "IndexOne":
        assert index_K(c) == 1 and e == o
    else:
        assert index_K(c) != 1
        expected = (
            "Case1" if o == 0 else "Case2" if e == 0 else "Case3" if e > o else "Case4"
        )
        assert label == expected
    if c.m % 2 == 0:
        assert label != "IndexOne"  # even m cannot have index 1
