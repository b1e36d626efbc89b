"""Solution-count lower bounds: values, cross-checks, and the exhaustive sweep."""
from __future__ import annotations

import warnings
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from morsecount import (
    ConsistencyError,
    H3Warning,
    ParityConfig,
    all_parity_patterns,
    index_K,
    indexcount,
    mu_recurrence,
    solution_bounds,
)
from oracles import level_bound_rows


def cfg(parities, N=4, n=7):
    return ParityConfig(n=n, parities=tuple(parities), N=N)


def test_alternating_l1_bounds():
    r = solution_bounds(cfg((0, 1, 0), N=4))
    assert r.case_label == "IndexOne" and r.ell == 1
    by_level = {row.p: row.lower_bound for row in r.rows}
    assert by_level == {1: 0, 2: 1, 3: 0, 4: 1}
    assert r.total_bound == comb(1 + 2, 1) - 1 == 2


def test_all_even_m3_bounds():
    r = solution_bounds(cfg((0, 0, 0), N=3))
    assert r.case_label == "Case1"
    assert [row.lower_bound for row in r.rows] == [comb(p + 1, p) for p in (1, 2, 3)]
    assert r.total_bound == comb(3 + 2, 2) - 1 == 9


def test_odd_heavy_m5_bounds():
    # tail (1,0,1,1): e=1, o=3 -> l = 1, so level 2 gets C(1+5-1-2, 1) = 3
    r = solution_bounds(cfg((0, 1, 0, 1, 1), N=2))
    assert r.case_label == "Case4" and r.ell == 1
    assert r.rows[1].lower_bound == comb(3, 1) == 3
    assert r.rows[0].lower_bound == comb(2, 0) == 1


def test_energy_levels_are_exact_fractions():
    r = solution_bounds(cfg((0, 0), N=3, n=7))
    assert [row.energy_multiple for row in r.rows] == [
        Fraction(1, 7),
        Fraction(2, 7),
        Fraction(3, 7),
    ]


def test_rows_match_the_per_row_construction():
    """Shared level energies and tuple rows give every row the fields, types
    and ``to_dict`` of a frozen row with its own Fraction(p, n), reduced
    fractions such as 2/4 -> 1/2 included."""
    for m in range(2, 11):
        for parities in all_parity_patterns(m):
            for n in range(3, 10):
                rows = solution_bounds(cfg(parities, N=20, n=n)).rows
                want = level_bound_rows(n, [row.lower_bound for row in rows])
                assert len(rows) == len(want) == 20
                for row, old in zip(rows, want):
                    assert (row.p, row.energy_multiple, row.lower_bound) == (
                        old.p, old.energy_multiple, old.lower_bound
                    )
                    assert list(map(type, row)) == [int, Fraction, int]
                    assert row.to_dict() == old.to_dict()
    row = solution_bounds(cfg((0, 0), N=2, n=4)).rows[1]
    assert row.to_dict()["energy_multiple_of_Sn"] == "1/2"
    with pytest.raises(AttributeError):
        row.p = 3


@pytest.mark.parametrize(
    "parities, label, message",
    [
        ((0, 1, 0, 1, 0), "IndexOne",
         "level 2: bound 2 exceeds |mu| = 1 for parities (0, 1, 0, 1, 0)"),
        ((0, 0, 0), "Case1", "level 1: bound 2 exceeds |mu| = 1 for parities (0, 0, 0)"),
        ((0, 0, 0, 1), "Case3", "level 2: bound 2 exceeds |mu| = 1 for parities (0, 0, 0, 1)"),
    ],
)
def test_bound_above_mu_raises_at_the_first_offending_level(
    monkeypatch, parities, label, message
):
    """Two levels get |mu_p| one below their bound (bound >= 2, sign kept
    negative so the check must take |mu|); the error names the first."""
    c = cfg(parities, N=8)
    report = solution_bounds(c)
    assert report.case_label == label
    bounds = [row.lower_bound for row in report.rows]
    hit = [p for p, b in enumerate(bounds, start=1) if b >= 2][:2]
    real = indexcount._mu_row

    def lowered(par, N):
        mu = list(real(par, N))
        for p in hit:
            mu[p - 1] = 1 - bounds[p - 1]
        return tuple(mu)

    monkeypatch.setattr(indexcount, "_mu_row", lowered)
    with pytest.raises(ConsistencyError) as exc:
        solution_bounds(c)
    assert str(exc.value) == message


def test_m1_report_is_suppressed():
    with pytest.warns(H3Warning):
        r = solution_bounds(ParityConfig(n=7, parities=(0,), N=3))
    assert r.rows == () and r.total_bound == 0 and not r.h3_satisfied


def test_dimension_banner():
    assert solution_bounds(cfg((0, 0), n=3)).outside_theorem_dimension
    assert not solution_bounds(cfg((0, 0), n=7)).outside_theorem_dimension


@given(
    tail=st.lists(st.integers(0, 1), min_size=1, max_size=6),
    N=st.integers(min_value=1, max_value=8),
)
def test_bounds_never_exceed_mu(tail, N):
    c = cfg((0, *tail), N=N)
    r = solution_bounds(c)  # raises ConsistencyError internally if violated
    t = mu_recurrence(c)
    for row in r.rows:
        assert row.lower_bound <= abs(t.mu[row.p - 1])


def test_exhaustive_nonvanishing_and_case_bounds():
    """For every pattern with index != 1 (m <= 7, N = 10): mu never vanishes,
    bounds hold level by level, and |mu_1| is exactly m - 2l - 1 in the two
    mixed cases."""
    for m in range(2, 8):
        for parities in all_parity_patterns(m):
            c = cfg(parities, N=10)
            if index_K(c) == 1:
                continue
            t = mu_recurrence(c)
            assert all(v != 0 for v in t.mu), parities
            r = solution_bounds(c)
            assert all(row.lower_bound >= 1 for row in r.rows), parities
            if r.case_label in ("Case3", "Case4"):
                assert abs(t.mu[0]) == m - 2 * r.ell - 1, parities
                sign = -1 if r.case_label == "Case3" else 1
                assert t.mu[0] == sign * (m - 2 * r.ell - 1), parities


def test_index_one_even_levels_are_sharp():
    """In the alternating family the bound meets |mu| exactly at even levels."""
    for ell in (1, 2, 3):
        parities = (0,) + (1, 0) * ell
        c = cfg(parities, N=12)
        t = mu_recurrence(c)
        r = solution_bounds(c)
        for row in r.rows:
            if row.p % 2 == 0:
                assert row.lower_bound == abs(t.mu[row.p - 1]) == comb(
                    row.p // 2 + ell - 1, row.p // 2
                )
            else:
                assert t.mu[row.p - 1] == 0 and row.lower_bound == 0
        assert r.total_bound == comb(ell + 6, ell) - 1
