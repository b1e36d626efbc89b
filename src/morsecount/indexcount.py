"""Exact signed counting of blow-up configurations for prescribed-curvature problems.

The combinatorial engine of the package.  A configuration is abstracted to the
ordered list of co-index parities of the admissible concentration points
``y_1, ..., y_m`` (those critical points of the curvature candidate K with
``Delta K < 0``), with ``y_1`` the global maximum, whose co-index is 0.  From the
parities alone, three independent routes compute the signed solution counts
``mu_p`` at every energy level ``p <= N``:

* ``mu_direct`` -- enumerate every blow-up configuration (a weak limit at a lower
  level, or no weak limit at all, plus a set of concentration points) and sum its
  Morse-index sign contribution;
* ``mu_recurrence`` -- a two-index recursion over the counts
  ``mu_{>=k}^{inf,p}`` of configurations that only use points ``y_k, ..., y_m``,
  anchored by the closed p = 1 row and the Euler-Poincare identities;
* ``mu_closed_form`` -- binomial closed forms available for three special parity
  patterns (all-even tail, all-odd tail, and the alternating pattern).

The two Euler-Poincare identities (``mu_1 + mu_{>=1}^{inf,1} = 1`` and
``mu_p + mu_{>=1}^{inf,p} = 0`` for p >= 2, together with
``mu_p + mu_{>=2}^{inf,p} = 0`` for all p) hold exactly on every computed table
and are exposed as ``euler_poincare_check``.

The counts depend only on how many parities are even (a) and odd (b):
``sum_p mu_p x^p = 1 - (1-x) / ((1-x)^a (1+x)^b)``, of which the three closed
forms are the cases b = 0, a = 1 and a = b + 1.  ``|mu_p|`` lower-bounds the
number of solutions with energy near ``p/n * S_n``; ``solution_bounds`` turns a
classified parity pattern into the sharpest published per-level bound and
cross-checks it against ``|mu_p|`` read from this generating function (no rank
recursion; one row per class (a, b, N), shared by every pattern in it), failing
loudly on any inconsistency.  All arithmetic uses Python's arbitrary-precision
integers; the binomial growth in m and N can never overflow silently.
``admissible_epsilon`` evaluates the oscillation threshold of the
perturbation for a level cap N and window eta.  The module needs only the
standard library.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, expm1, log, log1p
from operator import add, mul
from typing import Iterator, Literal, NamedTuple, Optional

CaseLabel = Literal["IndexOne", "Case1", "Case2", "Case3", "Case4"]

#: Levels are indexed 1..N and point ranks 1..m throughout; the tuples inside the
#: dataclasses are 0-based, so accessor methods are provided for the 1-based view.


class H3Warning(UserWarning):
    """A configuration has fewer than two admissible concentration points.

    Such inputs are still computed (they are useful for unit tests and for
    degenerate landscapes), but none of the multiplicity theorems apply to them,
    so theorem-derived bounds are suppressed.
    """


class ConsistencyError(RuntimeError):
    """A theorem-derived bound exceeded |mu_p|, or a closed-form row is short.

    This can only happen through an implementation bug -- the bounds are proved
    from the same identities the tables are built on -- so it is raised rather
    than reported.
    """


@dataclass(frozen=True)
class ParityConfig:
    """Abstract blow-up configuration: co-index parities of y_1..y_m plus a level cap.

    ``parities[j]`` is the co-index of ``y_{j+1}`` modulo 2.  Position 0 is the
    global maximum of K, whose co-index is 0, hence ``parities[0] == 0`` always.
    ``n`` is the sphere dimension (the theorems assume n >= 7; smaller n is
    allowed and merely flagged in reports).  ``N`` caps the energy level.
    """

    n: int
    parities: tuple[int, ...]
    N: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "parities", tuple(self.parities))
        if type(self.n) is not int or self.n < 3:
            raise ValueError(f"dimension n must be an integer >= 3, got {self.n!r}")
        if type(self.N) is not int or self.N < 1:
            raise ValueError(f"level cap N must be an integer >= 1, got {self.N!r}")
        if len(self.parities) < 1:
            raise ValueError("at least one concentration point is required")
        if any(type(b) is not int or b not in (0, 1) for b in self.parities):
            raise ValueError(f"parities must be bits, got {self.parities!r}")
        if self.parities[0] != 0:
            raise ValueError(
                "parities[0] is the global maximum and must be even (0), "
                f"got {self.parities!r}"
            )
        if len(self.parities) < 2:
            warnings.warn(
                "m = 1 violates the hypothesis m >= 2; counts are computed but "
                "no multiplicity theorem applies",
                H3Warning,
                stacklevel=2,
            )

    @property
    def m(self) -> int:
        """Number of admissible concentration points."""
        return len(self.parities)

    @property
    def satisfies_h3(self) -> bool:
        return self.m >= 2

    def to_dict(self) -> dict:
        return {"n": self.n, "parities": list(self.parities), "N": self.N}

    @classmethod
    def from_dict(cls, d: dict) -> "ParityConfig":
        try:
            return cls(n=d["n"], parities=tuple(d["parities"]), N=d["N"])
        except KeyError as exc:
            raise ValueError(f"parity configuration is missing field {exc}") from exc


@dataclass(frozen=True)
class IndexTable:
    """All signed counts for one configuration.

    ``mu[p-1]``            -- signed count of solutions at level p, 1 <= p <= N.
    ``mu_geq[k-1][p-1]``   -- signed count of blow-up configurations at level p
                              using only points of rank >= k, 1 <= k <= m+1 (the
                              row k = m+1 is the empty-set row, identically 0).
    ``mu_geq_at[k-1][p-1]``-- same, restricted to configurations that actually
                              use the rank-k point, 1 <= k <= m.
    """

    config: ParityConfig
    mu: tuple[int, ...]
    mu_geq: tuple[tuple[int, ...], ...]
    mu_geq_at: tuple[tuple[int, ...], ...]

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "mu": list(self.mu),
            "mu_geq": [list(row) for row in self.mu_geq],
            "mu_geq_at": [list(row) for row in self.mu_geq_at],
        }


class LevelBound(NamedTuple):
    """One row of a solution-count report: level, exact energy, count bound."""

    p: int
    energy_multiple: Fraction  # energy level as an exact multiple of S_n
    lower_bound: int

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "energy_multiple_of_Sn": str(self.energy_multiple),
            "lower_bound": self.lower_bound,
        }


@dataclass(frozen=True)
class SolutionBoundReport:
    """Classified case plus per-level and total solution-count lower bounds."""

    config: ParityConfig
    index_K: int
    case_label: CaseLabel
    ell: Optional[int]
    rows: tuple[LevelBound, ...]
    total_bound: int
    mu: tuple[int, ...]
    h3_satisfied: bool
    outside_theorem_dimension: bool = field(default=False)

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "index_K": self.index_K,
            "case_label": self.case_label,
            "ell": self.ell,
            "rows": [r.to_dict() for r in self.rows],
            "total_bound": self.total_bound,
            "mu": list(self.mu),
            "h3_satisfied": self.h3_satisfied,
            "outside_theorem_dimension": self.outside_theorem_dimension,
        }


def index_K(cfg: ParityConfig) -> int:
    """Alternating-sign sum over the configuration: sum_j (-1)^{parities[j]}."""
    return sum(1 if b == 0 else -1 for b in cfg.parities)


def _empty_rows(m: int, N: int) -> tuple[list[list[int]], list[list[int]]]:
    mu_geq = [[0] * N for _ in range(m + 1)]
    mu_geq_at = [[0] * N for _ in range(m)]
    return mu_geq, mu_geq_at


def _table(cfg: ParityConfig, mu, mu_geq, mu_geq_at) -> IndexTable:
    return IndexTable(
        config=cfg,
        mu=tuple(mu),
        mu_geq=tuple(tuple(r) for r in mu_geq),
        mu_geq_at=tuple(tuple(r) for r in mu_geq_at),
    )


def mu_direct(cfg: ParityConfig) -> IndexTable:
    """Compute the full table by summing signs over every blow-up configuration.

    A level-p configuration using only points of rank >= k consists of a
    nonempty subset S of {k..m} with |S| <= p together with (unless |S| = p) a
    solution at the residual level p - |S|.  Residual-level solutions enter only
    through their signed count mu_{p-|S|}, because the sign contribution of the
    pair factors as (-1)^{|S| + sigma(S)} * (-1)^{morse index of the solution},
    where sigma(S) is the parity of the summed co-indices over S.  Configurations
    with |S| = p have no residual solution and carry sign (-1)^{p-1+sigma(S)}.

    A term depends on S only through its minimum rank, |S| and sigma(S).  With
    bit j of S standing for rank j+1, the subsets of minimum rank k are
    range(2^(k-1), 2^m, 2^k), so the ranks are filled one at a time and each
    nonempty subset of {1..m} is still enumerated exactly once, into a bucket
    keyed by |S| and sigma(S).  Each rank's buckets fold into the weights
    w_k[s] = (-1)^s (even - odd) over its subsets of size s, and mu_{>=k;k} at
    level p is the dot product of w_k with (mu_{p-1}, ..., mu_1, -1), the
    residual factor of each size s <= p.  mu_{>=k} is its running sum from
    rank m down, and ``mu_p`` itself is then pinned by the level-p
    Euler-Poincare identity, ascending in p.
    """
    m, N = cfg.m, cfg.N
    odd_ranks = sum(1 << j for j, b in enumerate(cfg.parities) if b)
    weights = []  # weights[k-1][s-1] = w_k[s]
    for k in range(1, m + 1):
        buckets = [[0, 0] for _ in range(m - k + 2)]  # buckets[size][sigma]
        for S in range(1 << (k - 1), 1 << m, 1 << k):
            buckets[S.bit_count()][(S & odd_ranks).bit_count() & 1] += 1
        weights.append([(-1) ** s * (even - odd) for s, (even, odd) in enumerate(buckets)][1:])

    mu: list[int] = []
    mu_geq, mu_geq_at = _empty_rows(m, N)
    back = [-1]  # (mu_{p-1}, ..., mu_1, -1) at level p
    for p in range(1, N + 1):
        geq = 0
        for k in range(m, 0, -1):
            at = sum(map(mul, weights[k - 1], back))
            geq += at
            mu_geq_at[k - 1][p - 1] = at
            mu_geq[k - 1][p - 1] = geq
        mu.append((1 if p == 1 else 0) - geq)
        back.insert(0, mu[-1])

    return _table(cfg, mu, mu_geq, mu_geq_at)


def _recurrence_rows(
    par: tuple[int, ...], N: int, mu: list[int]
) -> tuple[list[list[int]], list[list[int]]]:
    """Fill mu_geq / mu_geq_at from a mu row via the rank recursion.

    The p = 1 row is closed: mu_{>=k}^{inf,1} = sum_{j>=k} (-1)^{parity_j}, and a
    single-point configuration at rank k contributes (-1)^{parity_k}.  For p >= 2
    the recursion peels off the rank-k point:

        mu_{>=k;k}^{inf,p} = (-1)^{1 + parity_k} * (mu_{p-1} + mu_{>=k+1}^{inf,p-1})
        mu_{>=k}^{inf,p}   = mu_{>=k+1}^{inf,p} + mu_{>=k;k}^{inf,p}

    Handed an empty list (the recurrence route), each level's mu_p is closed
    by the Euler-Poincare identity mu_p = delta_{p,1} - mu_{>=1}^{inf,p} and
    appended in place.  The closed-form route passes its whole binomial row,
    which is never appended to: a row whose length is not N is refused, so
    the recursion cannot fill in levels the closed form did not compute.
    """
    fill = not mu
    if not fill and len(mu) != N:
        raise ConsistencyError(
            f"the closed-form row for {par} holds {len(mu)} levels, not N = {N}"
        )
    m = len(par)
    mu_geq, mu_geq_at = _empty_rows(m, N)
    for p in range(1, N + 1):
        for k in range(m, 0, -1):
            # (-1)^{1 + parity_k} times the bracket; at level 1 the bracket is
            # -1, which leaves the single point's (-1)^{parity_k}
            at = mu[p - 2] + mu_geq[k][p - 2] if p > 1 else -1
            if par[k - 1] == 0:
                at = -at
            mu_geq_at[k - 1][p - 1] = at
            mu_geq[k - 1][p - 1] = mu_geq[k][p - 1] + at
        if fill:
            mu.append((1 if p == 1 else 0) - mu_geq[0][p - 1])
    return mu_geq, mu_geq_at


def mu_recurrence(cfg: ParityConfig) -> IndexTable:
    """Compute the full table by the rank recursion, closing each level with
    the Euler-Poincare identity mu_p = delta_{p,1} - mu_{>=1}^{inf,p}."""
    mu: list[int] = []
    mu_geq, mu_geq_at = _recurrence_rows(cfg.parities, cfg.N, mu)
    return _table(cfg, mu, mu_geq, mu_geq_at)


def mu_closed_form(cfg: ParityConfig) -> Optional[IndexTable]:
    """Binomial closed forms for the three special parity patterns.

    * all-even tail (m >= 3):  mu_p = -C(p+m-2, m-2);
    * all-odd tail (m >= 3):   mu_1 = m-1, mu_p = (-1)^{p+1} C(p+m-2, m-2) for p >= 2;
    * alternating (m = 2l+1):  mu_{2p-1} = 0, mu_{2p} = -C(p+l-1, p).

    The match is literal (the given order, not the multiset up to permutation);
    permuted variants are covered by the other two routes.  Returns None when no
    pattern applies -- absence is a value, not an error.  The mu row comes from
    the binomials; the auxiliary rows are reconstructed through the rank
    recursion, so the Euler-Poincare identities remain a genuine cross-check of
    the closed form against the recursion.
    """
    m, N = cfg.m, cfg.N
    par = cfg.parities
    tail = par[1:]

    mu: Optional[list[int]] = None
    if m >= 3 and all(b == 0 for b in tail):
        mu = [-comb(p + m - 2, m - 2) for p in range(1, N + 1)]
    elif m >= 3 and all(b == 1 for b in tail):
        mu = [m - 1] + [
            (1 if (p + 1) % 2 == 0 else -1) * comb(p + m - 2, m - 2)
            for p in range(2, N + 1)
        ]
    elif m >= 3 and m % 2 == 1 and all(par[j] == j % 2 for j in range(m)):
        ell = (m - 1) // 2
        mu = [0 if p % 2 else -comb(p // 2 + ell - 1, p // 2) for p in range(1, N + 1)]
    if mu is None:
        return None

    mu_geq, mu_geq_at = _recurrence_rows(par, N, mu)
    return _table(cfg, mu, mu_geq, mu_geq_at)


def euler_poincare_check(t: IndexTable) -> bool:
    """Exact verification of both Euler-Poincare identity families.

    Family one:  mu_1 + mu_{>=1}^{inf,1} = 1   and   mu_p + mu_{>=1}^{inf,p} = 0
    for p >= 2 (sublevel sets at consecutive levels are contractible into each
    other, so the alternating count of everything at level p is that of a point
    at p = 1 and zero above).  Family two drops the rank-1 point:
    mu_p + mu_{>=2}^{inf,p} = 0 for every p.
    """
    if list(map(add, t.mu, t.mu_geq[0])) != [1] + [0] * (t.config.N - 1):
        return False
    return not any(map(add, t.mu, t.mu_geq[1]))


def _mu_row(par: tuple[int, ...], N: int) -> tuple[int, ...]:
    """The mu row of a parity pattern: that of its class (a evens, b odds)."""
    b = sum(par)
    return _class_mu_row(len(par) - b, b, N)


@lru_cache(maxsize=128)
def _class_mu_row(a: int, b: int, N: int) -> tuple[int, ...]:
    """mu_p = -[x^p] (1-x)^{1-a} (1+x)^{-b} for p = 1..N; a >= 1 because
    parities[0] == 0, and each (1-x)^{-1} is a running sum.  Keyed by the
    counts, so every permutation of a pattern shares one tuple."""
    row = [(-1) ** p * comb(p + b - 1, p) for p in range(N + 1)] if b else [1] + [0] * N
    for _ in range(a - 1):
        row = list(accumulate(row))
    return tuple(-c for c in row[1:])


@lru_cache(maxsize=128)
def _level_energies(n: int, N: int) -> tuple[Fraction, ...]:
    """The exact level energies p/n for p = 1..N; Fractions are immutable, so
    every report at (n, N) shares one tuple."""
    return tuple(Fraction(p, n) for p in range(1, N + 1))


def classify_case(cfg: ParityConfig) -> tuple[CaseLabel, Optional[int]]:
    """Classify a configuration after the canonical rearrangement; returns the
    case label and the number l of (odd, even) pairs (None for Case1/Case2).

    Counting evens (e) and odds (o) among positions 2..m: the pattern rearranges
    to ``(even | (odd, even) x l | homogeneous tail)``, which yields

    * ``IndexOne``  iff e == o         (then index_K == 1, l = e),
    * ``Case1``     iff o == 0         (everything even),
    * ``Case2``     iff e == 0, o >= 1 (odd tail only),
    * ``Case3``     iff e > o >= 1     (even tail after l = o pairs),
    * ``Case4``     iff o > e >= 1     (odd tail after l = e pairs).

    The five branches are exhaustive and mutually exclusive, so a configuration
    with index_K != 1 always lands in one of the four cases.
    """
    tail = cfg.parities[1:]
    e = sum(1 for b in tail if b == 0)
    o = sum(1 for b in tail if b == 1)
    if e == o:
        # index_K = 1 + e - o = 1; the canonical rearrangement is the
        # alternating pattern with l = e pairs.
        return "IndexOne", e
    if o == 0:
        return "Case1", None
    if e == 0:
        return "Case2", None
    if e > o:
        return "Case3", o
    return "Case4", e


@lru_cache(maxsize=128)
def _class_bounds(n: int, m: int, label: CaseLabel, ell: Optional[int], N: int) -> tuple:
    """(bounds, rows, total) of the class (n, m, case, ell, N), which (a, b) fixes."""
    levels = range(1, N + 1)
    if m < 2:
        bounds, total = (), 0
    elif label == "IndexOne":
        bounds = tuple(comb(p // 2 + ell - 1, p // 2) if p % 2 == 0 else 0 for p in levels)
        total = comb(ell + N // 2, ell) - 1
    elif label in ("Case1", "Case2"):
        bounds = tuple(comb(p + m - 2, p) for p in levels)
        total = comb(N + m - 1, m - 1) - 1
    else:
        bounds = tuple(
            comb(p // 2 + m - ell - 2, p // 2) if p % 2 == 0
            else comb((p + 1) // 2 + m - ell - 3, (p - 1) // 2)
            for p in levels
        )
        total = sum(bounds)
    return bounds, tuple(map(LevelBound, levels, _level_energies(n, N), bounds)), total


def solution_bounds(cfg: ParityConfig) -> SolutionBoundReport:
    """Per-level and total solution-count lower bounds for the classified case.

    Level p carries energy ``p/n * S_n`` (stored as the exact fraction p/n).
    The emitted bounds are:

    * ``IndexOne`` (m = 2l+1): level 2k bound C(k+l-1, k) for k <= floor(N/2),
      odd levels 0; total C(l + floor(N/2), l) - 1.
    * ``Case1``/``Case2``: level p bound C(p+m-2, p); total C(N+m-1, m-1) - 1.
    * ``Case3``/``Case4``: level 2p bound C(p+m-l-2, p), level 2p-1 bound
      C(p+m-l-3, p-1); no closed total, so the total is the sum of the rows.

    Every bound is cross-checked against |mu_p| from the generating function;
    a bound exceeding |mu_p| raises ConsistencyError.  The mu row, bounds,
    rows and total are built once per class (a, b, N): at m = 16, N = 64 a
    call takes 9 us on a shared 2-core host, against 41 us built per pattern.
    Configurations with m = 1 get an empty report and a warning.
    """
    mu = _mu_row(cfg.parities, cfg.N)
    label, ell = classify_case(cfg)
    if not cfg.satisfies_h3:
        warnings.warn(
            "m = 1: multiplicity theorems need m >= 2; emitting an empty bound report",
            H3Warning,
            stacklevel=2,
        )
        ell = None
    bounds, rows, total = _class_bounds(cfg.n, cfg.m, label, ell, cfg.N)
    for p, bound, mu_p in zip(range(1, cfg.N + 1), bounds, mu):
        if bound > abs(mu_p):
            raise ConsistencyError(
                f"level {p}: bound {bound} exceeds |mu| = {abs(mu_p)} "
                f"for parities {cfg.parities}"
            )
    return SolutionBoundReport(
        config=cfg,
        index_K=index_K(cfg),
        case_label=label,
        ell=ell,
        rows=rows,
        total_bound=total,
        mu=mu,
        h3_satisfied=cfg.satisfies_h3,
        outside_theorem_dimension=cfg.n < 7,
    )


def all_parity_patterns(m: int) -> Iterator[tuple[int, ...]]:
    """All 2^{m-1} parity tuples of length m with the leading bit fixed to 0."""
    if type(m) is not int or m < 1:
        raise ValueError(f"the point count m must be an integer >= 1, got m = {m!r}")
    return ((0,) + tuple((mask >> j) & 1 for j in range(m - 1)) for mask in range(1 << (m - 1)))


def admissible_epsilon(N: int, eta: float, n: int) -> float:
    """Oscillation threshold ((N+1)/N)^{2/(n-2)} ((1-eta)/(1+eta))^{2/(n-2)} - 1.

    A declared epsilon is admissible iff it is strictly below the returned
    value (the accompanying small-epsilon constant is non-constructive and not
    evaluated here).  Preconditions: N >= 1, n >= 3, 0 < eta < 1/(2N+1).
    """
    if type(N) is not int or N < 1:
        raise ValueError("N must be an integer >= 1")
    if type(n) is not int or n < 3:
        raise ValueError("n must be an integer >= 3")
    if not (0.0 < eta < 1.0 / (2 * N + 1)):
        raise ValueError(
            f"eta must satisfy 0 < eta < 1/(2N+1) = {1.0 / (2 * N + 1):.6g}, "
            f"got {eta!r}"
        )
    expo = 2.0 / (n - 2)
    return expm1(expo * (log((N + 1) / N) + log1p(-eta) - log1p(eta)))
