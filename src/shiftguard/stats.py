"""Exact and asymptotic statistics behind the shift tests.

Two-sample Kolmogorov-Smirnov with exact small-sample p-values (surviving
lattice paths counted in integers, then one correctly rounded division),
the one-sided binomial tail P(X >= x) and the Bayesian posterior P[q > p]
for two observed disagreement counts (each an integer sum over one
integer denominator, so also correctly rounded), the empirical-quantile
convention and ``NullReference``, the verdict rule of every detector, and
the p*(n) disagreement bound.  Each closed form is paired in the test
suite with an enumeration or Monte-Carlo oracle.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

__all__ = [
    "KsResult",
    "NullReference",
    "PosteriorInputs",
    "ks_two_sample",
    "binomial_pvalue",
    "empirical_quantile",
    "disagreement_bound_pstar",
    "posterior_prob_shift",
]

# exact lattice counting at or below this n*m; on tie-free samples one call
# costs about 0.5 ms at n=10, m=990 and at n=20, m=380, and 1.4-1.7 ms at
# n=1, m=10,000 or the reverse (2-core Xeon); its grid holds
# (min(n, m) + 1) x (max(n, m) + 2) cells, about 20k at the cap
EXACT_KS_MAX_NM = 10_000


@dataclass(frozen=True)
class KsResult:
    statistic: float
    p_value: float
    method: str  # "exact" | "asymptotic"


@dataclass(frozen=True)
class PosteriorInputs:
    """Disagreement counts: n of N on the reference sample, m of M on the
    candidate sample."""
    n: int
    N: int
    m: int
    M: int

    def __post_init__(self):
        counts = (self.n, self.N, self.m, self.M)
        if any(type(v) is not int for v in counts):
            raise TypeError(f"counts must be int, got {counts!r}")
        if self.N < 1 or self.M < 1:
            raise ValueError("sample sizes must be >= 1")
        if not 0 <= self.n <= self.N:
            raise ValueError(f"need 0 <= n <= N, got n={self.n}, N={self.N}")
        if not 0 <= self.m <= self.M:
            raise ValueError(f"need 0 <= m <= M, got m={self.m}, M={self.M}")


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov
# ---------------------------------------------------------------------------

def _ks_statistic(pooled: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> float:
    """sup |F_x - F_y| over the sorted pooled sample (<= convention, so
    ties are handled by comparing CDFs at each distinct pooled value)."""
    fx = np.searchsorted(np.sort(xs), pooled, side="right") / xs.size
    fy = np.searchsorted(np.sort(ys), pooled, side="right") / ys.size
    return float(np.abs(fx - fy).max())


def _tie_counts(pooled: np.ndarray) -> np.ndarray:
    """Sizes of the runs of equal values in the sorted pooled sample."""
    starts = np.flatnonzero(np.concatenate(([True], pooled[1:] != pooled[:-1])))
    return np.diff(np.append(starts, pooled.size))


def _ks_exact_pvalue(counts: np.ndarray, n: int, m: int, d: float) -> float:
    """P(D >= d) under the permutation null by lattice-path counting.

    ``counts`` are the tie-group sizes of the sorted pooled sample.  An
    assignment is a path from (0, 0) to (n, m) that steps along i on an x
    and along j on a y.  It dies at a point where i + j ends a tie group
    and the CDF gap |i/n - j/m| is not below d - 1e-12; the survivors are
    the assignments whose gap stays below d, and every other one attains
    D >= d.  Points inside a tie group are never checked, so a group of
    size s is crossed in C(s, k) ways: ties are weighted exactly.

    Paths are counted in Python ints, one row of the smaller sample at a
    time.  A run of live points in a row takes the running sum of the row
    below; runs outside that row's nonzero span are skipped.  numpy's
    int/int true division rounds like Python's, so the grid holds the
    scalar test's floats, and the gap is the same float with the samples
    swapped (x - y is -(y - x) exactly).
    ``(total - survivors) / total`` is int/int true division, which rounds
    correctly, so the p-value is the same bits on every machine.
    """
    a, b = min(n, m), max(n, m)
    ends = np.zeros(n + m + 1, dtype=bool)
    ends[np.cumsum(counts)] = True
    rows, cols = np.arange(a + 1), np.arange(b + 1)
    # the grid plus one dead column per row, so no run spans two rows
    live = np.zeros((a + 1, b + 2), dtype=bool)
    np.less(np.abs(np.subtract.outer(rows / a, cols / b)), d - 1e-12,
            out=live[:, :-1])
    live[:, :-1] |= ~ends[np.add.outer(rows, cols)]
    edges = np.flatnonzero(np.diff(live.ravel(), prepend=False))
    row, col = np.divmod(edges[::2], b + 2)
    starts, stops = col.tolist(), (col + edges[1::2] - edges[::2]).tolist()
    # row r's runs, in column order, are those from cuts[r] to cuts[r + 1]
    cuts = np.searchsorted(row, np.arange(a + 2)).tolist()

    # ways[k]: surviving paths into column lo + k of the last row counted;
    # the row below row 0 holds the one path into (0, 0)
    lo, ways = 0, [1]
    for k0, k1 in zip(cuts, cuts[1:]):
        hi = lo + len(ways)
        new_lo, new = 0, []
        for k in range(bisect_right(stops, lo, k0, k1), k1):
            start, stop = starts[k], stops[k]
            if start >= hi:
                break
            first = max(start, lo)
            if new:
                new += [0] * (first - new_lo - len(new))
            else:
                new_lo = first
            new += accumulate(ways[first - lo:min(stop, hi) - lo])
            if stop > hi:
                new += [new[-1]] * (stop - hi)
        lo, ways = new_lo, new
    survivors = ways[b - lo] if lo + len(ways) > b else 0
    total = math.comb(n + m, n)
    return (total - survivors) / total


def _ks_asymptotic_pvalue(d: float, n: int, m: int) -> float:
    lam = d * math.sqrt(n * m / (n + m))
    if lam < 1e-9:
        return 1.0
    total = 0.0
    for j in range(1, 100_001):
        term = 2.0 * (-1.0) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
        total += term
        if abs(term) < 1e-14:
            break
    return min(1.0, max(0.0, total))


def ks_two_sample(xs, ys) -> KsResult:
    """Two-sample KS test.

    Exact p-value (lattice-path counting over the permutation null) when
    n*m <= 10_000, otherwise the asymptotic series
    2 * sum_j (-1)^(j-1) exp(-2 j^2 lambda^2), lambda = D sqrt(nm/(n+m)).
    Samples holding NaN are refused.
    """
    xs = np.asarray(xs, dtype=np.float64).ravel()
    ys = np.asarray(ys, dtype=np.float64).ravel()
    if xs.size == 0 or ys.size == 0:
        raise ValueError("both samples must be nonempty")
    pooled = np.concatenate([xs, ys])
    if np.isnan(pooled).any():
        raise ValueError("samples must not contain NaN")
    pooled.sort()
    n, m = xs.size, ys.size
    d = _ks_statistic(pooled, xs, ys)
    exact = n * m <= EXACT_KS_MAX_NM
    if d == 0.0:
        p_value = 1.0
    elif exact:
        p_value = _ks_exact_pvalue(_tie_counts(pooled), n, m, d)
    else:
        p_value = _ks_asymptotic_pvalue(d, n, m)
    return KsResult(statistic=d, p_value=p_value,
                    method="exact" if exact else "asymptotic")


# ---------------------------------------------------------------------------
# binomial test
# ---------------------------------------------------------------------------

def binomial_pvalue(x: int, n: int, p0) -> float:
    """One-sided binomial test p-value P(X >= x) for X ~ Bin(n, p0).

    p0 is a float or a ``fractions.Fraction`` in (0, 1), taken exactly as
    a/d.  The tail sum_{k >= x} C(n, k) a^k (d - a)^(n - k) is summed in
    ints, each term from the one before by an exact floor division, and
    divided once by d^n, so the p-value is correctly rounded.
    """
    if type(x) is not int or type(n) is not int:
        raise TypeError(f"counts must be int, got x={x!r}, n={n!r}")
    if not 0 <= x <= n:
        raise ValueError(f"need 0 <= x <= n, got x={x}, n={n}")
    if not 0 < p0 < 1:
        raise ValueError(f"p0 must be in (0, 1), got {p0}")
    a, d = p0.as_integer_ratio()
    b = d - a
    term = math.comb(n, x) * a ** x * b ** (n - x)
    total = 0
    for k in range(x, n + 1):
        total += term
        term = term * (n - k) * a // ((k + 1) * b)
    return total / d ** n


# ---------------------------------------------------------------------------
# empirical quantile (permutation-calibration convention)
# ---------------------------------------------------------------------------

def empirical_quantile(values, q: float) -> float:
    """Lower empirical quantile: the smallest element v such that at least
    ceil(q * K) of the K values are <= v.

    The convention is pinned because verdicts flip on it at small K; a
    tiny epsilon guards ceil against float fuzz in q * K.
    """
    arr = np.sort(np.asarray(values, dtype=np.float64).ravel())
    if arr.size == 0:
        raise ValueError("empty input")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    k = max(1, math.ceil(q * arr.size - 1e-9))
    return float(arr[k - 1])


@dataclass(frozen=True)
class NullReference:
    """K null draws of a test statistic, sorted once.  With ``upper`` a
    statistic (a disagreement rate) flags above their (1 - alpha)
    quantile, otherwise (a p-value) below their alpha quantile; either
    comparison is strict."""
    values: tuple
    alpha: float
    upper: bool
    threshold: float = field(init=False)

    def __post_init__(self):
        values = np.sort(np.asarray(self.values, dtype=np.float64).ravel())
        object.__setattr__(self, "values", tuple(values.tolist()))
        q = 1.0 - self.alpha if self.upper else self.alpha
        object.__setattr__(self, "threshold", empirical_quantile(values, q))

    def rejects(self, statistic: float) -> bool:
        if self.upper:
            return statistic > self.threshold
        return statistic < self.threshold


# ---------------------------------------------------------------------------
# disagreement bound p*(n)
# ---------------------------------------------------------------------------

def disagreement_bound_pstar(n: int) -> float:
    """p*(n) = (1 - 4^-n C(2n, n)) / 2: the tightest p-free upper bound on
    P(X > Y) for X, Y iid Bin(n, p).  Strictly below 1/2, increasing in n,
    approaching 1/2 like O(1/sqrt(n))."""
    if n <= 0:
        raise ValueError("n must be positive")
    log_central = (math.lgamma(2 * n + 1) - 2 * math.lgamma(n + 1)
                   - n * math.log(4.0))
    return 0.5 * (1.0 - math.exp(log_central))


# ---------------------------------------------------------------------------
# Bayesian posterior P[q > p]
# ---------------------------------------------------------------------------

def posterior_prob_shift(inputs: PosteriorInputs) -> float:
    """Posterior probability that the true disagreement rate on the
    candidate sample exceeds that on the reference sample, under uniform
    priors on both rates.

    The paper's closed form is

    1 - [(M+1)!(N+1)!(m+n+1)!] / [(m+1)! n! (M-m)! (m+N+2)!]
        * 3F2(m+1, m-M, m+n+2; m+2, m+N+3; 1).

    The same value is p's Beta(n+1, N-n+1) density integrated against
    P(q > t) = P(Bin(M+1, t) <= m):

    (N+1) C(N, n) sum_{j <= m} C(M+1, j) (n+j)! (N+M+1-n-j)! / (N+M+2)!,

    which is evaluated here as one integer sum over one integer
    denominator, so the result is correctly rounded and lies in [0, 1].
    """
    n, N, m, M = inputs.n, inputs.N, inputs.m, inputs.M
    # term j of the sum, each from the one before by an exact division
    term = math.factorial(n) * math.factorial(N + M + 1 - n)
    total = 0
    for j in range(m + 1):
        total += term
        term = term * (M + 1 - j) * (n + j + 1) // (
            (j + 1) * (N + M + 1 - n - j))
    return (N + 1) * math.comb(N, n) * total / math.factorial(N + M + 2)
