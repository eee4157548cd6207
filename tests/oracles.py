"""Independent oracles used to freeze expected values in the tests.

Everything here deliberately avoids the library's own code paths:
enumeration uses exact integer combinatorics, the binomial tail and the
paper's 3F2 posterior are summed term by term in Fraction, ECDFs are
brute-force mean comparisons, Monte Carlo goes through order statistics
or an inverse-CDF binomial sampler rather than any closed form under
test, the exact-KS reference visits every state of every tie group one
numpy-scalar term at a time, the integer exact-KS walk counts paths group
by group with binomial tie weights, and the GBT references grow, walk and
sum trees one node and one tree at a time.  The loss oracles are
per-sample, on a scalar log-sum-exp and softmax that live here, or batch
code that takes each loss and gradient through its own log-softmax and
masks; the Adam reference updates one parameter array at a time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from shiftguard.learners.gbt import _MIN_GAIN, _leaf_value, _Tree
from shiftguard.numerics import RngStream, log_softmax_rows, softmax_rows


def brute_ks_statistic(xs, ys) -> float:
    """sup |F_x(v) - F_y(v)| over pooled values, ECDFs by brute counting."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    best = 0.0
    for v in np.concatenate([xs, ys]):
        fx = float(np.mean(xs <= v))
        fy = float(np.mean(ys <= v))
        best = max(best, abs(fx - fy))
    return best


def reference_ks_exact_pvalue(xs: np.ndarray, ys: np.ndarray,
                              d: float) -> float:
    """P(D >= d) under the permutation null by lattice-path counting.

    Walk the pooled sorted values in tie groups; a state is the number of
    x's consumed so far.  Assignments whose running CDF gap stays strictly
    below d at every group boundary are the survivors; everything else
    attains D >= d.  Counts are binomially weighted within tie groups so
    tied pooled values are handled exactly.
    """
    n, m = xs.size, ys.size
    pooled = np.concatenate([xs, ys])
    values, counts = np.unique(pooled, return_counts=True)

    # log-binomial table for group weighting
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + m + 1)))))

    def log_comb(a: int, b: int) -> float:
        if b < 0 or b > a:
            return -math.inf
        return log_fact[a] - log_fact[b] - log_fact[a - b]

    # ways[i] ~ (log-scaled) number of assignments with i x's consumed that
    # have stayed strictly below d so far
    ways = np.full(n + 1, -math.inf)
    ways[0] = 0.0
    consumed = 0
    tol = 1e-12
    for size in counts:
        size = int(size)
        consumed += size
        new_ways = np.full(n + 1, -math.inf)
        lo = max(0, consumed - m)
        hi = min(n, consumed)
        for i in range(lo, hi + 1):
            gap = abs(i / n - (consumed - i) / m)
            if gap >= d - tol:
                continue  # this boundary already attains D >= d
            # i x's consumed now; previous state j contributed C(size, i-j)
            j_lo = max(0, i - size)
            terms = []
            for j in range(j_lo, i + 1):
                if ways[j] == -math.inf:
                    continue
                terms.append(ways[j] + log_comb(size, i - j))
            if terms:
                mx = max(terms)
                new_ways[i] = mx + math.log(
                    sum(math.exp(t - mx) for t in terms))
        ways = new_ways
    if ways[n] == -math.inf:
        surviving = 0.0
    else:
        surviving = math.exp(ways[n] - log_comb(n + m, n))
    return min(1.0, max(0.0, 1.0 - surviving))


def integer_ks_pvalue(xs, ys, d: float) -> float:
    """P(D >= d) under the permutation null, counted exactly in ints.

    Walk the pooled sorted values in tie groups; a state is the number of
    x's consumed so far, and a group of size s moves state j to i in
    C(s, i - j) ways.  A state whose CDF gap is not below d - 1e-12 at the
    group's end is dropped.  The surviving count over C(n+m, n) is one
    int/int division, so the result is the correctly rounded p-value.
    """
    n, m = len(xs), len(ys)
    ways = {0: 1}
    consumed = 0
    for _, group in itertools.groupby(sorted([*map(float, xs),
                                              *map(float, ys)])):
        size = len(list(group))
        consumed += size
        new_ways = {}
        for i in range(max(0, consumed - m), min(n, consumed) + 1):
            if not abs(i / n - (consumed - i) / m) < d - 1e-12:
                continue
            count = sum(w * math.comb(size, i - j)
                        for j, w in ways.items() if 0 <= i - j <= size)
            if count:
                new_ways[i] = count
        ways = new_ways
    total = math.comb(n + m, n)
    return (total - ways.get(n, 0)) / total


def enumerate_ks_pvalue(xs, ys) -> float:
    """P(D >= observed D) over all C(n+m, n) label assignments of the
    pooled sample."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n, m = xs.size, ys.size
    pooled = np.concatenate([xs, ys])
    d_obs = brute_ks_statistic(xs, ys)
    total = 0
    attained = 0
    for x_idx in itertools.combinations(range(n + m), n):
        mask = np.zeros(n + m, dtype=bool)
        mask[list(x_idx)] = True
        d = brute_ks_statistic(pooled[mask], pooled[~mask])
        total += 1
        if d >= d_obs - 1e-12:
            attained += 1
    return attained / total


def enumerate_binom_sf(x: int, n: int, p: float) -> float:
    """P(X >= x) by exact-summation of C(n,k) p^k (1-p)^(n-k)."""
    return float(sum(
        math.comb(n, k) * (p ** k) * ((1.0 - p) ** (n - k))
        for k in range(x, n + 1)))


def exact_binom_sf(x: int, n: int, p) -> float:
    """P(X >= x) for X ~ Bin(n, p), every term summed in Fraction from p
    taken exactly; float() of the sum is the correctly rounded tail."""
    p = Fraction(p)
    return float(sum(math.comb(n, k) * p ** k * (1 - p) ** (n - k)
                     for k in range(x, n + 1)))


def terminating_3f2(a1: int, a2: int, a3: int, b1: int, b2: int) -> Fraction:
    """3F2(a1, a2, a3; b1, b2; 1) for integer parameters with a2 <= 0 and
    no lower parameter reaching zero inside the sum: the -a2 + 1 terms of
    the series, each from the one before, summed in Fraction."""
    total = term = Fraction(1)
    for k in range(1, -a2 + 1):
        term *= Fraction((a1 + k - 1) * (a2 + k - 1) * (a3 + k - 1),
                         (b1 + k - 1) * (b2 + k - 1) * k)
        total += term
    return total


def posterior_3f2_exact(n: int, N: int, m: int, M: int) -> float:
    """P(q > p) for p ~ Beta(n+1, N-n+1), q ~ Beta(m+1, M-m+1) from the
    paper's closed form, the factorial prefactor times a 3F2, in
    Fraction; float() of the result is correctly rounded."""
    f = math.factorial
    prefactor = Fraction(f(M + 1) * f(N + 1) * f(m + n + 1),
                         f(m + 1) * f(n) * f(M - m) * f(m + N + 2))
    return float(1 - prefactor * terminating_3f2(
        m + 1, m - M, m + n + 2, m + 2, m + N + 3))


def beta_mc_prob_q_gt_p(n: int, N: int, m: int, M: int, pairs: int,
                        rng: RngStream, chunk: int = 200_000) -> float:
    """Monte-Carlo P(q > p) with p ~ Beta(n+1, N-n+1), q ~ Beta(m+1, M-m+1).

    Beta draws come from order statistics of uniforms: the (k+1)-th
    smallest of (S+1) uniforms is Beta(k+1, S-k+1).
    """
    hits = 0
    done = 0
    while done < pairs:
        c = min(chunk, pairs - done)
        up = np.sort(rng.uniform((c, N + 1)), axis=1)
        uq = np.sort(rng.uniform((c, M + 1)), axis=1)
        p_draws = up[:, n]
        q_draws = uq[:, m]
        hits += int(np.sum(q_draws > p_draws))
        done += c
    return hits / pairs


def binomial_draws(n: int, p: float, count: int, rng: RngStream) -> np.ndarray:
    """count draws from Bin(n, p) by inverse-CDF lookup on the stream."""
    if p <= 0.0:
        return np.zeros(count, dtype=np.int64)
    if p >= 1.0:
        return np.full(count, n, dtype=np.int64)
    # pmf by the stable multiplicative recurrence
    pmf = np.empty(n + 1)
    log_p, log_q = math.log(p), math.log1p(-p)
    log_pmf0 = n * log_q
    pmf[0] = math.exp(log_pmf0)
    ratio = p / (1.0 - p)
    for k in range(1, n + 1):
        pmf[k] = pmf[k - 1] * ratio * (n - k + 1) / k
    cdf = np.cumsum(pmf)
    cdf[-1] = 1.0
    u = rng.uniform(count)
    return np.searchsorted(cdf, u, side="right").astype(np.int64)


def mc_disagreement_oracle(n: int, p: float, trials: int,
                           rng: RngStream) -> tuple[float, float]:
    """Simulated P(X > Y) for X, Y iid Bin(n, p).

    Returns (estimate, standard error) with std err = sqrt(v / trials)
    where v is the sample variance of the exceedance indicator.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    xs = binomial_draws(n, p, trials, rng)
    ys = binomial_draws(n, p, trials, rng)
    est = float(np.mean(xs > ys))
    std_err = math.sqrt(est * (1.0 - est) / trials)
    return est, std_err


def central_difference_grad(fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Gradient of scalar fn at x by central finite differences."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        g.flat[i] = (fn(xp) - fn(xm)) / (2.0 * h)
    return g


def add_node(tree: _Tree) -> int:
    """Append a leaf of value 0.0 to ``tree``; return its number."""
    tree.feature.append(-1)
    tree.threshold.append(0.0)
    tree.left.append(-1)
    tree.right.append(-1)
    tree.value.append(0.0)
    return len(tree.feature) - 1


def reference_build_tree(X, g, h, rows, features, cfg) -> _Tree:
    """Node-at-a-time exact greedy split search: every node argsorts each
    feature of its own rows (stable, so ties keep the node's row order),
    sums gradients per distinct value, prefix-sums them and keeps the
    first best (feature, cut); children are numbered depth first."""
    tree = _Tree()

    def grow(node: int, rows: np.ndarray, depth: int):
        g_sum = math.fsum(g[rows])
        h_sum = math.fsum(h[rows])
        if depth >= cfg.max_depth or rows.size < 2:
            tree.value[node] = _leaf_value(g_sum, h_sum, cfg.reg_lambda,
                                           cfg.eta)
            return
        parent_score = g_sum * g_sum / (h_sum + cfg.reg_lambda)
        best_gain = _MIN_GAIN
        best = None
        for f in features:
            order = rows[np.argsort(X[rows, f], kind="stable")]
            xs = X[order, f]
            cut = np.nonzero(xs[:-1] < xs[1:])[0]
            if cut.size == 0:
                continue
            starts = np.concatenate(([0], cut + 1))
            g_run = np.cumsum(np.add.reduceat(g[order], starts))
            h_run = np.cumsum(np.add.reduceat(h[order], starts))
            gl, hl = g_run[:-1], h_run[:-1]
            gr, hr = g_run[-1] - gl, h_run[-1] - hl
            ok = (hl >= cfg.min_child_weight) & (hr >= cfg.min_child_weight)
            if not ok.any():
                continue
            gains = np.where(
                ok,
                gl * gl / (hl + cfg.reg_lambda)
                + gr * gr / (hr + cfg.reg_lambda) - parent_score,
                -np.inf)
            k = int(np.argmax(gains))
            if gains[k] > best_gain:
                best_gain = float(gains[k])
                thr = 0.5 * (xs[cut[k]] + xs[cut[k] + 1])
                best = (f, thr, order[:cut[k] + 1], order[cut[k] + 1:])
        if best is None:
            tree.value[node] = _leaf_value(g_sum, h_sum, cfg.reg_lambda,
                                           cfg.eta)
            return
        f, thr, left_rows, right_rows = best
        tree.feature[node] = int(f)
        tree.threshold[node] = float(thr)
        tree.left[node] = add_node(tree)
        tree.right[node] = add_node(tree)
        grow(tree.left[node], left_rows, depth + 1)
        grow(tree.right[node], right_rows, depth + 1)

    grow(add_node(tree), rows, 0)
    return tree


def reference_tree_predict(tree, X) -> np.ndarray:
    """Each row's leaf value, walked node by node from a stack of (node,
    rows) pairs: a node sends its rows with X[row, feature] <= threshold
    left and the rest, NaN included, right."""
    out = np.zeros(X.shape[0])
    stack = [(0, np.arange(X.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if rows.size == 0:
            continue
        f = tree.feature[node]
        if f < 0:
            out[rows] = tree.value[node]
            continue
        go_left = X[rows, f] <= tree.threshold[node]
        stack.append((tree.left[node], rows[go_left]))
        stack.append((tree.right[node], rows[~go_left]))
    return out


def reference_margins(model, X) -> np.ndarray:
    """A GBT model's margins summed from scratch: the log prior, then each
    tree's prediction, round by round and class by class."""
    out = np.tile(model.base_log_prior, (X.shape[0], 1))
    for round_trees in model.rounds:
        for c, tree in enumerate(round_trees):
            out[:, c] += reference_tree_predict(tree, X)
    return out


# ---------------------------------------------------------------------------
# losses and the Adam step
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DisagreementTarget:
    """Class a disagreeing model must avoid, out of num_classes."""
    target_class: int
    num_classes: int

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes to disagree")
        if not 0 <= self.target_class < self.num_classes:
            raise ValueError(
                f"target_class {self.target_class} outside "
                f"[0, {self.num_classes})")


def log_sum_exp(logits) -> float:
    """log(sum(exp(l_i))) computed with max-subtraction so huge logits do
    not overflow.  Exact for a single entry."""
    arr = np.asarray(logits, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("empty input")
    if not np.all(np.isfinite(arr)):
        raise ValueError("logits must be finite")
    if arr.size == 1:
        return float(arr[0])
    m = float(arr.max())
    return m + math.log(float(np.exp(arr - m).sum()))


def softmax(logits) -> np.ndarray:
    """Probability vector exp(l_i - log_sum_exp(l)); invariant under adding
    a constant to every logit."""
    arr = np.asarray(logits, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("empty input")
    if not np.all(np.isfinite(arr)):
        raise ValueError("logits must be finite")
    shifted = arr - arr.max()
    e = np.exp(shifted)
    return e / e.sum()


def cross_entropy(logits, y: int) -> tuple[float, np.ndarray]:
    """Standard cross-entropy on logits; returns (loss, d loss / d logits).

    loss = log_sum_exp(l) - l_y, grad = softmax(l) - onehot(y).
    """
    arr = np.asarray(logits, dtype=np.float64).ravel()
    n = arr.size
    if not 0 <= y < n:
        raise ValueError(f"label {y} outside [0, {n})")
    loss = log_sum_exp(arr) - float(arr[y])
    grad = softmax(arr)
    grad[y] -= 1.0
    return max(loss, 0.0), grad


def disagreement_cross_entropy(
        logits, target: DisagreementTarget) -> tuple[float, np.ndarray]:
    """DCE on logits: cross-entropy against uniform over non-target classes.

    In logit form: loss = -(1/(N-1)) * sum_{i != t} l_i + log_sum_exp(l),
    grad_j = softmax(l)_j - (1/(N-1)) * [j != t].  For N = 2 this equals
    cross_entropy(l, 1 - t) exactly.
    """
    arr = np.asarray(logits, dtype=np.float64).ravel()
    n = arr.size
    if n != target.num_classes:
        raise ValueError("logit length does not match num_classes")
    if n < 2:
        raise ValueError("need at least 2 classes to disagree")
    t = target.target_class
    off_sum = float(arr.sum() - arr[t])
    loss = -off_sum / (n - 1) + log_sum_exp(arr)
    grad = softmax(arr)
    grad -= 1.0 / (n - 1)
    grad[t] += 1.0 / (n - 1)
    return loss, grad


def reference_cross_entropy_batch(logits, labels):
    """Per-row cross-entropy losses and gradients of a logit matrix."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    b = logits.shape[0]
    logp = log_softmax_rows(logits)
    losses = -logp[np.arange(b), labels]
    grads = softmax_rows(logits)
    grads[np.arange(b), labels] -= 1.0
    return losses, grads


def reference_disagreement_cross_entropy_batch(logits, targets):
    """Per-row DCE losses and gradients of a logit matrix."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    b, n = logits.shape
    if n < 2:
        raise ValueError("need at least 2 classes to disagree")
    logp = log_softmax_rows(logits)
    rows = np.arange(b)
    losses = -(logp.sum(axis=1) - logp[rows, targets]) / (n - 1)
    grads = softmax_rows(logits) - 1.0 / (n - 1)
    grads[rows, targets] += 1.0 / (n - 1)
    return losses, grads


def reference_cdc_batch_loss(logits, labels, weights, disagree, lam):
    """The combined agree/disagree batch objective, each side computed on
    its own masked rows; returns (loss, normalized d loss / d logits)."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    disagree = np.asarray(disagree, dtype=bool)
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if logits.shape[0] == 0:
        raise ValueError("empty batch")
    if np.any(weights <= 0):
        raise ValueError("weights must be positive")

    losses = np.empty(logits.shape[0])
    grads = np.empty_like(logits)
    agree = ~disagree
    if agree.any():
        l_a, g_a = reference_cross_entropy_batch(logits[agree], labels[agree])
        losses[agree] = l_a
        grads[agree] = g_a
    if disagree.any():
        l_d, g_d = reference_disagreement_cross_entropy_batch(
            logits[disagree], labels[disagree])
        losses[disagree] = lam * l_d
        grads[disagree] = lam * g_d

    total_w = weights.sum()
    loss = float((weights * losses).sum() / total_w)
    grads *= (weights / total_w)[:, None]
    return loss, grads


class ReferenceAdam:
    """Adam with moments per weight and bias array, each array updated in
    its own loop pass."""
    B1, B2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, weights, biases, lr):
        self.lr = lr
        self.t = 0
        self.m_w = [np.zeros_like(W) for W in weights]
        self.v_w = [np.zeros_like(W) for W in weights]
        self.m_b = [np.zeros_like(b) for b in biases]
        self.v_b = [np.zeros_like(b) for b in biases]

    def step(self, weights, biases, grads_w, grads_b):
        self.t += 1
        bc1 = 1.0 - self.B1 ** self.t
        bc2 = 1.0 - self.B2 ** self.t
        for i in range(len(weights)):
            for param, grad, m, v in (
                    (weights[i], grads_w[i], self.m_w[i], self.v_w[i]),
                    (biases[i], grads_b[i], self.m_b[i], self.v_b[i])):
                m *= self.B1
                m += (1.0 - self.B1) * grad
                v *= self.B2
                v += (1.0 - self.B2) * grad * grad
                param -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.EPS)
