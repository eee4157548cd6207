"""Gradient-boosted decision trees with exact per-sample weighting.

Depth-limited regression trees on the multiclass logistic objective
(softmax linkage), second-order leaf values, row subsampling and
per-tree column subsampling.  A round of C >= 3 classes grows one tree
per class; the class trees share the round's rows and softmax gradients
and draw no randomness while they grow, so they grow together: one depth
at a time, with one exact greedy split search for every node of every
class at that depth.  A binary round grows class 1's tree only: class
0's gradient is the negated class-1 gradient and its hessian the same,
so its tree is stored as class 1's mirror, the same splits with every
leaf value negated, and the round is walked once; its gradients and
hessians are computed for class 1 alone.  The search sorts each node's
rows by integer ranks of the feature values, ranked once per boosting
call, so equal values (-0.0 and 0.0 among them) fall in one run;
features must therefore be finite.  The sort keys take the narrowest
unsigned type that holds them, and a run of one row is its own run sum.
A tree is built with the arrays its walk descends.  Prediction walks
every row, and every tree of a batch, down one level per step.  Margins
start at the log class priors, so an untrained model predicts the
training class frequencies.  Disagreement training adds one boosting
round to the base model's trees on a replica-weighted dataset; each
warm-started round carries its base's margins on the training, target
and validation rows and adds only its own trees to them, walking the
round once over all of those rows.  The rounds of several runs grow
together: their fit rows are stacked, each run keeping its own ranks,
draws, margins and walks, and one split search per depth serves every
run's trees, so each tree has the bytes it would have grown alone.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..losses import replicate_for_disagreement
from ..numerics import RngStream, softmax_rows
from . import (
    LearnerConfig,
    Model,
    _decode_array,
    _encode_array,
    evaluate_metric,
)

_MIN_GAIN = 1e-12
_WALK_CELLS = 1 << 16


class _Tree:
    """Flat-array binary tree: internal nodes carry (feature, threshold),
    leaves carry an additive margin value (shrinkage already applied).
    Immutable once built, and built with ``walk``, the arrays
    ``_walk_trees`` descends (see ``_set_walk``).  A binary round's
    class-0 tree names class 1's as ``mirror_of``."""

    __slots__ = ("feature", "threshold", "left", "right", "value", "walk",
                 "mirror_of")

    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []
        self.walk = None
        self.mirror_of = None


def _set_walk(tree: _Tree, height: int) -> _Tree:
    """Give ``tree`` its walk arrays (feature, threshold, child, value,
    height) and return it.  A row at node i moves to child[2 * i + 1]
    (left) where it goes left, else to child[2 * i] (right); a leaf splits
    on feature 0 into itself.  ``height`` is the longest root-to-leaf
    path."""
    child = []
    for i, (f, left, right) in enumerate(zip(tree.feature, tree.left,
                                             tree.right)):
        child += (i, i) if f < 0 else (right, left)
    tree.walk = (np.maximum(tree.feature, 0), np.array(tree.threshold),
                 np.array(child), np.array(tree.value), height)
    return tree


def _mirror(tree: _Tree) -> _Tree:
    """Class 0's tree of a binary round whose class-1 tree is ``tree``:
    the same splits, every leaf value negated.  Margins walk ``tree`` and
    subtract; the mirror's own walk shares its arrays but the values."""
    mirror = _Tree()
    mirror.feature, mirror.threshold = tree.feature, tree.threshold
    mirror.left, mirror.right = tree.left, tree.right
    mirror.value = [-v for v in tree.value]
    feature, threshold, child, value, height = tree.walk
    mirror.walk = (feature, threshold, child, -value, height)
    mirror.mirror_of = tree
    return mirror


def _is_mirror(tree: _Tree, of: _Tree) -> bool:
    """Whether walking ``of`` and subtracting gives the bits of walking
    ``tree`` and adding: equal splits and bitwise-negated leaf values.  A
    NaN leaf is never mirrored, since x - NaN and x + (-NaN) differ in
    the sign bit."""
    value = np.asarray(of.value)
    return (tree.feature == of.feature and tree.left == of.left
            and tree.right == of.right
            and (np.asarray(tree.threshold).tobytes()
                 == np.asarray(of.threshold).tobytes())
            and not np.isnan(value).any()
            and np.asarray(tree.value).tobytes() == (-value).tobytes())


def _walk_trees(trees: list, X: np.ndarray) -> np.ndarray:
    """(len(trees), n) leaf values of every tree on every row of X.

    All trees and rows descend together, one level per step; a row goes
    left where ``X[row, feature] <= threshold``, so NaN goes right.  A
    leaf is its own child, so walks that reach one early stay there while
    deeper ones finish.
    """
    feature, threshold, child, value, heights = zip(
        *(tree.walk for tree in trees))
    sizes = [f.size for f in feature]
    start = np.cumsum([0] + sizes[:-1])
    feature, threshold, value = (np.concatenate(a)
                                 for a in (feature, threshold, value))
    child = np.concatenate(child) + np.repeat(start, 2 * np.array(sizes))
    n, d = X.shape
    X = np.ascontiguousarray(X).ravel()
    row_start = np.arange(0, n * d, d)
    node = np.repeat(start, n).reshape(len(trees), n)
    for _ in range(max(heights)):
        go_left = X[row_start + feature[node]] <= threshold[node]
        node = child[2 * node + go_left]
    return value[node]


def _leaf_value(g_sum: float, h_sum: float, reg_lambda: float,
                eta: float) -> float:
    return -eta * g_sum / (h_sum + reg_lambda)


def _column_ranks(X: np.ndarray) -> np.ndarray:
    """(d, n) dense ranks of each column of X: equal values, -0.0 and 0.0
    included, share a rank, and a larger value has a larger rank."""
    return np.stack([np.unique(col, return_inverse=True)[1] for col in X.T])


def _build_trees(X, ranks, n_rank, grad, hess, row_at, flat, sizes, feats,
                 cfg) -> list:
    """One exact greedy tree per entry of ``sizes``: tree t grows on the
    next ``sizes[t]`` rows of ``flat``, rows of X, reads their gradients
    and hessians at ``row_at[t]`` + row of ``grad``/``hess`` and searches
    the features ``feats[t]``.  ``ranks`` are (d, len(X)) integer ranks
    below ``n_rank`` that order the values of each tree's rows as X does.
    The trees are a round's classes (class 1 alone in a binary round), of
    one run or of several runs whose rows X stacks.

    Trees grow one depth at a time: ``_best_splits`` searches every node
    of every tree at a depth at once, and a node's rows keep the order
    its parent sorted them in.  Nodes are numbered depth first, each split
    allocating its two children together, as a node-at-a-time recursion
    numbers them.
    """
    n_trees = len(sizes)
    grown = [[None] for _ in range(n_trees)]  # leaf value or (f, thr, l, r)
    height = [0] * n_trees
    ids = [0] * n_trees                       # each level node's id,
    tree_of = np.arange(n_trees)              # tree,
    sizes = np.asarray(sizes)                 # and row count
    row_at = np.asarray(row_at)
    for depth in range(cfg.max_depth + 1):
        at = row_at[tree_of].repeat(sizes) + flat
        g, h = grad[at], hess[at]
        # fsum is exactly rounded, so weight-k rows and k duplicates yield
        # bit-identical node statistics regardless of summation order
        g_rows, h_rows = memoryview(g), memoryview(h)
        ends = sizes.cumsum().tolist()
        sums = [(math.fsum(g_rows[a:b]), math.fsum(h_rows[a:b]))
                for a, b in zip([0] + ends, ends)]
        node_tree, splits = tree_of.tolist(), {}
        if depth < cfg.max_depth:
            scores = np.array([gs * gs / (hs + cfg.reg_lambda)
                               for gs, hs in sums])
            with np.errstate(divide="ignore", invalid="ignore"):
                split, feature, thr, flat, sizes = _best_splits(
                    X, ranks, n_rank, flat, sizes, feats[tree_of], g, h,
                    scores, cfg)
            splits = dict(zip(split.tolist(),
                              zip(feature.tolist(), thr.tolist())))
            tree_of = tree_of[split].repeat(2)
        next_ids = []
        for i, (t, node) in enumerate(zip(node_tree, ids)):
            tree = grown[t]
            if i not in splits:
                tree[node] = _leaf_value(*sums[i], cfg.reg_lambda, cfg.eta)
                continue
            tree[node] = (*splits[i], len(tree), len(tree) + 1)
            next_ids += [len(tree), len(tree) + 1]
            tree += [None, None]
            height[t] = depth + 1
        ids = next_ids
        if not ids:
            break
    return [_assemble(nodes, h) for nodes, h in zip(grown, height)]


def _assemble(grown: list, height: int) -> _Tree:
    """The _Tree of breadth-first ``grown`` nodes, ``height`` levels deep,
    renumbered depth first: each split, when visited, numbers its two
    children next."""
    n = len(grown)
    tree = _Tree()
    tree.feature, tree.threshold = [-1] * n, [0.0] * n
    tree.left, tree.right, tree.value = [-1] * n, [-1] * n, [0.0] * n
    number = [0] * n
    stack, taken = [0], 1
    while stack:
        node = stack.pop()
        at, spec = number[node], grown[node]
        if not isinstance(spec, tuple):
            tree.value[at] = spec
            continue
        f, thr, left, right = spec
        tree.feature[at], tree.threshold[at] = f, thr
        tree.left[at] = number[left] = taken
        tree.right[at] = number[right] = taken + 1
        taken += 2
        stack += (right, left)
    return _set_walk(tree, height)


def _best_splits(X, ranks, n_rank, flat, sizes, node_feats, g, h,
                 parent_score, cfg) -> tuple:
    """The nodes with a cut that gains more than _MIN_GAIN, each at its
    best cut: (split, feature, threshold, next_flat, next_sizes).  The
    split nodes come in order; next_flat holds each one's rows sorted by
    its split feature, left child first, and next_sizes the children's
    row counts.

    Node s holds the next ``sizes[s]`` rows of ``flat``, whose gradients
    and hessians are ``g`` and ``h``, and searches the features
    ``node_feats[s]``.  One group per (feature slot, node) pair.  Each
    group's rows are sorted by value, ties kept in the node's row order:
    one stable sort by (group, rank).  Where the keys group * n_rank +
    rank fit 16 bits, one sort of the keys, cast to the narrowest
    unsigned type, takes numpy's radix sort; wider, two stable passes,
    by rank and then by group, each cast to its own narrowest type, take
    it (a stable order is unique: neither the casts nor the passes change
    it).  Gradients and hessians are summed per distinct value, so a
    weight-k row and k duplicate rows give bit-identical statistics (cuts
    sit between distinct values anyway); where every run holds one row,
    the rows are the run sums.  The run sums are prefix-summed in
    sequence, each group along its own zero-padded matrix row, and every
    cut's gain is then computed run by run.  A node takes its first best
    cut, the earliest feature winning ties.  Called inside
    ``np.errstate``: a gain may be 0/0.
    """
    n_nodes, n_feat = node_feats.shape
    n, m = ranks.shape[1], flat.size
    groups = n_feat * n_nodes
    group = np.repeat(np.arange(groups).reshape(n_feat, n_nodes), sizes,
                      axis=1).ravel()
    rank = ranks.ravel()[np.repeat(node_feats.T * n, sizes, axis=1)
                         + flat].ravel()
    key = group * n_rank + rank
    if groups * n_rank <= 1 << 16:
        order = key.astype(np.min_scalar_type(groups * n_rank - 1)).argsort(
            kind="stable")
    else:
        order = rank.astype(np.min_scalar_type(n_rank - 1)).argsort(
            kind="stable")
        order = order[group[order].astype(np.min_scalar_type(groups - 1))
                      .argsort(kind="stable")]
    key = key[order]
    # feature slot i's keys sort into [i * m, (i + 1) * m)
    slot_lo = np.arange(0, n_feat * m, m)[:, None]
    pos = (order.reshape(n_feat, m) - slot_lo).ravel()
    new_run = np.empty(key.size, dtype=bool)
    new_run[0] = True
    np.not_equal(key[1:], key[:-1], out=new_run[1:])
    starts = new_run.nonzero()[0]
    g_run, h_run = g[pos], h[pos]
    if starts.size < key.size:
        g_run = np.add.reduceat(g_run, starts)
        h_run = np.add.reduceat(h_run, starts)
    node_end = sizes.cumsum()
    run_end = starts.searchsorted((slot_lo + node_end).ravel())
    first = np.concatenate(([0], run_end[:-1]))   # each group's first run
    n_runs = run_end - first
    # one matrix row per group, zero-padded after its last run: the
    # prefix sums along a row are the group's own sequential ones, and
    # its last column is its total (zeros add nothing; a -0.0 total, of
    # -0.0 runs only, turns to 0.0 and leaves every difference the same)
    width = int(np.maximum.reduce(n_runs))
    cell = (np.arange(starts.size)
            + (np.arange(0, groups * width, width) - first).repeat(n_runs))
    prefix = np.zeros((2, groups * width))
    prefix[0][cell] = g_run
    prefix[1][cell] = h_run
    grid = prefix.reshape(2, groups, width)
    np.add.accumulate(grid, axis=2, out=grid)
    # the cut after each run: (g/h, left/right, run); a group's last run
    # is no cut, so one-run groups find none
    side = np.empty((2, 2, starts.size))
    prefix.take(cell, axis=1, out=side[:, 0])
    np.subtract(grid[:, :, -1].repeat(n_runs, axis=1), side[:, 0],
                out=side[:, 1])
    g_side, h_side = side
    cut_ok = np.minimum(*h_side) >= cfg.min_child_weight
    cut_ok[run_end - 1] = False
    gains = g_side * g_side
    gains /= h_side + cfg.reg_lambda
    gains = gains[0] + gains[1]
    gains -= np.concatenate([parent_score] * n_feat).repeat(n_runs)
    gains = np.where(cut_ok, gains, -np.inf)
    # a feature whose first best gain is not above _MIN_GAIN, a NaN (0/0
    # at reg_lambda = 0) included, drops out; the others still compete
    best = np.maximum.reduceat(gains, first).reshape(n_feat, n_nodes)
    best = np.where(best > _MIN_GAIN, best, -np.inf)
    f = best.argmax(axis=0)
    split = (np.maximum.reduce(best) > _MIN_GAIN).nonzero()[0]
    f = f[split]
    feature = node_feats[split, f]
    # a split group's first run at its best gain ends its left side
    at_best = (gains == best.ravel().repeat(n_runs)).nonzero()[0]
    k = at_best[at_best.searchsorted(first[f * n_nodes + split])]
    cut = starts[k + 1]
    # the split group spans [lo, lo + n_rows) of the sorted order
    n_rows = sizes[split]
    lo = f * m + (node_end - sizes)[split]
    x = X[flat[pos[np.array([cut - 1, cut])]], feature]
    # an empty piece first, so a depth without splits still concatenates
    next_flat = flat[np.concatenate(
        [pos[:0]] + [pos[a:b] for a, b in zip(lo.tolist(),
                                               (lo + n_rows).tolist())])]
    n_left = cut - lo
    return (split, feature, 0.5 * (x[0] + x[1]), next_flat,
            np.array([n_left, n_rows - n_left]).T.ravel())


class GbtModel(Model):
    kind = "gbt"

    def __init__(self, base_log_prior, rounds, num_classes, feature_dim,
                 training_seed, val_score=None):
        self.base_log_prior = np.asarray(base_log_prior, dtype=np.float64)
        # list of rounds; each round: one _Tree per class, a binary
        # round's class-0 tree the mirror of its class-1 tree
        self.rounds = rounds
        self.num_classes = num_classes
        self.feature_dim = feature_dim
        self.training_seed = tuple(training_seed)
        self.val_score = val_score
        # (rows, margins) pairs summed while this model was trained; a
        # margins() call on equal rows gets a copy instead of re-running
        # every tree.  Set once, when training ends: ``_warm`` holds the
        # pairs on the training and validation rows, which only a
        # warm-started next round and its validation check read, and
        # ``_known`` the others
        self._known = self._warm = ()
        # (rows, their column ranks) of the disagreement round that made
        # this model: the CDC's next round boosts on equal stacked rows
        # and takes the ranks instead of ranking every column again
        self._ranks = None

    def margins(self, X: np.ndarray) -> np.ndarray:
        X = self._check_matrix(X)
        known = self._carried(X)
        if known is not None:
            return known[1].copy()
        out = np.tile(self.base_log_prior, (X.shape[0], 1))
        _add_rounds(out, X, self.rounds)
        return out

    def predict_proba_matrix(self, X: np.ndarray) -> np.ndarray:
        return softmax_rows(self.margins(X))

    def drop_warm_start(self) -> None:
        # carried margins have the bytes of a walk, so nothing changes but
        # the time a later margins() call on those rows takes
        self._warm, self._ranks = (), None

    def clone_shallow(self) -> "GbtModel":
        # trees are immutable after fit; sharing them is safe
        return GbtModel(self.base_log_prior.copy(), list(self.rounds),
                        self.num_classes, self.feature_dim,
                        self.training_seed, self.val_score)

    def _carried(self, X: np.ndarray):
        for rows, known in self._known + self._warm:
            if rows.shape == X.shape and np.array_equal(rows, X):
                return rows, known
        return None

    def _carry(self, X, margins, base: GbtModel | None = None) -> tuple:
        """The (rows, margins) pair that carries ``margins``, this model's
        margins on X.  The rows are kept as a private copy, so a caller
        that later edits X in place is not served stale margins; a
        warm-start base's copy is shared."""
        shared = base._carried(X) if base is not None else None
        return (X.copy() if shared is None else shared[0]), margins


def _add_rounds(margins, X, rounds) -> None:
    """Add each tree's predictions on X to ``margins``, round by round and
    class by class: the one order every margin sum uses, so a carried sum
    extended by later rounds has the bytes of a sum from scratch.  A
    mirrored binary round is walked once: its class-1 values are added to
    column 1 and subtracted from column 0, the bits of adding class 0's
    negated values."""
    mirrored = [rnd[0].mirror_of is rnd[1] for rnd in rounds]
    trees = [tree for rnd, mirror in zip(rounds, mirrored)
             for tree in (rnd[1:] if mirror else rnd)]
    # walk at most about _WALK_CELLS (tree, row) pairs at once
    step = max(1, _WALK_CELLS // max(1, X.shape[0]))
    values = itertools.chain.from_iterable(
        _walk_trees(trees[i:i + step], X) for i in range(0, len(trees), step))
    for round_trees, mirror in zip(rounds, mirrored):
        if mirror:
            v = next(values)
            margins[:, 1] += v
            margins[:, 0] -= v
            continue
        for c in range(len(round_trees)):
            margins[:, c] += next(values)


class _Run:
    """One model's boosting state: its rows X, the first len(y) of which
    it is fit on, with labels y, weights w and ``_column_ranks`` ranks;
    its margins on every row of X, which each round updates; and its
    stream.  Rows after the fit rows (validation rows) only ride along:
    each round walks the run's new trees over all of X in one batch, and
    as every row is walked on its own, each row's margins get the bytes
    of a walk of its own."""

    __slots__ = ("model", "X", "ranks", "n", "w", "onehot", "margins",
                 "rng")

    def __init__(self, model: GbtModel, X, ranks, y, w, margins,
                 rng: RngStream):
        self.model, self.X, self.ranks, self.n = model, X, ranks, y.size
        self.w = w[:, None]
        self.onehot = np.eye(model.num_classes)[y, _grown(model.num_classes)]
        self.margins, self.rng = margins, rng


def _grown(n_classes: int) -> slice:
    """The classes whose trees a round grows: class 1 alone when binary."""
    return slice(1, None) if n_classes == 2 else slice(None)


def _boost_round(runs: list, cfg) -> None:
    """Append one round of trees to each run's model, all runs' trees
    grown in one ``_build_trees`` call; the runs' models share a class
    count and a feature width.

    Run by run, in turn: the gradients of its margins on its fit rows,
    then the round's draws from its own stream, in the order every stored
    model depends on: the round's rows, then each class's columns (a
    binary round draws class 0's columns too and grows class 1's tree
    alone, on its own columns).  The runs' fit rows are stacked, each
    keeping its own ranks, and their gradients laid out as (classes,
    stacked rows)."""
    n_classes, d = runs[0].model.num_classes, runs[0].X.shape[1]
    grown = _grown(n_classes)
    n_trees = len(range(n_classes)[grown])      # per run
    n_col = max(1, int(round(cfg.colsample * d)))
    grads, hesses, flat, sizes, feats = [], [], [], [], []
    start = 0
    for run in runs:
        n = run.n
        p = softmax_rows(run.margins[:n])[:, grown]
        grads.append(run.w * (p - run.onehot))
        # doubled, floored hessian (the xgboost softmax convention):
        # confident models otherwise starve nodes below min_child_weight
        # and force huge unsplittable Newton leaves
        hesses.append(run.w * np.maximum(2.0 * p * (1.0 - p), 1e-16))
        n_sub = max(1, int(round(cfg.subsample * n)))
        rows = (run.rng.sample_without_replacement(n, n_sub)
                if n_sub < n else np.arange(n))
        cols = np.array([np.sort(run.rng.sample_without_replacement(d, n_col))
                         if n_col < d else np.arange(d)
                         for _ in range(n_classes)])[grown]
        flat += [rows + start] * n_trees
        sizes += [n_sub] * n_trees
        feats.append(cols)
        start += n
    trees = _build_trees(
        np.concatenate([run.X[:run.n] for run in runs]),
        np.concatenate([run.ranks for run in runs], axis=1),
        max(run.n for run in runs),
        np.concatenate(grads).T.ravel(), np.concatenate(hesses).T.ravel(),
        np.tile(np.arange(0, n_trees * start, start), len(runs)),
        np.concatenate(flat), sizes, np.concatenate(feats), cfg)
    for i, run in enumerate(runs):
        rnd = trees[i * n_trees:(i + 1) * n_trees]
        if n_classes == 2:
            rnd.insert(0, _mirror(rnd[0]))
        run.model.rounds.append(rnd)
        _add_rounds(run.margins, run.X, [rnd])


def _log_prior(y, n_classes):
    freq = np.bincount(y, minlength=n_classes) / y.size
    return np.log(np.clip(freq, 1e-12, None))


def fit_gbt(config: LearnerConfig, X, y, X_val, y_val, n_classes,
            rng: RngStream) -> GbtModel:
    cfg = config.gbt
    model = GbtModel(_log_prior(y, n_classes), [], n_classes, X.shape[1],
                     (rng.base_seed, rng.stream_id))
    n = X.shape[0]
    X_all = np.vstack([X, X_val])
    run = _Run(model, X_all, _column_ranks(X), y, np.ones(n),
               model.margins(X_all), rng)
    for _ in range(cfg.num_rounds):
        _boost_round([run], cfg)
    model._warm = (model._carry(X, run.margins[:n]),
                   model._carry(X_val, run.margins[n:]))
    model.val_score = evaluate_metric(model, X_val, y_val, config.val_metric)
    return model


def fit_disagreeing_gbt(config: LearnerConfig, bases, X_p, y_p, X_val, X_qs,
                        pseudos, lams, rngs) -> list:
    """One boosting round of each run r: bases[r]'s trees continued on
    P, Q replicas X_qs[r] (pseudo-labels pseudos[r], weight lams[r]) and
    rngs[r]; every run's trees grow in one ``_boost_round``."""
    cfg = config.gbt
    runs = []
    n_p = X_p.shape[0]
    for base, X_q, pseudo, lam, rng in zip(bases, X_qs, pseudos, lams, rngs):
        model = base.clone_shallow()
        n_rep = model.num_classes - 1
        # boosting sees all of P every round while the gradient path's
        # lambda is per-batch; rescale by |P_train| so one round's Q
        # exposure matches one epoch of batch-filled updates
        X_rep, y_rep, w_rep = replicate_for_disagreement(
            X_q, pseudo, model.num_classes, lam * n_p * cfg.disagree_scale)
        n = n_p + y_rep.size
        # rows are independent, so the margins of stacked rows are the
        # stacked margins: start from the base's margins on P, on Q (one
        # copy per replica) and on P_val, which a warm-started base
        # carries from its own training, and add only the new trees
        margins = np.vstack([base.margins(X_p),
                             np.repeat(base.margins(X_q), n_rep, axis=0),
                             base.margins(X_val)])
        X_all = np.vstack([X_p, X_rep, X_val])
        X_fit = X_all[:n]
        model._ranks = base._ranks
        if model._ranks is None or not np.array_equal(model._ranks[0], X_fit):
            model._ranks = (X_fit, _column_ranks(X_fit))
        runs.append(_Run(model, X_all, model._ranks[1],
                         np.concatenate([y_p, y_rep]),
                         np.concatenate([np.ones(n_p), w_rep]), margins, rng))
    _boost_round(runs, cfg)
    for run, base, X_q in zip(runs, bases, X_qs):
        model, margins, n = run.model, run.margins, run.n
        n_rep = model.num_classes - 1
        # Q's margins copied out, so dropping the warm-start pairs frees
        # the stacked margins
        model._known = (model._carry(X_q, margins[n_p:n:n_rep].copy(),
                                     base),)
        model._warm = (model._carry(X_p, margins[:n_p], base),
                       model._carry(X_val, margins[n:], base))
    return [run.model for run in runs]


# ---------------------------------------------------------------------------
# serialization body
# ---------------------------------------------------------------------------

def _tree_to_doc(tree: _Tree) -> dict:
    return {
        "feature": _encode_array(np.asarray(tree.feature, dtype=np.int32)),
        "threshold": _encode_array(np.asarray(tree.threshold)),
        "left": _encode_array(np.asarray(tree.left, dtype=np.int32)),
        "right": _encode_array(np.asarray(tree.right, dtype=np.int32)),
        "value": _encode_array(np.asarray(tree.value)),
    }


_TREE_FIELDS = ("feature", "threshold", "left", "right", "value")


def _tree_from_doc(doc, feature_dim: int) -> _Tree:
    """A stored tree, refused unless ``predict`` can walk it: every inner
    node splits on a feature below ``feature_dim`` and points at two
    later nodes, so each walk ends at a leaf."""
    if not isinstance(doc, dict):
        raise ValueError("gbt tree is not an object")
    for name in _TREE_FIELDS:
        if name not in doc:
            raise ValueError(f"gbt tree has no {name!r}")
    feature, threshold, left, right, value = (
        _decode_array(doc[name]) for name in _TREE_FIELDS)
    n = feature.size
    if n == 0 or any(a.shape != (n,)
                     for a in (feature, threshold, left, right, value)):
        raise ValueError("gbt tree arrays are not of one nonempty length")
    if any(a.dtype.kind != "i" for a in (feature, left, right)):
        raise ValueError("gbt tree 'feature', 'left' and 'right' are not "
                         "int arrays")
    inner = np.flatnonzero(feature >= 0)
    if (feature.min() < -1 or feature.max() >= feature_dim
            or np.any(left[inner] <= inner) or np.any(right[inner] <= inner)
            or np.any(left[inner] >= n) or np.any(right[inner] >= n)):
        raise ValueError("gbt tree nodes do not form a tree over "
                         f"{feature_dim} features")
    tree = _Tree()
    tree.feature = feature.tolist()
    tree.threshold = threshold.tolist()
    tree.left = left.tolist()
    tree.right = right.tolist()
    tree.value = value.tolist()
    # children follow their parents, so depths fill in front to back
    depth = [0] * n
    for i in inner.tolist():
        depth[tree.left[i]] = depth[tree.right[i]] = depth[i] + 1
    return _set_walk(tree, max(depth))


def gbt_body(model: GbtModel) -> dict:
    return {
        "base_log_prior": _encode_array(model.base_log_prior),
        "rounds": [[_tree_to_doc(t) for t in rnd] for rnd in model.rounds],
    }


def gbt_from_doc(doc: dict) -> GbtModel:
    header, body = doc["header"], doc["body"]
    prior = _decode_array(body["base_log_prior"])
    if prior.shape != (header["num_classes"],):
        raise ValueError("gbt 'base_log_prior' does not match num_classes")
    rounds = body["rounds"]
    if not (isinstance(rounds, list)
            and all(isinstance(rnd, list) and len(rnd) == prior.size
                    for rnd in rounds)):
        raise ValueError("gbt 'rounds' is not a list of one tree per class "
                         "per round")
    rounds = [[_tree_from_doc(t, header["feature_dim"]) for t in rnd]
              for rnd in rounds]
    # link mirrored binary rounds, so a loaded model walks them once too
    for rnd in rounds:
        if len(rnd) == 2 and _is_mirror(*rnd):
            rnd[0].mirror_of = rnd[1]
    return GbtModel(
        prior,
        rounds,
        header["num_classes"],
        header["feature_dim"],
        tuple(header["training_seed"]),
        header["val_score"],
    )
