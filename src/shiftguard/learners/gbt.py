"""Gradient-boosted decision trees with exact per-sample weighting.

One depth-limited regression tree per class per round on the multiclass
logistic objective (softmax linkage), second-order leaf values, row
subsampling and per-tree column subsampling.  Trees grow one depth at a
time, with the exact greedy split search run for every node of a depth
at once.  Margins start at the weighted log class priors, so an
untrained model predicts the training class frequencies.  Disagreement
training continues boosting from the base model's trees on a
replica-weighted dataset; each warm-started round carries its base's
margins on the training, target and validation rows and adds only its
own trees to them.
"""

from __future__ import annotations

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


class _Tree:
    """Flat-array binary tree: internal nodes carry (feature, threshold),
    leaves carry an additive margin value (shrinkage already applied)."""

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []

    def add_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.zeros(X.shape[0])
        stack = [(0, np.arange(X.shape[0]))]
        while stack:
            node, rows = stack.pop()
            if rows.size == 0:
                continue
            f = self.feature[node]
            if f < 0:
                out[rows] = self.value[node]
                continue
            go_left = X[rows, f] <= self.threshold[node]
            stack.append((self.left[node], rows[go_left]))
            stack.append((self.right[node], rows[~go_left]))
        return out


def _leaf_value(g_sum: float, h_sum: float, reg_lambda: float,
                eta: float) -> float:
    return -eta * g_sum / (h_sum + reg_lambda)


def _build_tree(X, g, h, rows, features, cfg) -> _Tree:
    """Exact greedy tree on ``rows``, grown one depth at a time.

    ``_best_splits`` searches every node of a depth at once; a node's
    rows keep the order its parent sorted them in.  Nodes are numbered
    depth first, each split allocating its two children together, as a
    node-at-a-time recursion numbers them.
    """
    grown = [None]       # per node: leaf value, or (f, thr, left, right)
    ids, level = [0], [rows]
    for depth in range(cfg.max_depth + 1):
        # fsum is exactly rounded, so weight-k rows and k duplicates yield
        # bit-identical node statistics regardless of summation order
        sums = [(math.fsum(g[r]), math.fsum(h[r])) for r in level]
        open_ = [i for i, r in enumerate(level)
                 if depth < cfg.max_depth and r.size >= 2]
        found = {}
        if open_:
            scores = [sums[i][0] * sums[i][0] / (sums[i][1] + cfg.reg_lambda)
                      for i in open_]
            found = dict(zip(open_, _best_splits(
                X, g, h, [level[i] for i in open_], scores, features, cfg)))
        next_ids, next_level = [], []
        for i, node in enumerate(ids):
            split = found.get(i)
            if split is None:
                grown[node] = _leaf_value(*sums[i], cfg.reg_lambda, cfg.eta)
                continue
            f, thr, left_rows, right_rows = split
            grown[node] = (f, thr, len(grown), len(grown) + 1)
            next_ids += [len(grown), len(grown) + 1]
            next_level += [left_rows, right_rows]
            grown += [None, None]
        ids, level = next_ids, next_level

    tree = _Tree()
    stack = [(0, tree.add_node())]
    while stack:
        node, out = stack.pop()
        if not isinstance(grown[node], tuple):
            tree.value[out] = grown[node]
            continue
        f, thr, left, right = grown[node]
        tree.feature[out], tree.threshold[out] = f, thr
        tree.left[out] = tree.add_node()
        tree.right[out] = tree.add_node()
        stack += [(right, tree.right[out]), (left, tree.left[out])]
    return tree


def _best_splits(X, g, h, node_rows, parent_score, features, cfg) -> list:
    """Best split of each node, or None where no cut gains more than
    _MIN_GAIN: (feature, threshold, left rows, right rows).

    One group per (feature, node) pair.  Each group's rows are sorted by
    value, ties kept in the node's row order; gradients and hessians are
    summed per distinct value, so a weight-k row and k duplicate rows give
    bit-identical statistics (cuts sit between distinct values anyway),
    then prefix-summed in sequence.  A node takes its first best cut, the
    earliest feature winning ties.
    """
    n_nodes, n_feat = len(node_rows), len(features)
    sizes = np.array([r.size for r in node_rows])
    flat = np.concatenate(node_rows)
    m = flat.size
    x = X[flat[:, None], features].T.ravel()
    group = (np.arange(n_feat)[:, None] * n_nodes
             + np.repeat(np.arange(n_nodes), sizes)).ravel()
    order = np.lexsort((np.arange(x.size), x, group))
    xs, grp, row = x[order], group[order], flat[order % m]
    new_run = np.ones(xs.size, dtype=bool)
    new_run[1:] = (grp[1:] != grp[:-1]) | (xs[:-1] < xs[1:])
    starts = np.flatnonzero(new_run)
    run_grp = grp[starts]
    n_runs = np.bincount(run_grp, minlength=n_feat * n_nodes)
    first = np.cumsum(n_runs) - n_runs
    width = int(n_runs.max())
    if width < 2:
        return [None] * n_nodes
    # one matrix row per group, zero-padded after its last run: the
    # prefix sums along a matrix row are the group's own sequential ones
    cell = (run_grp, np.arange(starts.size) - first[run_grp])
    g_run = np.zeros((n_runs.size, width))
    h_run = np.zeros((n_runs.size, width))
    g_run[cell] = np.add.reduceat(g[row], starts)
    h_run[cell] = np.add.reduceat(h[row], starts)
    g_run = np.cumsum(g_run, axis=1)
    h_run = np.cumsum(h_run, axis=1)
    last = n_runs - 1
    gl, hl = g_run[:, :-1], h_run[:, :-1]
    gr = g_run[np.arange(n_runs.size), last][:, None] - gl
    hr = h_run[np.arange(n_runs.size), last][:, None] - hl
    ok = ((np.arange(width - 1) < last[:, None])
          & (hl >= cfg.min_child_weight) & (hr >= cfg.min_child_weight))
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = np.where(
            ok,
            gl * gl / (hl + cfg.reg_lambda) + gr * gr / (hr + cfg.reg_lambda)
            - np.tile(parent_score, n_feat)[:, None],
            -np.inf)
    k = np.argmax(gains, axis=1)
    best = gains[np.arange(n_runs.size), k]
    # a feature whose first best gain is not above _MIN_GAIN, a NaN (0/0
    # at reg_lambda = 0) included, drops out; the others still compete
    best[~(best > _MIN_GAIN)] = -np.inf
    best = best.reshape(n_feat, n_nodes)
    f_idx = np.argmax(best, axis=0)

    offset = np.cumsum(sizes) - sizes
    splits = []
    for s, f in enumerate(f_idx):
        if not best[f, s] > _MIN_GAIN:
            splits.append(None)
            continue
        j = f * n_nodes + s
        lo = f * m + offset[s]          # group j spans [lo, lo + sizes[s])
        cut = starts[first[j] + k[j] + 1]
        splits.append((int(features[f]),
                       float(0.5 * (xs[cut - 1] + xs[cut])),
                       row[lo:cut], row[cut:lo + sizes[s]]))
    return splits


class GbtModel(Model):
    kind = "gbt"

    def __init__(self, base_log_prior, rounds, num_classes, feature_dim,
                 training_seed, val_score=None):
        self.base_log_prior = np.asarray(base_log_prior, dtype=np.float64)
        self.rounds = rounds  # list of rounds; each round: one _Tree per class
        self.num_classes = num_classes
        self.feature_dim = feature_dim
        self.training_seed = tuple(training_seed)
        self.val_score = val_score
        # (rows, margins) pairs summed while this model was trained; a
        # margins() call on equal rows gets a copy instead of re-running
        # every tree.  Filled once, when training ends.
        self._known = ()

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

    def clone_shallow(self) -> "GbtModel":
        # trees are immutable after fit; sharing them is safe
        return GbtModel(self.base_log_prior.copy(), list(self.rounds),
                        self.num_classes, self.feature_dim,
                        self.training_seed, self.val_score)

    def _carried(self, X: np.ndarray):
        for rows, known in self._known:
            if rows.shape == X.shape and np.array_equal(rows, X):
                return rows, known
        return None

    def _remember(self, X, margins, base: GbtModel | None = None) -> None:
        """Carry ``margins``, this model's margins on X.  The rows are kept
        as a private copy, so a caller that later edits X in place is not
        served stale margins; a warm-start base's copy is shared."""
        shared = base._carried(X) if base is not None else None
        rows = X.copy() if shared is None else shared[0]
        self._known += ((rows, margins),)


def _add_rounds(margins, X, rounds) -> None:
    """Add each tree's predictions on X to ``margins``, round by round and
    class by class: the one order every margin sum uses, so a carried sum
    extended by later rounds has the bytes of a sum from scratch."""
    for round_trees in rounds:
        for c, tree in enumerate(round_trees):
            margins[:, c] += tree.predict(X)


def _boost_rounds(model: GbtModel, X, y, w, margins, cfg, rng: RngStream,
                  n_rounds: int) -> None:
    """Append n_rounds of trees to ``model`` fit on (X, y, w), starting
    from and updating ``margins``, the model's margins on X."""
    n, d = X.shape
    n_classes = model.num_classes
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0
    n_sub = max(1, int(round(cfg.subsample * n)))
    n_col = max(1, int(round(cfg.colsample * d)))
    for _ in range(n_rounds):
        p = softmax_rows(margins)
        grad = w[:, None] * (p - onehot)
        # doubled, floored hessian (the xgboost softmax convention):
        # confident models otherwise starve nodes below min_child_weight
        # and force huge unsplittable Newton leaves
        hess = w[:, None] * np.maximum(2.0 * p * (1.0 - p), 1e-16)
        rows = (rng.sample_without_replacement(n, n_sub)
                if n_sub < n else np.arange(n))
        round_trees = []
        for c in range(n_classes):
            feats = (np.sort(rng.sample_without_replacement(d, n_col))
                     if n_col < d else np.arange(d))
            tree = _build_tree(X, grad[:, c], hess[:, c], rows, feats, cfg)
            round_trees.append(tree)
            margins[:, c] += tree.predict(X)
        model.rounds.append(round_trees)


def _log_prior(y, w, n_classes):
    totals = np.zeros(n_classes)
    np.add.at(totals, y, w)
    freq = np.clip(totals / totals.sum(), 1e-12, None)
    return np.log(freq)


def fit_gbt(config: LearnerConfig, X, y, w, X_val, y_val, n_classes,
            rng: RngStream) -> GbtModel:
    cfg = config.gbt
    model = GbtModel(_log_prior(y, w, n_classes), [], n_classes, X.shape[1],
                     (rng.base_seed, rng.stream_id))
    margins = model.margins(X)
    _boost_rounds(model, X, y, w, margins, cfg, rng, cfg.num_rounds)
    model._remember(X, margins)
    model._remember(X_val, model.margins(X_val))
    model.val_score = evaluate_metric(model, X_val, y_val, config.val_metric)
    return model


def fit_disagreeing_gbt(config: LearnerConfig, base: GbtModel, X_p, y_p,
                        X_val, X_q, pseudo, lam, rng: RngStream, epochs=1,
                        max_steps=None) -> GbtModel:
    cfg = config.gbt
    model = base.clone_shallow()
    rounds = epochs if max_steps is None else min(epochs, max_steps)
    if rounds <= 0:
        return model
    # rows are independent, so the margins of stacked rows are the
    # stacked margins: start from the base's margins on P and on Q (one
    # copy per replica), which a warm-started base carries from its own
    # training, and add only the new trees to them
    n_p, n_q = X_p.shape[0], X_q.shape[0]
    margins = base.margins(X_p)
    if n_q == 0:
        X_all, y_all, w_all = X_p, y_p, np.ones(n_p)
    else:
        # boosting sees all of P every round while the gradient path's
        # lambda is per-batch; rescale by |P_train| so one round's Q
        # exposure matches one epoch of batch-filled updates
        X_rep, y_rep, w_rep = replicate_for_disagreement(
            X_q, pseudo, model.num_classes,
            lam * n_p * cfg.disagree_scale)
        X_all = np.vstack([X_p, X_rep])
        y_all = np.concatenate([y_p, y_rep])
        w_all = np.concatenate([np.ones(n_p), w_rep])
        margins = np.vstack([margins, np.repeat(
            base.margins(X_q), model.num_classes - 1, axis=0)])
    _boost_rounds(model, X_all, y_all, w_all, margins, cfg, rng, rounds)
    val = base.margins(X_val)
    _add_rounds(val, X_val, model.rounds[len(base.rounds):])
    model._remember(X_p, margins[:n_p], base)
    if n_q:
        model._remember(X_q, margins[n_p::model.num_classes - 1], base)
    model._remember(X_val, val, base)
    return model


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
    return tree


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
    return GbtModel(
        prior,
        rounds,
        header["num_classes"],
        header["feature_dim"],
        tuple(header["training_seed"]),
        header["val_score"],
    )
