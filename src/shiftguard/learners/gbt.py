"""Gradient-boosted decision trees with exact per-sample weighting.

One depth-limited regression tree per class per round on the multiclass
logistic objective (softmax linkage), second-order leaf values, row
subsampling and per-tree column subsampling.  Margins start at the
weighted log class priors, so an untrained model predicts the training
class frequencies.  Disagreement training continues boosting from the
base model's trees on a replica-weighted dataset.
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
    tree = _Tree()

    def grow(node: int, rows: np.ndarray, depth: int):
        # fsum is exactly rounded, so weight-k rows and k duplicates yield
        # bit-identical node statistics regardless of summation order
        g_sum = math.fsum(g[rows])
        h_sum = math.fsum(h[rows])
        if depth >= cfg.max_depth or rows.size < 2:
            tree.value[node] = _leaf_value(g_sum, h_sum, cfg.reg_lambda, cfg.eta)
            return
        parent_score = g_sum * g_sum / (h_sum + cfg.reg_lambda)
        best_gain = _MIN_GAIN
        best = None
        for f in features:
            order = rows[np.argsort(X[rows, f], kind="stable")]
            xs = X[order, f]
            # aggregate gradient/hessian per distinct value first so that a
            # weight-k row and k duplicate rows produce bit-identical split
            # statistics (cuts sit between distinct values anyway)
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
            tree.value[node] = _leaf_value(g_sum, h_sum, cfg.reg_lambda, cfg.eta)
            return
        f, thr, left_rows, right_rows = best
        tree.feature[node] = int(f)
        tree.threshold[node] = float(thr)
        tree.left[node] = tree.add_node()
        tree.right[node] = tree.add_node()
        grow(tree.left[node], left_rows, depth + 1)
        grow(tree.right[node], right_rows, depth + 1)

    grow(tree.add_node(), rows, 0)
    return tree


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

    def margins(self, X: np.ndarray) -> np.ndarray:
        X = self._check_matrix(X)
        out = np.tile(self.base_log_prior, (X.shape[0], 1))
        for round_trees in self.rounds:
            for c, tree in enumerate(round_trees):
                out[:, c] += tree.predict(X)
        return out

    def predict_proba_matrix(self, X: np.ndarray) -> np.ndarray:
        return softmax_rows(self.margins(X))

    def clone_shallow(self) -> "GbtModel":
        # trees are immutable after fit; sharing them is safe
        return GbtModel(self.base_log_prior.copy(), list(self.rounds),
                        self.num_classes, self.feature_dim,
                        self.training_seed, self.val_score)


def _boost_rounds(model: GbtModel, X, y, w, cfg, rng: RngStream,
                  n_rounds: int) -> None:
    """Append n_rounds of trees to ``model`` fit on (X, y, w)."""
    n, d = X.shape
    n_classes = model.num_classes
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0
    margins = model.margins(X)
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
    _boost_rounds(model, X, y, w, cfg, rng, cfg.num_rounds)
    model.val_score = evaluate_metric(model, X_val, y_val, config.val_metric)
    return model


def fit_disagreeing_gbt(config: LearnerConfig, base: GbtModel, X_p, y_p,
                        X_q, pseudo, lam, rng: RngStream, epochs=1,
                        max_steps=None) -> GbtModel:
    cfg = config.gbt
    model = base.clone_shallow()
    rounds = epochs if max_steps is None else min(epochs, max_steps)
    if rounds <= 0:
        return model
    if X_q.shape[0] == 0:
        _boost_rounds(model, X_p, y_p, np.ones(X_p.shape[0]), cfg, rng, rounds)
        return model
    # boosting sees all of P every round while the gradient path's lambda
    # is per-batch; rescale by |P_train| so one round's Q exposure matches
    # one epoch of batch-filled updates
    X_rep, y_rep, w_rep = replicate_for_disagreement(
        X_q, pseudo, model.num_classes,
        lam * X_p.shape[0] * cfg.disagree_scale)
    X_all = np.vstack([X_p, X_rep])
    y_all = np.concatenate([y_p, y_rep])
    w_all = np.concatenate([np.ones(X_p.shape[0]), w_rep])
    _boost_rounds(model, X_all, y_all, w_all, cfg, rng, rounds)
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


def _tree_from_doc(doc: dict) -> _Tree:
    tree = _Tree()
    tree.feature = _decode_array(doc["feature"]).tolist()
    tree.threshold = _decode_array(doc["threshold"]).tolist()
    tree.left = _decode_array(doc["left"]).tolist()
    tree.right = _decode_array(doc["right"]).tolist()
    tree.value = _decode_array(doc["value"]).tolist()
    return tree


def gbt_body(model: GbtModel) -> dict:
    return {
        "base_log_prior": _encode_array(model.base_log_prior),
        "rounds": [[_tree_to_doc(t) for t in rnd] for rnd in model.rounds],
    }


def gbt_from_doc(doc: dict) -> GbtModel:
    header, body = doc["header"], doc["body"]
    rounds = [[_tree_from_doc(t) for t in rnd] for rnd in body["rounds"]]
    return GbtModel(
        _decode_array(body["base_log_prior"]),
        rounds,
        header["num_classes"],
        header["feature_dim"],
        tuple(header["training_seed"]),
        header["val_score"],
    )
