"""Small fully-connected network trained with backprop and Adam.

ReLU hidden layers with inverted dropout, feature standardization fit on
the training rows, snapshot selection by validation score with patience
early stopping.  Dropout is disabled at prediction time.

A training step computes only d loss / d logits (``losses.cdc_batch_grad``),
never the loss value.  While a model trains, its weights and biases are
views into one flat parameter vector, and Adam updates that vector with
one set of elementwise operations; the update is elementwise, so its bits
are those of a per-array update.
"""

from __future__ import annotations

import numpy as np

from ..losses import cdc_batch_grad
from ..numerics import RngStream, log_softmax_rows, softmax_rows
from . import (
    LearnerConfig,
    Model,
    _decode_array,
    _decode_arrays,
    _encode_array,
    evaluate_metric,
)

_ADAM_B1 = 0.9
_ADAM_B2 = 0.999
_ADAM_EPS = 1e-8


class MlpModel(Model):
    kind = "mlp"

    def __init__(self, weights, biases, mean, std, num_classes, feature_dim,
                 training_seed, val_score=None):
        self.weights = weights
        self.biases = biases
        self.mean = mean
        self.std = std
        self.num_classes = num_classes
        self.feature_dim = feature_dim
        self.training_seed = tuple(training_seed)
        self.val_score = val_score
        # transient training state, set by clone: the flat vector the
        # weights and biases view, and Adam moments for warm restarts
        self._params = None
        self._opt_state = None

    def logits(self, X: np.ndarray) -> np.ndarray:
        X = self._check_matrix(X)
        h = (X - self.mean) / self.std
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.maximum(h @ W + b, 0.0)
        return h @ self.weights[-1] + self.biases[-1]

    def predict_proba_matrix(self, X: np.ndarray) -> np.ndarray:
        return softmax_rows(self.logits(X))

    def clone(self) -> "MlpModel":
        """An independent copy whose weights and biases are views into one
        flat parameter vector; Adam moments, if any, are copied too."""
        params, weights, biases = _flat_params(self.weights, self.biases)
        m = MlpModel(weights, biases, self.mean.copy(), self.std.copy(),
                     self.num_classes, self.feature_dim,
                     self.training_seed, self.val_score)
        m._params = params
        if self._opt_state is not None:
            m._opt_state = self._opt_state.copy()
        return m


def _flat_params(weights, biases):
    """One flat copy of every weight and bias, layer by layer (W0, b0, W1,
    b1, ...), and the weights and biases again as views into it."""
    arrays = [a for pair in zip(weights, biases) for a in pair]
    params = np.concatenate([a.ravel() for a in arrays])
    views = []
    start = 0
    for a in arrays:
        views.append(params[start:start + a.size].reshape(a.shape))
        start += a.size
    return params, views[0::2], views[1::2]


def _init_params(dims, rng: RngStream):
    # He init for hidden layers; zero-init head so early logits are
    # bias-dominated rather than init noise
    weights, biases = [], []
    last = len(dims) - 2
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        if i == last:
            weights.append(np.zeros((fan_in, fan_out)))
        else:
            weights.append(rng.normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in))
        biases.append(np.zeros(fan_out))
    return weights, biases


def _forward_train(X, weights, biases, dropout_rate, rng: RngStream):
    """Forward pass with inverted dropout; returns logits and the
    activations/masks needed for backprop."""
    acts = [X]
    masks = []
    h = X
    for W, b in zip(weights[:-1], biases[:-1]):
        h = np.maximum(h @ W + b, 0.0)
        if dropout_rate > 0.0:
            mask = (rng.uniform(h.shape) >= dropout_rate) / (1.0 - dropout_rate)
            h = h * mask
        else:
            mask = None
        masks.append(mask)
        acts.append(h)
    logits = h @ weights[-1] + biases[-1]
    return logits, acts, masks


def _backward(dlogits, acts, masks, weights, l2):
    """Gradient of the batch loss wrt every weight and bias, flat in the
    layer order of ``_flat_params``."""
    parts = []
    delta = dlogits
    for layer in range(len(weights) - 1, -1, -1):
        g_w = acts[layer].T @ delta
        if l2 > 0.0:
            g_w += l2 * weights[layer]
        parts.append(delta.sum(axis=0))
        parts.append(g_w.ravel())
        if layer > 0:
            delta = delta @ weights[layer].T
            if masks[layer - 1] is not None:
                delta = delta * masks[layer - 1]
            delta = delta * (acts[layer] > 0.0)
    return np.concatenate(parts[::-1])


class _Adam:
    """Adam over one flat parameter vector, with one flat vector each for
    the first and second moments."""

    def __init__(self, params, lr):
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)

    def copy(self) -> "_Adam":
        other = _Adam.__new__(_Adam)
        other.lr, other.t = self.lr, self.t
        other.m, other.v = self.m.copy(), self.v.copy()
        return other

    def step(self, params, grad):
        self.t += 1
        bc1 = 1.0 - _ADAM_B1 ** self.t
        bc2 = 1.0 - _ADAM_B2 ** self.t
        m, v = self.m, self.v
        m *= _ADAM_B1
        m += (1.0 - _ADAM_B1) * grad
        v *= _ADAM_B2
        v += (1.0 - _ADAM_B2) * grad * grad
        params -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + _ADAM_EPS)


def _standardizer(X):
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std < 1e-8, 1.0, std)
    return mean, std


def _val_ce(model: MlpModel, X_val, y_val) -> float:
    logp = log_softmax_rows(model.logits(X_val))
    return float((-logp[np.arange(logp.shape[0]), y_val]).mean())


def fit_mlp(config: LearnerConfig, X, y, X_val, y_val, n_classes,
            rng: RngStream) -> MlpModel:
    cfg = config.mlp
    n, d = X.shape
    mean, std = _standardizer(X)
    Xs = (X - mean) / std
    dims = [d, *cfg.hidden_sizes, n_classes]
    params, weights, biases = _flat_params(*_init_params(dims, rng))
    optimizer = _Adam(params, cfg.learning_rate)

    model = MlpModel(weights, biases, mean, std, n_classes, d,
                     (rng.base_seed, rng.stream_id))
    best = model.clone()
    best_score = evaluate_metric(model, X_val, y_val, config.val_metric)
    best_ce = _val_ce(model, X_val, y_val)
    since_best = 0

    for _ in range(cfg.max_epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            logits, acts, masks = _forward_train(
                Xs[idx], weights, biases, cfg.dropout_rate, rng)
            dlogits = cdc_batch_grad(logits, y[idx], None, 1.0)
            optimizer.step(
                params, _backward(dlogits, acts, masks, weights, cfg.l2))
        score = evaluate_metric(model, X_val, y_val, config.val_metric)
        ce = _val_ce(model, X_val, y_val)
        # ties on the (small-sample) score break toward lower val loss so
        # the kept snapshot is the best-margined one, not the earliest
        if score > best_score or (score == best_score and ce < best_ce):
            best_score = score
            best_ce = ce
            best = model.clone()
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break

    best.val_score = best_score
    return best


def fit_disagreeing_mlp(config: LearnerConfig, base: MlpModel, X_p, y_p,
                        X_q, pseudo, lam, rng: RngStream,
                        max_steps=None) -> MlpModel:
    cfg = config.mlp
    model = base.clone()
    params, weights, biases = model._params, model.weights, model.biases
    if model._opt_state is None:
        model._opt_state = _Adam(params, cfg.learning_rate)
    else:
        # chained warm restart: keep the accumulated Adam moments
        model._opt_state.lr = cfg.learning_rate
    optimizer = model._opt_state

    n_q = X_q.shape[0]
    Xs_p = (X_p - model.mean) / model.std
    Xs_q = (X_q - model.mean) / model.std
    fill = max(cfg.batch_size - n_q, 1)
    disagree = np.concatenate(
        [np.zeros(fill, dtype=bool), np.ones(n_q, dtype=bool)])
    order = rng.permutation(X_p.shape[0])
    # one epoch, cut after max_steps batches when set
    for start in range(0, X_p.shape[0], fill)[:max_steps]:
        idx = order[start:start + fill]
        Xb = np.concatenate([Xs_p[idx], Xs_q])
        labels = np.concatenate([y_p[idx], pseudo])
        dis = disagree[fill - idx.size:] if idx.size < fill else disagree
        logits, acts, masks = _forward_train(
            Xb, weights, biases, cfg.dropout_rate, rng)
        dlogits = cdc_batch_grad(logits, labels, dis, lam)
        optimizer.step(
            params, _backward(dlogits, acts, masks, weights, cfg.l2))
    return model


# ---------------------------------------------------------------------------
# serialization body
# ---------------------------------------------------------------------------

def mlp_body(model: MlpModel) -> dict:
    return {
        "weights": [_encode_array(W) for W in model.weights],
        "biases": [_encode_array(b) for b in model.biases],
        "mean": _encode_array(model.mean),
        "std": _encode_array(model.std),
    }


def mlp_from_doc(doc: dict) -> MlpModel:
    header, body = doc["header"], doc["body"]
    weights, biases = (_decode_arrays(body["weights"]),
                       _decode_arrays(body["biases"]))
    mean, std = _decode_array(body["mean"]), _decode_array(body["std"])
    width = header["feature_dim"]
    if mean.shape != (width,) or std.shape != (width,):
        raise ValueError("mlp 'mean' and 'std' do not match feature_dim")
    if not weights or len(weights) != len(biases):
        raise ValueError("mlp body does not hold one bias per weight matrix")
    for W, b in zip(weights, biases):
        if W.ndim != 2 or W.shape[0] != width or b.shape != (W.shape[1],):
            raise ValueError("mlp layer shapes do not chain from feature_dim")
        width = W.shape[1]
    if width != header["num_classes"]:
        raise ValueError("mlp output layer does not match num_classes")
    return MlpModel(
        weights,
        biases,
        mean,
        std,
        header["num_classes"],
        header["feature_dim"],
        tuple(header["training_seed"]),
        header["val_score"],
    )
