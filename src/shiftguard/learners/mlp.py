"""Small fully-connected network trained with backprop and Adam.

ReLU hidden layers with inverted dropout, feature standardization fit on
the training rows, snapshot selection by validation score with patience
early stopping.  Dropout is disabled at prediction time.

One training step serves every caller: it advances R runs in lockstep,
each on its own batch, weights, Adam moments and random stream.  The
runs' parameters are the rows of one (R, P) array; each layer's weights
(R, d_in, d_out) and biases (R, d_out) are views into it, the forward and
backward passes are stacked matrix products over the leading run axis,
and Adam updates the whole array with one set of elementwise operations.
Every slice of a stacked product, and every elementwise result, has the
bits of the same run trained alone, so a run's model does not depend on
which runs share its steps.  ``fit_mlp`` runs the step with R = 1;
``fit_disagreeing_mlp`` with one run per disagreement target.

A training step computes only d loss / d logits (``losses.cdc_batch_grad``),
never the loss value.
"""

from __future__ import annotations

import numpy as np

from ..losses import cdc_batch_grad
from ..numerics import (
    RngStream,
    _permutation_rows,
    _uniform_rows,
    log_softmax_rows,
    softmax_rows,
)
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
        # transient training state: the flat vector the weights and biases
        # view, and Adam moments for warm restarts
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
        params, weights, biases = _stack_params([(self.weights,
                                                  self.biases)])
        m = MlpModel([W[0] for W in weights], [b[0] for b in biases],
                     self.mean.copy(), self.std.copy(), self.num_classes,
                     self.feature_dim, self.training_seed, self.val_score)
        m._params = params[0]
        if self._opt_state is not None:
            m._opt_state = self._opt_state.copy()
        return m


def _stack_params(runs):
    """One (R, P) copy of R runs' weights and biases, a run per row, layer
    by layer (W0, b0, W1, b1, ...), and each layer's weights (R, d_in,
    d_out) and biases (R, d_out) as views into it.  ``runs`` holds one
    (weights, biases) pair of lists per run, every run of one shape."""
    arrays = [a for pair in zip(*runs[0]) for a in pair]
    params = np.concatenate([a.ravel() for run in runs
                             for pair in zip(*run) for a in pair])
    params = params.reshape(len(runs), -1)
    views = []
    start = 0
    for a in arrays:
        views.append(params[:, start:start + a.size]
                     .reshape(len(runs), *a.shape))
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


def _dropout_masks(rngs, batch, widths, dropout_rate):
    """Inverted-dropout masks (R, batch, width) for every hidden layer,
    from one draw per stream: batch * width values for the first layer,
    then the next layer's, in the order a forward pass uses them."""
    if dropout_rate == 0.0 or not widths:
        return [None] * len(widths)
    u = _uniform_rows(rngs, batch * sum(widths))
    masks = []
    start = 0
    for w in widths:
        kept = u[:, start:start + batch * w].reshape(len(rngs), batch, w)
        masks.append((kept >= dropout_rate) / (1.0 - dropout_rate))
        start += batch * w
    return masks


def _forward_train(X, weights, biases, dropout_rate, rngs):
    """Forward pass with inverted dropout over an (R, B, d) stack of R
    runs' batches; returns the (R, B, C) logits and the activations and
    masks needed for backprop.  Run r's masks come from ``rngs[r]``."""
    masks = _dropout_masks(rngs, X.shape[1],
                           [W.shape[2] for W in weights[:-1]], dropout_rate)
    acts = [X]
    h = X
    # in place on each fresh product, with the bits of
    # np.maximum(h @ W + b, 0.0) * mask
    for W, b, mask in zip(weights[:-1], biases[:-1], masks):
        h = h @ W
        h += b[:, None, :]
        np.maximum(h, 0.0, out=h)
        if mask is not None:
            h *= mask
        acts.append(h)
    logits = h @ weights[-1]
    logits += biases[-1][:, None, :]
    return logits, acts, masks


def _backward(dlogits, acts, masks, weights, l2):
    """Gradient of each run's batch loss wrt its weights and biases: an
    (R, P) array in the layer order of ``_stack_params``."""
    runs = dlogits.shape[0]
    parts = []
    delta = dlogits
    for layer in range(len(weights) - 1, -1, -1):
        g_w = acts[layer].transpose(0, 2, 1) @ delta
        if l2 > 0.0:
            g_w += l2 * weights[layer]
        parts.append(delta.sum(axis=1))
        parts.append(g_w.reshape(runs, -1))
        if layer > 0:
            delta = delta @ weights[layer].transpose(0, 2, 1)
            if masks[layer - 1] is not None:
                delta *= masks[layer - 1]
            delta *= acts[layer] > 0.0
    return np.concatenate(parts[::-1], axis=1)


class _Adam:
    """Adam over a parameter array, with arrays of its shape for the first
    and second moments and one step count: over the (R, P) array of runs
    in lockstep while they train, over one run's row in its model."""

    def __init__(self, params, lr):
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)

    @classmethod
    def stacked(cls, states, params, lr) -> "_Adam":
        """The optimizer of runs in lockstep from each run's state (None:
        not yet trained); every run must have taken the same steps."""
        steps = {0 if s is None else s.t for s in states}
        if len(steps) > 1:
            raise ValueError("runs trained in lockstep must share their "
                             f"Adam step count, got {sorted(steps)}")
        opt = cls(params, lr)
        opt.t = steps.pop()
        if opt.t:
            opt.m = np.array([s.m for s in states])
            opt.v = np.array([s.v for s in states])
        return opt

    def row(self, r: int) -> "_Adam":
        """Run r's state, viewing its rows of the moments."""
        other = _Adam.__new__(_Adam)
        other.lr, other.t = self.lr, self.t
        other.m, other.v = self.m[r], self.v[r]
        return other

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


def _train_step(cfg, Xb, labels, disagree, lam, params, weights, biases,
                optimizer, rngs):
    """One optimization step of R runs in lockstep on the (R, B, d)
    batches Xb with (R, B) labels; ``disagree`` marks the disagree rows
    of every batch (None: all agree)."""
    logits, acts, masks = _forward_train(Xb, weights, biases,
                                         cfg.dropout_rate, rngs)
    dlogits = cdc_batch_grad(logits, labels, disagree, lam)
    optimizer.step(params, _backward(dlogits, acts, masks, weights, cfg.l2))


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
    params, weights, biases = _stack_params([_init_params(dims, rng)])
    optimizer = _Adam(params, cfg.learning_rate)

    model = MlpModel([W[0] for W in weights], [b[0] for b in biases], mean,
                     std, n_classes, d, (rng.base_seed, rng.stream_id))
    best = model.clone()
    best_score = evaluate_metric(model, X_val, y_val, config.val_metric)
    best_ce = _val_ce(model, X_val, y_val)
    since_best = 0

    for _ in range(cfg.max_epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            _train_step(cfg, Xs[idx][None], y[idx][None], None, 1.0,
                        params, weights, biases, optimizer, (rng,))
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


def fit_disagreeing_mlp(config: LearnerConfig, bases, X_p, y_p, X_qs,
                        pseudos, lam, rngs, max_steps=None) -> list:
    """One epoch of disagreement training, cut after max_steps batches
    when set, for R runs in lockstep: run r warm-starts from bases[r] and
    attacks its own Q rows X_qs[r] with pseudo-labels pseudos[r], drawing
    from rngs[r].  Every Q has the same row count, so every run's batch
    holds the same number of P rows beside its whole Q, and all bases
    have taken the same Adam steps.  Returns one new model per run."""
    cfg = config.mlp
    params, weights, biases = _stack_params(
        [(b.weights, b.biases) for b in bases])
    # a chained warm restart keeps the accumulated Adam moments
    optimizer = _Adam.stacked([b._opt_state for b in bases], params,
                              cfg.learning_rate)
    mean = np.array([b.mean for b in bases])[:, None, :]
    std = np.array([b.std for b in bases])[:, None, :]
    Xs_q = (np.array(X_qs) - mean) / std
    pseudo = np.array(pseudos)

    n_q = Xs_q.shape[1]
    fill = max(cfg.batch_size - n_q, 1)
    disagree = np.zeros((len(bases), fill + n_q), dtype=bool)
    disagree[:, fill:] = True
    orders = _permutation_rows(rngs, X_p.shape[0])
    # one epoch, cut after max_steps batches when set: each run's P rows
    # of every batch, in batch order, standardized as its model sees them
    starts = range(0, X_p.shape[0], fill)[:max_steps]
    taken = orders[:, :starts[-1] + fill]
    Xs_p, y_taken = (X_p[taken] - mean) / std, y_p[taken]
    for start in starts:
        rows = slice(start, start + fill)
        Xb = np.concatenate([Xs_p[:, rows], Xs_q], axis=1)
        labels = np.concatenate([y_taken[:, rows], pseudo], axis=1)
        _train_step(cfg, Xb, labels, disagree[:, fill + n_q - Xb.shape[1]:],
                    lam, params, weights, biases, optimizer, rngs)

    models = []
    for r, base in enumerate(bases):
        m = MlpModel([W[r] for W in weights], [b[r] for b in biases],
                     base.mean, base.std, base.num_classes, base.feature_dim,
                     base.training_seed, base.val_score)
        m._params = params[r]
        m._opt_state = optimizer.row(r)
        models.append(m)
    return models


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
