"""Classification losses for constrained disagreement training.

The disagreement cross-entropy (DCE) is the cross-entropy of a prediction
against the uniform distribution over every class except a target class:
minimizing it pushes probability mass away from the target while keeping
the prediction high-entropy.  For two classes it reduces exactly to
cross-entropy against the flipped label.  A replication scheme converts
the same objective into plain weighted labels for learners that cannot
consume gradients.

Training needs only d loss / d logits.  ``logit_grads`` computes it per
row from one row-wise softmax over the whole batch, and
``cdc_batch_grad`` takes its batch mean; the learners call these and
never compute a loss value.  The loss values themselves live with the
test oracles, which check these gradients against them.
"""

from __future__ import annotations

import numpy as np

from .numerics import softmax_rows

__all__ = [
    "logit_grads",
    "cdc_batch_grad",
    "lambda_weight",
    "replicate_for_disagreement",
]


def logit_grads(logits: np.ndarray, labels: np.ndarray, disagree=None,
                lam: float = 1.0) -> np.ndarray:
    """Per-row d loss / d logits over an (B, N) logit matrix, unweighted.

    Agree rows get the cross-entropy gradient softmax(l) - onehot(label).
    Disagree rows get lam times the DCE gradient with the label as the
    target: softmax(l)_j - (1/(N-1)) * [j != label].  ``disagree`` is a
    boolean row mask; None means every row agrees.  Softmax is row-wise,
    so each row's bits do not depend on the rest of the batch.  Labels
    must lie in [0, N); they are not checked here.
    """
    grads = softmax_rows(logits)
    rows = np.arange(grads.shape[0])
    if disagree is None:
        grads[rows, labels] -= 1.0
        return grads
    n = grads.shape[1]
    if n < 2:
        raise ValueError("need at least 2 classes to disagree")
    off = 1.0 / (n - 1)
    # agree rows: p - 0.0 (exact), then p - 1.0 at the label; disagree
    # rows: (p - off), then + off at the target, then * lam
    grads -= np.where(disagree, off, 0.0)[:, None]
    grads[rows, labels] += np.where(disagree, off, -1.0)
    grads *= np.where(disagree, lam, 1.0)[:, None]
    return grads


def cdc_batch_grad(logits: np.ndarray, labels: np.ndarray, disagree,
                   lam: float) -> np.ndarray:
    """d loss / d logits of the batch-mean agree/disagree objective, over
    a (B, N) batch or an (R, B, N) stack of R batches of B rows each.

    Agree rows contribute cross_entropy(l, label); disagree rows contribute
    lam * DCE(l, label-as-target).  ``labels`` has the logits' shape but
    the last axis, and so has ``disagree`` unless it is None.  Each row of
    ``logit_grads`` is scaled by 1/B, its own batch's mean.
    """
    shape = logits.shape
    if disagree is not None:
        disagree = disagree.reshape(-1)
    grads = logit_grads(logits.reshape(-1, shape[-1]), labels.reshape(-1),
                        disagree, lam)
    grads *= 1.0 / shape[-2]
    return grads.reshape(shape)


def lambda_weight(q_size: int, batches_per_epoch: int = 1) -> float:
    """Disagreement weight 1 / ((|Q| + 1) * batches_per_epoch).

    With one batch per epoch this is the plain 1/(|Q|+1) rule; when every
    batch carries all of Q the extra factor undoes the artificial
    inflation of Q across an epoch.
    """
    if q_size < 1:
        raise ValueError("q_size must be >= 1")
    if batches_per_epoch < 1:
        raise ValueError("batches_per_epoch must be >= 1")
    return 1.0 / ((q_size + 1) * batches_per_epoch)


def replicate_for_disagreement(X, targets, num_classes: int,
                               weight: float = 1.0
                               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rewrite disagreement rows as N-1 weighted ordinary rows each.

    Row i of X becomes one replica per class other than targets[i], in
    ascending class order and contiguous per row, each of weight
    weight / (N-1); summing weight * cross_entropy over a row's replicas
    reproduces weight * DCE exactly, so weight-aware learners need no
    disagreement-specific code path.  For N = 2 this is a single flipped
    label.  Returns (X_rep, labels, weights).
    """
    X = np.asarray(X, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    if num_classes < 2:
        raise ValueError("need at least 2 classes to disagree")
    if targets.shape != (X.shape[0],):
        raise ValueError("targets must align with rows")
    if targets.size and not 0 <= targets.min() <= targets.max() < num_classes:
        raise ValueError(f"targets outside [0, {num_classes})")
    labels = np.nonzero(np.arange(num_classes) != targets[:, None])[1]
    weights = np.full(labels.size, weight / (num_classes - 1))
    return np.repeat(X, num_classes - 1, axis=0), labels, weights
