"""Pluggable classifier training behind one contract.

Two concrete learners: a small MLP trained by mini-batch gradient descent
with an adaptive-moment optimizer, and gradient-boosted decision trees
with per-sample weights (the replication scheme needs exact weighting
semantics, which is why boosting is implemented here rather than wrapped).
Both support warm-started disagreement training.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

__all__ = [
    "MlpConfig",
    "GbtConfig",
    "LearnerConfig",
    "Model",
    "fit",
    "predict_proba",
    "fit_disagreeing",
    "check_disagreement_rows",
    "lockstep_key",
    "batches_per_epoch",
    "accuracy",
    "auc_binary",
    "evaluate_metric",
    "model_to_doc",
    "doc_to_model",
    "save_model",
    "load_model",
    "model_fingerprint",
    "config_to_dict",
]

MODEL_FORMAT_VERSION = 1


def _refuse_nonfinite(config, names) -> None:
    for name in names:
        if not math.isfinite(getattr(config, name)):
            raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class MlpConfig:
    hidden_sizes: tuple[int, ...] = (16, 16, 16)
    dropout_rate: float = 0.3
    learning_rate: float = 1e-3
    max_epochs: int = 1000
    batch_size: int = 64
    l2: float = 0.0
    patience: int = 100

    def __post_init__(self):
        _refuse_nonfinite(self, ("learning_rate", "l2"))
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.max_epochs < 1 or self.batch_size < 1 or self.patience < 1:
            raise ValueError("max_epochs, batch_size, patience must be >= 1")
        if self.l2 < 0:
            raise ValueError("l2 must be non-negative")


@dataclass(frozen=True)
class GbtConfig:
    eta: float = 0.1
    max_depth: int = 6
    num_rounds: int = 10
    subsample: float = 0.8
    colsample: float = 0.8
    min_child_weight: float = 1.0
    reg_lambda: float = 1.0
    # scale on top of lambda * |P_train| for replica weights during
    # disagreement rounds; boosting has no batch structure, so the
    # gradient-path lambda is rescaled to per-round exposure
    disagree_scale: float = 1.0

    def __post_init__(self):
        _refuse_nonfinite(self, ("eta", "min_child_weight", "reg_lambda",
                                 "disagree_scale"))
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.num_rounds < 1:
            raise ValueError("num_rounds must be >= 1")
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        if not 0.0 < self.colsample <= 1.0:
            raise ValueError("colsample must be in (0, 1]")
        if self.min_child_weight < 0 or self.reg_lambda < 0:
            raise ValueError("min_child_weight and reg_lambda must be >= 0")
        if self.disagree_scale <= 0:
            raise ValueError("disagree_scale must be positive")


@dataclass(frozen=True)
class LearnerConfig:
    kind: str = "mlp"
    mlp: MlpConfig = field(default_factory=MlpConfig)
    gbt: GbtConfig = field(default_factory=GbtConfig)
    val_metric: str = "accuracy"  # "accuracy" | "auc" (auc: binary only)

    def __post_init__(self):
        if self.kind not in ("mlp", "gbt"):
            raise ValueError(f"unknown learner kind {self.kind!r}")
        if self.val_metric not in ("accuracy", "auc"):
            raise ValueError(f"unknown val_metric {self.val_metric!r}")


class Model:
    """Trained classifier: per-class probabilities over fixed-width rows.

    Immutable after fit; argmax with lowest-index tie-breaking defines the
    predicted label.
    """

    kind: str = "?"
    num_classes: int
    feature_dim: int
    training_seed: tuple[int, int]
    val_score: float | None

    def predict_proba_matrix(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def predict_proba(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1 or x.shape[0] != self.feature_dim:
            raise ValueError(
                f"expected feature vector of dimension {self.feature_dim}, "
                f"got shape {x.shape}")
        return self.predict_proba_matrix(x[None, :])[0]

    def predict_labels(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba_matrix(X), axis=1)

    def drop_warm_start(self) -> None:
        """Free what only training that continues from this model reads;
        every prediction keeps its bytes.  Nothing, unless a learner
        keeps such state."""

    def _check_matrix(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.feature_dim:
            raise ValueError(
                f"expected (n, {self.feature_dim}) feature matrix, "
                f"got shape {X.shape}")
        return X


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def accuracy(model: Model, X: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(model.predict_labels(X) == np.asarray(y)))


def auc_binary(scores: np.ndarray, y: np.ndarray) -> float:
    """Rank-based AUROC with average ranks for tied scores."""
    scores = np.asarray(scores, dtype=np.float64)
    y = np.asarray(y)
    pos = y == 1
    n_pos = int(pos.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(y.size, dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < y.size:
        j = i
        while j + 1 < y.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0)
                 / (n_pos * n_neg))


def evaluate_metric(model: Model, X: np.ndarray, y: np.ndarray,
                    metric: str) -> float:
    if metric == "accuracy":
        return accuracy(model, X, y)
    if metric == "auc":
        if model.num_classes != 2:
            raise ValueError("auc metric requires binary classification")
        return auc_binary(model.predict_proba_matrix(X)[:, 1], y)
    raise ValueError(f"unknown metric {metric!r}")


# ---------------------------------------------------------------------------
# fit / predict dispatch
# ---------------------------------------------------------------------------

def _finite_features(X, name: str) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if not np.isfinite(X).all():
        raise ValueError(f"{name} features hold NaN or inf")
    return X


def fit(config: LearnerConfig, X, y, X_val, y_val, rng) -> Model:
    """Train a classifier on classes 0..y.max(); records the validation
    score used later as the disagreement-training constraint.  X and
    X_val must be finite."""
    X = _finite_features(X, "training")
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("training set must be a nonempty (n, d) matrix")
    if y.shape != (X.shape[0],):
        raise ValueError("labels must align with feature rows")
    if y.min() < 0:
        raise ValueError("labels must be non-negative class indices")
    n_classes = int(y.max() + 1)
    if config.val_metric == "auc" and n_classes != 2:
        raise ValueError("auc metric requires binary classification")
    X_val = _finite_features(X_val, "validation")
    y_val = np.asarray(y_val, dtype=np.int64)
    if config.kind == "mlp":
        from . import mlp
        return mlp.fit_mlp(config, X, y, X_val, y_val, n_classes, rng)
    from . import gbt
    return gbt.fit_gbt(config, X, y, X_val, y_val, n_classes, rng)


def predict_proba(model: Model, x) -> np.ndarray:
    """Class-probability vector for one feature row."""
    return model.predict_proba(x)


def batches_per_epoch(config: LearnerConfig, n_train: int, n_q: int) -> int:
    """Number of Q-filled batches in one pass over the training rows.

    Every disagreement batch carries all of Q topped up with fresh
    training rows, so the P side is consumed ``fill`` rows at a time.
    For GBT one round sees everything once: a single "batch".
    """
    if config.kind == "gbt":
        return 1
    fill = max(config.mlp.batch_size - n_q, 1)
    return max(1, -(-n_train // fill))


def _check_labels(name: str, labels, num_classes: int) -> None:
    if labels.size and not (0 <= labels.min()
                            and labels.max() < num_classes):
        raise ValueError(f"{name} labels outside [0, {num_classes})")


def lockstep_key(config: LearnerConfig, n_q: int) -> int:
    """Runs with equal keys can train in one ``fit_disagreeing`` call.
    Every MLP batch holds all of Q beside a fill of training rows, so MLP
    runs must share |Q|; a boosting round sees every row at once, so any
    GBT runs can."""
    return n_q if config.kind == "mlp" else 0


def check_disagreement_rows(P_train, P_val, Qs, num_classes: int) -> tuple:
    """(P_train, P_val, Qs) as ``fit_disagreeing`` trains on them: float
    features and int labels, refused unless every feature is finite,
    P_train and each Q are nonempty, each Q's pseudo-labels align with
    its rows, and P_train labels and Q pseudo-labels lie in [0,
    num_classes)."""
    X_p = _finite_features(P_train[0], "P_train")
    y_p = np.asarray(P_train[1], np.int64)
    X_val = _finite_features(P_val[0], "P_val")
    if X_p.shape[0] == 0:
        raise ValueError("P_train must be nonempty")
    _check_labels("P_train", y_p, num_classes)
    checked = []
    for X_q, pseudo in Qs:
        X_q = _finite_features(X_q, "Q")
        pseudo = np.asarray(pseudo, dtype=np.int64)
        if X_q.shape[0] == 0:
            raise ValueError("Q must be nonempty")
        if X_q.shape[0] != pseudo.shape[0]:
            raise ValueError("pseudo labels must align with Q rows")
        _check_labels("Q pseudo", pseudo, num_classes)
        checked.append((X_q, pseudo))
    return (X_p, y_p), (X_val, P_val[1]), checked


def fit_disagreeing(config: LearnerConfig, bases, P_train, P_val, Qs, lams,
                    rngs, max_steps: int | None = None,
                    checked: bool = False) -> list:
    """Continue training each of R runs for one epoch (one boosting
    round) to agree on a nonempty P_train and disagree on its own nonempty
    Q; returns one new model per run.

    Run r warm-starts from ``bases[r]``, attacks ``Qs[r]`` with weight
    ``lams[r]`` and draws from ``rngs[r]``; the bases share a class count,
    and P_train and P_val are shared.  P_train/P_val are (X, y) pairs
    with true labels; each Q is (X, pseudo) where pseudo labels are the
    base model's own predictions.  The rows go through
    ``check_disagreement_rows`` unless ``checked`` says they already did,
    as ``train_cdc`` checks them once for all its epochs.  MLP path:
    warm-started gradient descent on the combined agree/disagree batch
    loss, every batch containing all of Q, stopping after ``max_steps``
    batches when set.  The runs step in lockstep, so every Q must have
    the same row count, every lambda be the same and every base have the
    same Adam step count.  GBT path: replicas of each Q sample (one per
    non-pseudo class, weights lam * |P_train| * disagree_scale / (N-1))
    appended to P, one boosting round continued from the base model's
    trees; every run's round grows in one split search per depth, over
    every node of every run's class trees, sorting by integer ranks of
    the feature values.  The returned GBT model carries its margins on
    P_train, Q and P_val: the next warm-started round, and a validation
    check on P_val, add only that round's trees, walked level by level,
    instead of re-running every earlier one.  Either way a run's model
    has the bytes it would have trained alone.
    """
    if any(lam <= 0 for lam in lams):
        raise ValueError("lambda must be positive")
    if max_steps is not None and max_steps < 1:
        raise ValueError("max_steps must be >= 1 when set")
    if not len(bases) == len(Qs) == len(lams) == len(rngs) > 0:
        raise ValueError("need one Q and one stream per base, as many "
                         "lambdas, and a base")
    if any(b.num_classes != bases[0].num_classes for b in bases):
        raise ValueError("runs trained together must share num_classes")
    if not checked:
        P_train, P_val, Qs = check_disagreement_rows(
            P_train, P_val, Qs, bases[0].num_classes)
    (X_p, y_p), (X_val, _) = P_train, P_val
    X_qs = [X_q for X_q, _ in Qs]
    pseudos = [pseudo for _, pseudo in Qs]
    if config.kind == "mlp":
        if (any(X_q.shape[0] != X_qs[0].shape[0] for X_q in X_qs)
                or any(lam != lams[0] for lam in lams)):
            raise ValueError("runs trained in lockstep must share |Q| and "
                             "lambda")
        from . import mlp
        return mlp.fit_disagreeing_mlp(config, bases, X_p, y_p, X_qs,
                                       pseudos, lams[0], rngs, max_steps)
    from . import gbt
    return gbt.fit_disagreeing_gbt(config, bases, X_p, y_p, X_val, X_qs,
                                   pseudos, lams, rngs)


# ---------------------------------------------------------------------------
# serialization: versioned JSON document with base64 array payloads
# ---------------------------------------------------------------------------

def _encode_array(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr)
    return {
        "dtype": str(arr.dtype),
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


# the float and int types a stored array may name
_ARRAY_DTYPES = ("float16", "float32", "float64",
                 "int8", "int16", "int32", "int64")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _decode_array(doc) -> np.ndarray:
    """The array a stored ``{dtype, shape, data}`` object holds, refusing
    with a one-line ValueError an object that does not describe one."""
    if not isinstance(doc, dict) or not {"dtype", "shape", "data"} <= set(doc):
        raise ValueError("model array is not a {dtype, shape, data} object")
    dtype, shape, data = doc["dtype"], doc["shape"], doc["data"]
    if dtype not in _ARRAY_DTYPES:
        raise ValueError(f"model array dtype {dtype!r} is not a float or "
                         "int type")
    if not (isinstance(shape, list)
            and all(_is_int(n) and n >= 0 for n in shape)):
        raise ValueError(f"model array shape {shape!r} is not a list of "
                         "sizes")
    if not isinstance(data, str):
        raise ValueError("model array data is not a base64 string")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError as exc:       # binascii.Error, or a non-ASCII string
        raise ValueError(f"model array data is not base64: {exc}") from None
    if len(raw) != math.prod(shape) * np.dtype(dtype).itemsize:
        raise ValueError(f"model array of shape {shape} holds {len(raw)} "
                         f"bytes of {dtype}")
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


def _decode_arrays(docs) -> list:
    if not isinstance(docs, list):
        raise ValueError("model body holds no list of arrays")
    return [_decode_array(d) for d in docs]


_HEADER_FIELDS = ("format_version", "kind", "num_classes", "feature_dim",
                  "training_seed", "val_score")


def model_to_doc(model: Model) -> dict:
    header = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": model.kind,
        "num_classes": model.num_classes,
        "feature_dim": model.feature_dim,
        "training_seed": list(model.training_seed),
        "val_score": model.val_score,
    }
    if model.kind == "mlp":
        from . import mlp
        body = mlp.mlp_body(model)
    elif model.kind == "gbt":
        from . import gbt
        body = gbt.gbt_body(model)
    else:
        raise ValueError(f"cannot serialize model kind {model.kind!r}")
    return {"header": header, "body": body}


def doc_to_model(doc: dict) -> Model:
    """Rebuild a model from its stored document, refusing with a one-line
    ValueError a document that is not a well-formed model."""
    if not isinstance(doc, dict):
        raise ValueError("model document is not a JSON object")
    for name in ("header", "body"):
        if not isinstance(doc.get(name), dict):
            raise ValueError(f"model document has no {name!r} object")
    header = doc["header"]
    for name in _HEADER_FIELDS:
        if name not in header:
            raise ValueError(f"model header has no {name!r}")
    if (not _is_int(header["format_version"])
            or header["format_version"] != MODEL_FORMAT_VERSION):
        raise ValueError(
            f"unsupported model format version {header['format_version']!r}")
    for name, least in (("num_classes", 2), ("feature_dim", 1)):
        if not (_is_int(header[name]) and header[name] >= least):
            raise ValueError(f"model {name!r} is not an int >= {least}: "
                             f"{header[name]!r}")
    seed = header["training_seed"]
    if not (isinstance(seed, list) and len(seed) == 2
            and all(_is_int(v) for v in seed)):
        raise ValueError(f"model 'training_seed' is not two ints: {seed!r}")
    score = header["val_score"]
    if not (score is None or _is_int(score)
            or (isinstance(score, float) and math.isfinite(score))):
        raise ValueError(
            f"model 'val_score' is not a finite number or null: {score!r}")
    if header["kind"] == "mlp":
        from .mlp import mlp_from_doc as from_doc
    elif header["kind"] == "gbt":
        from .gbt import gbt_from_doc as from_doc
    else:
        raise ValueError(f"unknown model kind {header['kind']!r}")
    try:
        return from_doc(doc)
    except KeyError as exc:
        raise ValueError(
            f"{header['kind']} model body has no {exc.args[0]!r}") from None


def save_model(model: Model, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_doc(model), fh, sort_keys=True)


def load_model(path) -> Model:
    with open(path, encoding="utf-8") as fh:
        return doc_to_model(json.load(fh))


def model_fingerprint(model: Model) -> str:
    payload = json.dumps(model_to_doc(model), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def config_to_dict(config: LearnerConfig) -> dict:
    d = asdict(config)
    d["mlp"]["hidden_sizes"] = list(config.mlp.hidden_sizes)
    return d
