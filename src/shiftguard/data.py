"""Datasets, ingestion, deterministic partitioning, and shift generators.

Sources are fixed-width numeric feature rows with optional integer labels
and a content fingerprint.  Synthetic generators produce (source, target)
pairs with known ground truth about whether the target distribution is
shifted, at magnitudes chosen so a source-trained model demonstrably
degrades.  The tabular heart-disease pipeline reproduces the
Cleveland/Hungary vs Switzerland/VA-Long-Beach split over nine features.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .numerics import RngStream

__all__ = [
    "Dataset",
    "ShiftTaskSpec",
    "load_csv",
    "partition",
    "synth_generate",
    "uci_prepare",
    "UCI_FEATURES",
]


@dataclass
class Dataset:
    """Row-major numeric feature matrix with optional labels."""
    features: np.ndarray
    labels: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValueError("features must be an (n, d) matrix")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("non-finite feature values after ingestion")
        if self.labels is not None:
            self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.features.shape[0],):
                raise ValueError("labels must align with feature rows")
            if self.labels.size and self.labels.min() < 0:
                raise ValueError("labels must be non-negative")

    def __len__(self):
        return self.features.shape[0]

    @property
    def num_classes(self) -> int:
        if self.labels is None:
            raise ValueError(f"dataset {self.name!r} is unlabeled")
        return int(self.labels.max()) + 1

    @property
    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(f"{self.features.shape}".encode())
        h.update(self.features.tobytes())
        if self.labels is None:
            h.update(b"unlabeled")
        else:
            h.update(self.labels.tobytes())
        return h.hexdigest()

    def take(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(
            self.features[idx],
            None if self.labels is None else self.labels[idx],
            name=self.name,
        )


@dataclass(frozen=True)
class ShiftTaskSpec:
    """Synthetic benchmark task with known shift ground truth."""
    generator: str  # null_resample | gauss_mean_shift | boundary_rotation
    n_source: int = 600
    n_target: int = 500
    seed: int = 0
    params: dict = field(default_factory=dict)

    _KNOWN = ("null_resample", "gauss_mean_shift", "boundary_rotation")

    def __post_init__(self):
        if self.generator not in self._KNOWN:
            raise ValueError(f"unknown generator {self.generator!r}")
        if self.n_source < 10 or self.n_target < 1:
            raise ValueError("n_source must be >= 10 and n_target >= 1")
        if self.generator == "gauss_mean_shift":
            if self.params.get("delta", _GAUSS_DEFAULTS["delta"]) <= 0:
                raise ValueError("gauss_mean_shift needs delta > 0")
        if self.generator == "boundary_rotation":
            if self.params.get("theta", _ROT_DEFAULTS["theta"]) <= 0:
                raise ValueError("boundary_rotation needs theta > 0")
        if self.generator == "null_resample":
            for key in ("delta", "theta"):
                if self.params.get(key):
                    raise ValueError("null_resample takes no shift magnitude")


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

_MISSING_TOKENS = frozenset({"", "?"})
_UCI_MISSING_TOKENS = _MISSING_TOKENS | {"-9", "-9.0"}


def _parse_cell(raw: str, row: int, col: str,
                missing_tokens=_MISSING_TOKENS) -> float:
    token = raw.strip()
    if token in missing_tokens:
        return math.nan
    try:
        return float(token)
    except ValueError:
        raise ValueError(
            f"unparseable cell at row {row}, column {col!r}: {raw!r}"
        ) from None


def load_csv(path, label_column="y") -> Dataset:
    """Load a header-carrying CSV of numeric features.

    Every column but ``label_column`` is a feature.  A missing cell
    (empty or "?") is refused.  The label column is optional: unlabeled
    files simply omit it.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row")
        header = [h.strip() for h in header]
        rows = [row for row in reader if row]

    feature_columns = [h for h in header if h != label_column]
    has_label = label_column in header
    col_idx = {h: i for i, h in enumerate(header)}

    n = len(rows)
    X = np.empty((n, len(feature_columns)))
    y = np.empty(n, dtype=np.int64) if has_label else None
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {r + 2} has {len(row)} cells, "
                             f"expected {len(header)}")
        for j, c in enumerate(feature_columns):
            X[r, j] = _parse_cell(row[col_idx[c]], r + 2, c)
        if has_label:
            val = _parse_cell(row[col_idx[label_column]], r + 2, label_column)
            if math.isnan(val) or val != int(val):
                raise ValueError(
                    f"{path}: row {r + 2}: label must be an integer")
            y[r] = int(val)

    nan_mask = np.isnan(X)
    if nan_mask.any():
        r, j = np.argwhere(nan_mask)[0]
        raise ValueError(f"{path}: missing value at row {int(r) + 2}, "
                         f"column {feature_columns[int(j)]!r}")
    return Dataset(X, y, name=os.path.basename(str(path)))


# ---------------------------------------------------------------------------
# deterministic stratified partition
# ---------------------------------------------------------------------------

def partition(dataset: Dataset, fractions=(0.7, 0.1, 0.2),
              rng: RngStream | None = None):
    """Split into (train, val, holdout): disjoint, exhaustive, stratified.

    Global split sizes follow the fractions exactly (largest remainder);
    per-class allocations stay within one sample of proportional.
    """
    if dataset.labels is None:
        raise ValueError("partition requires a labeled dataset")
    fractions = tuple(float(f) for f in fractions)
    if len(fractions) != 3 or any(f <= 0 for f in fractions):
        raise ValueError("need three positive fractions")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1")
    if rng is None:
        rng = RngStream(0, 0)

    n = len(dataset)
    labels = dataset.labels
    classes, class_counts = np.unique(labels, return_counts=True)
    for c, count in zip(classes, class_counts):
        if count < 3:
            raise ValueError(
                f"class {int(c)} has only {int(count)} samples; "
                "cannot stratify into three splits")

    # exact global sizes by largest remainder
    ideal = np.array(fractions) * n
    sizes = np.floor(ideal).astype(int)
    for k in np.argsort(-(ideal - sizes), kind="stable")[: n - sizes.sum()]:
        sizes[k] += 1

    counts = np.zeros((classes.size, 3), dtype=int)
    for ci, count in enumerate(class_counts):
        ideal_c = np.array(fractions) * count
        counts[ci] = np.floor(ideal_c).astype(int)
    deficits = sizes - counts.sum(axis=0)
    # hand out per-class remainders to splits still short, preferring the
    # split with the largest fractional entitlement
    for ci, count in enumerate(class_counts):
        remainder = int(count - counts[ci].sum())
        frac_part = np.array(fractions) * count - np.floor(
            np.array(fractions) * count)
        for _ in range(remainder):
            order = np.argsort(-(frac_part + (deficits > 0) * 10.0),
                               kind="stable")
            s = int(order[0])
            counts[ci, s] += 1
            deficits[s] -= 1
            frac_part[s] = -1.0

    parts: list[list[np.ndarray]] = [[], [], []]
    for ci, c in enumerate(classes):
        idx = np.nonzero(labels == c)[0]
        idx = idx[rng.permutation(idx.size)]
        a, b = counts[ci, 0], counts[ci, 0] + counts[ci, 1]
        parts[0].append(idx[:a])
        parts[1].append(idx[a:b])
        parts[2].append(idx[b:])
    out = []
    suffix = ("train", "val", "holdout")
    for s in range(3):
        merged = np.sort(np.concatenate(parts[s]))
        sub = dataset.take(merged)
        sub.name = f"{dataset.name}/{suffix[s]}"
        out.append(sub)
    return tuple(out)


# ---------------------------------------------------------------------------
# synthetic generators
# ---------------------------------------------------------------------------

_GAUSS_DEFAULTS = {"mu": 2.0, "delta": 8.0, "dim": 2}
_ROT_DEFAULTS = {"theta": 1.0, "noise": 0.15}


def _gauss_draw(n, mu, dim, rng):
    labels = (rng.uniform(n) < 0.5).astype(np.int64)
    X = rng.normal((n, dim))
    X[:, 0] += np.where(labels == 1, mu, -mu)
    return X, labels


def _moons_draw(n, noise, rng):
    labels = (rng.uniform(n) < 0.5).astype(np.int64)
    t = rng.uniform(n) * np.pi
    X = np.empty((n, 2))
    upper = labels == 0
    X[upper, 0] = np.cos(t[upper])
    X[upper, 1] = np.sin(t[upper])
    X[~upper, 0] = 1.0 - np.cos(t[~upper])
    X[~upper, 1] = 0.5 - np.sin(t[~upper])
    X += rng.normal(X.shape) * noise
    return X, labels


def synth_generate(spec: ShiftTaskSpec, reveal_labels: bool = False):
    """Draw (source labeled, target unlabeled, target_is_shifted).

    null_resample: target iid from the source distribution.
    gauss_mean_shift: two Gaussian classes at means +-mu along axis 0;
    target covariates translated by delta along axis 1, orthogonal to the
    class-mean axis, so the generating rule's p(y|x) is untouched.
    boundary_rotation: two interleaved half-moons; target covariates
    rotated by theta about the origin.  Target labels are withheld unless
    ``reveal_labels`` (used only to certify harmfulness in evaluations).
    """
    rng = RngStream(spec.seed, 0)
    name = f"synth/{spec.generator}"
    if spec.generator in ("null_resample", "gauss_mean_shift"):
        p = {**_GAUSS_DEFAULTS, **spec.params}
        Xs, ys = _gauss_draw(spec.n_source, p["mu"], int(p["dim"]), rng)
        Xt, yt = _gauss_draw(spec.n_target, p["mu"], int(p["dim"]), rng)
        shifted = spec.generator == "gauss_mean_shift"
        if shifted:
            Xt = Xt.copy()
            Xt[:, 1] += p["delta"]
    else:
        p = {**_ROT_DEFAULTS, **spec.params}
        Xs, ys = _moons_draw(spec.n_source, p["noise"], rng)
        Xt, yt = _moons_draw(spec.n_target, p["noise"], rng)
        theta = float(p["theta"])
        shifted = theta != 0.0
        c, s = math.cos(theta), math.sin(theta)
        Xt = Xt @ np.array([[c, s], [-s, c]])
    source = Dataset(Xs, ys, name=f"{name}/source")
    target = Dataset(Xt, yt if reveal_labels else None, name=f"{name}/target")
    return source, target, shifted


# ---------------------------------------------------------------------------
# heart-disease tabular pipeline
# ---------------------------------------------------------------------------

# the nine retained features, in the raw files' column order; the label
# (angiographic status 0-4) is the last of the 14 commonly used columns
UCI_FEATURES = ("age", "sex", "cp", "trestbps", "chol", "fbs", "restecg",
                "thalach", "exang")
_UCI_LABEL_COL = 13
_UCI_TOTAL_COLS = 14
_UCI_SOURCE_FILES = ("processed.cleveland.data", "processed.hungarian.data")
_UCI_TARGET_FILES = ("processed.switzerland.data", "processed.va.data")


def _read_uci_file(path) -> tuple[np.ndarray, np.ndarray]:
    feats, labels = [], []
    with open(path, encoding="utf-8", errors="replace") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != _UCI_TOTAL_COLS:
                raise ValueError(
                    f"{path}: line {line_no} has {len(cells)} fields, "
                    f"expected {_UCI_TOTAL_COLS}")
            row = [_parse_cell(c, line_no, UCI_FEATURES[j], _UCI_MISSING_TOKENS)
                   for j, c in enumerate(cells[: len(UCI_FEATURES)])]
            label_raw = _parse_cell(cells[_UCI_LABEL_COL], line_no, "num",
                                    _UCI_MISSING_TOKENS)
            if math.isnan(label_raw):
                continue  # unusable without a diagnosis
            feats.append(row)
            labels.append(1 if label_raw > 0 else 0)
    return np.asarray(feats, dtype=np.float64), np.asarray(labels, np.int64)


def uci_prepare(raw_dir) -> tuple[Dataset, Dataset]:
    """Build the heart-disease (source, target) pair from the four raw
    database files.

    Source: Cleveland + Hungary.  Target: Switzerland + VA Long Beach.
    Nine features are retained; the 0-4 diagnosis is binarized at > 0.
    Missing cells are median-imputed with medians fit on the source rows
    and applied unchanged to the target.
    """
    missing = [f for f in (*_UCI_SOURCE_FILES, *_UCI_TARGET_FILES)
               if not os.path.exists(os.path.join(raw_dir, f))]
    if missing:
        raise FileNotFoundError(
            f"missing raw database files in {raw_dir}: {', '.join(missing)}")

    def stack(files):
        xs, ys = [], []
        for f in files:
            X, y = _read_uci_file(os.path.join(raw_dir, f))
            xs.append(X)
            ys.append(y)
        return np.vstack(xs), np.concatenate(ys)

    X_src, y_src = stack(_UCI_SOURCE_FILES)
    X_tgt, y_tgt = stack(_UCI_TARGET_FILES)

    medians = np.empty(X_src.shape[1])
    for j in range(X_src.shape[1]):
        observed = X_src[~np.isnan(X_src[:, j]), j]
        if observed.size == 0:
            raise ValueError(f"source column {UCI_FEATURES[j]!r} is all-missing")
        medians[j] = np.median(observed)
    for X in (X_src, X_tgt):
        nan_mask = np.isnan(X)
        X[nan_mask] = np.broadcast_to(medians, X.shape)[nan_mask]

    source = Dataset(X_src, y_src, name="uci_heart/source")
    target = Dataset(X_tgt, y_tgt, name="uci_heart/target")
    return source, target
