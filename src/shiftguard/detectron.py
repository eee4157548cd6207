"""Shift detection by calibrated constrained disagreement.

Calibration trains K ensembles against held-out training-distribution
samples, recording each run's disagreement rate and per-sample ensemble
entropies.  A candidate sample is then attacked with the exact same
configuration: the disagreement test flags shift when its rate exceeds
the (1 - alpha) calibration quantile, the entropy test when the KS
p-value of its entropies against pooled calibration entropies falls
below the alpha quantile of leave-one-out calibration p-values, each
through a ``stats.NullReference``.  Calibration records persist as
versioned JSON.  A ``CalibratedTest`` pairs one with its test context
once, refusing a mismatched configuration, and then tests any number of
candidate samples; ``test_both`` builds one per call.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .cdc import (
    CdcTrainSpec,
    build_ensemble,
    build_ensembles,
    cdc_entropy,
    pseudo_label,
)
from .data import Dataset, ShiftTaskSpec, partition, synth_generate
from .learners import (
    LearnerConfig,
    Model,
    config_to_dict,
    fit,
    fit_disagreeing,
    model_fingerprint,
)
from .losses import lambda_weight
from .numerics import RngStream
from .schemas import load_schema, validate_against_schema
from .stats import NullReference, ks_two_sample

__all__ = [
    "CALIBRATION_FORMAT_VERSION",
    "PartitionedData",
    "CalibrationRecord",
    "TestVerdict",
    "BenchmarkTask",
    "DatasetTask",
    "config_hash",
    "calibrate",
    "CalibratedTest",
    "test_both",
    "evaluate_power",
    "disagreement_curve",
    "disagreement_statistic_psi",
    "save_calibration",
    "load_calibration",
    "DETECTOR_IDS",
]

CALIBRATION_FORMAT_VERSION = 1

DETECTOR_IDS = (
    "detectron_disagreement",
    "detectron_entropy",
    "ensemble_disagreement",
    "ensemble_entropy",
    "bbsd",
    "ctst",
    "always_reject",
    "never_reject",
)


@dataclass(frozen=True)
class PartitionedData:
    """The three source splits: CDC training set, validation set, and the
    held-out pool calibration samples are drawn from."""
    train: Dataset
    val: Dataset
    holdout: Dataset

    def train_pair(self):
        return self.train.features, self.train.labels

    def val_pair(self):
        return self.val.features, self.val.labels


@dataclass(frozen=True)
class TestVerdict:
    test: str
    statistic: float
    threshold: float
    shift_detected: bool
    sample_size: int
    seeds: dict
    wall_time_ms: float
    config_hash: str = ""
    flags: tuple = ()

    @classmethod
    def against(cls, null: NullReference, test: str, statistic: float,
                rng: RngStream, wall_time_ms: float, sample_size: int,
                config_hash: str = "", flags: tuple = (),
                **seeds) -> TestVerdict:
        """Shift iff ``null`` rejects ``statistic``; ``seeds`` join rng's."""
        statistic = float(statistic)
        return cls(test=test, statistic=statistic, threshold=null.threshold,
                   shift_detected=null.rejects(statistic),
                   sample_size=sample_size,
                   seeds={"base_seed": rng.base_seed,
                          "stream_id": rng.stream_id, **seeds},
                   wall_time_ms=wall_time_ms, config_hash=config_hash,
                   flags=tuple(flags))

    def to_json_dict(self) -> dict:
        return {**asdict(self), "flags": list(self.flags)}


@dataclass(frozen=True)
class CalibrationRecord:
    config_hash: str
    sample_size: int
    K: int
    alpha: float
    phi_p: tuple
    entropy_runs: tuple       # K tuples of sample_size entropies
    calib_p_values: tuple
    config_snapshot: dict
    base_seed: int
    stream_id: int = 0
    # the thresholds of the disagreement_null and entropy_null attributes
    tau_disagreement: float = field(init=False)
    tau_entropy: float = field(init=False)

    def __post_init__(self):
        if any(len(v) != self.K for v in (self.phi_p, self.entropy_runs,
                                          self.calib_p_values)):
            raise ValueError("calibration arrays must have K entries")
        if any(len(e) != self.sample_size for e in self.entropy_runs):
            raise ValueError(
                "each entropy run must have sample_size entries")
        dis = NullReference(self.phi_p, self.alpha, upper=True)
        ent = NullReference(self.calib_p_values, self.alpha, upper=False)
        object.__setattr__(self, "disagreement_null", dis)
        object.__setattr__(self, "entropy_null", ent)
        object.__setattr__(self, "tau_disagreement", dis.threshold)
        object.__setattr__(self, "tau_entropy", ent.threshold)


def config_hash(data: PartitionedData, config: LearnerConfig, f: Model,
                spec: CdcTrainSpec, N: int, K: int, alpha: float) -> str:
    return _hash_snapshot(_config_snapshot(data, config, f, spec, N, K, alpha))


def _config_snapshot(data, config, f, spec, N, K, alpha) -> dict:
    return {
        "learner": config_to_dict(config),
        "cdc": asdict(spec),
        "N": N,
        "K": K,
        "alpha": alpha,
        "train_fingerprint": data.train.fingerprint,
        "val_fingerprint": data.val.fingerprint,
        "holdout_fingerprint": data.holdout.fingerprint,
        "model_fingerprint": model_fingerprint(f),
    }


def _hash_snapshot(snapshot: dict) -> str:
    payload = json.dumps(snapshot, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

# calibration runs built together, per learner.  At the shipped MLP
# widths a stacked activation of 8 runs' 64-row batches is 8 x 64 x 16
# cells, 64 KB.  A GBT group holds every member's trees, carried margins
# and stacked rows at once: 4 runs keep peak memory within about 1 MB of
# one run at a time, while 8 took about 3.5 MB more
_CALIBRATION_GROUP = {"mlp": 8, "gbt": 4}


def _calibration_group(args):
    """(phi, entropies) of each calibration run in ``runs``: run i samples
    N held-out rows on its own stream and builds its ensemble on it; the
    group's ensembles are built together and dropped once reduced."""
    (config, train_pair, val_pair, holdout_X, f, spec, base_seed,
     stream_id, runs, N) = args
    rngs = [RngStream(base_seed, stream_id).split(i) for i in runs]
    samples = [holdout_X[r.sample_without_replacement(holdout_X.shape[0], N)]
               for r in rngs]
    ensembles = build_ensembles(config, train_pair, val_pair, samples, f,
                                spec, rngs)
    return [(ens.phi_final, tuple(float(v) for v in cdc_entropy(ens, p_star)))
            for ens, p_star in zip(ensembles, samples)]


def calibrate(data: PartitionedData, config: LearnerConfig, f: Model,
              N: int, K: int, spec: CdcTrainSpec, alpha: float,
              rng: RngStream, jobs: int = 1) -> CalibrationRecord:
    """Estimate the null distributions of both test statistics.

    Each of the K runs draws N held-out samples without replacement from
    its own derived stream, builds a CDC ensemble against them, and
    records the final disagreement rate and the per-sample ensemble
    entropies.  Runs are built in groups of up to
    ``_CALIBRATION_GROUP`` of the learner, whose member rounds train
    together (``cdc.build_ensembles``); each run has the bytes it would
    have alone.  ``jobs`` > 1 spreads the groups over that
    many worker processes, never more than there are groups.  Entropy
    calibration p-values come from a KS test of each run against the
    pooled entropies of the other K - 1 runs.
    """
    if len(data.holdout) < N:
        raise ValueError(
            f"insufficient held-out data: need {N}, have {len(data.holdout)}")
    if K < 20:
        raise ValueError("K must be >= 20 for a usable null estimate")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")

    size = _CALIBRATION_GROUP[config.kind]
    group_args = [
        (config, data.train_pair(), data.val_pair(), data.holdout.features,
         f, spec, rng.base_seed, rng.stream_id,
         range(start, min(start + size, K)), N)
        for start in range(0, K, size)
    ]
    if jobs > 1:
        # imported here: it pulls in logging, which no other path needs
        import concurrent.futures
        workers = min(jobs, len(group_args))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
            groups = list(ex.map(_calibration_group, group_args))
    else:
        groups = [_calibration_group(a) for a in group_args]
    results = [run for group in groups for run in group]

    phi_p = tuple(r[0] for r in results)
    entropy_runs = tuple(r[1] for r in results)
    calib_p_values = tuple(
        ks_two_sample(
            entropy_runs[i],
            np.concatenate([entropy_runs[j] for j in range(K) if j != i]),
        ).p_value
        for i in range(K)
    )
    snapshot = _config_snapshot(data, config, f, spec, N, K, alpha)
    return CalibrationRecord(
        config_hash=_hash_snapshot(snapshot),
        sample_size=N,
        K=K,
        alpha=alpha,
        phi_p=phi_p,
        entropy_runs=entropy_runs,
        calib_p_values=calib_p_values,
        config_snapshot=snapshot,
        base_seed=rng.base_seed,
        stream_id=rng.stream_id,
    )


# ---------------------------------------------------------------------------
# test-time verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CalibratedTest:
    """A calibration record paired once with the context it tests in;
    a mismatched context is refused, naming the fields that differ."""
    calib: CalibrationRecord
    data: PartitionedData
    config: LearnerConfig
    f: Model
    spec: CdcTrainSpec

    def __post_init__(self):
        calib = self.calib
        settings = (self.data, self.config, self.f, self.spec,
                    calib.sample_size, calib.K, calib.alpha)
        if config_hash(*settings) != calib.config_hash:
            snapshot = _config_snapshot(*settings)
            differ = [k for k in sorted(snapshot)
                      if snapshot[k] != calib.config_snapshot.get(k)]
            raise ValueError(
                f"calibration/config mismatch in "
                f"{', '.join(differ) or 'config_hash'}: refusing to test "
                "with a configuration different from the calibrated one")
        # calib's K entropy runs as one (K, N) array, so not a field
        object.__setattr__(self, "_entropy_runs", np.array(calib.entropy_runs))

    def run(self, Q_X, rng: RngStream, which: str = "both") -> tuple:
        """Verdicts of the tests ``which`` names ("disagreement", "entropy"
        or "both"), in that order, from one ensemble build on a sample of
        the calibrated size.  Disagreement: shift iff phi_Q exceeds the
        calibrated (1 - alpha) quantile of the null rates.  Entropy: shift
        iff the KS p-value of Q's ensemble entropies against pooled
        calibration entropies (one run dropped at random) falls below the
        calibrated alpha quantile."""
        if which not in ("disagreement", "entropy", "both"):
            raise ValueError(f"unknown test {which!r}")
        Q_X = np.asarray(Q_X, dtype=np.float64)
        if Q_X.shape[0] != self.calib.sample_size:
            raise ValueError("sample size must match calibration: got "
                             f"{Q_X.shape[0]}, calibrated "
                             f"{self.calib.sample_size}")
        start = time.perf_counter()
        ens = build_ensemble(self.config, self.data.train_pair(),
                             self.data.val_pair(), Q_X, self.f, self.spec, rng)
        if which != "disagreement":
            q_entropies = cdc_entropy(ens, Q_X)
        ms = (time.perf_counter() - start) * 1000.0
        context = dict(rng=rng, wall_time_ms=ms,
                       sample_size=self.calib.sample_size,
                       config_hash=self.calib.config_hash)
        verdicts = []
        if which != "entropy":
            verdicts.append(TestVerdict.against(
                self.calib.disagreement_null, "detectron_disagreement",
                ens.phi_final, **context))
        if which != "disagreement":
            drop = int(rng.integers(self.calib.K))
            pooled = np.delete(self._entropy_runs, drop, axis=0).ravel()
            verdicts.append(TestVerdict.against(
                self.calib.entropy_null, "detectron_entropy",
                ks_two_sample(q_entropies, pooled).p_value,
                dropped_run=drop, **context))
        return tuple(verdicts)


def test_both(Q_X, calib, data, config, f, spec, rng) -> tuple:
    return CalibratedTest(calib, data, config, f, spec).run(Q_X, rng)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

# a record's tuples, nested ones too, are lists in its JSON document

def _lists(value):
    return [_lists(v) for v in value] if isinstance(value, tuple) else value


def _tuples(value):
    if isinstance(value, list):
        return tuple(_tuples(v) for v in value)
    return value


def calibration_to_doc(calib: CalibrationRecord) -> dict:
    """The stored document: the format version and every field
    (schemas/calibration.schema.json)."""
    return {"format_version": CALIBRATION_FORMAT_VERSION,
            **{f.name: _lists(getattr(calib, f.name)) for f in fields(calib)}}


# slack for rounding in a computed entropy at 0 or at log C
_ENTROPY_TOL = 1e-12


def calibration_from_doc(doc: dict, num_classes: int) -> CalibrationRecord:
    """Rebuild a record from its stored document, refusing with a one-line
    ValueError a document that is not a well-formed record for a
    ``num_classes``-class model."""
    if not isinstance(doc, dict):
        raise ValueError("calibration record is not a JSON object")
    if doc.get("format_version") != CALIBRATION_FORMAT_VERSION:
        raise ValueError(
            f"unsupported calibration format {doc.get('format_version')}")
    validate_against_schema(doc, load_schema("calibration"), "calibration")
    entropies = [e for run in doc["entropy_runs"] for e in run]
    numbers = [doc["alpha"], doc["tau_disagreement"], doc["tau_entropy"],
               *doc["phi_p"], *doc["calib_p_values"], *entropies]
    if not all(math.isfinite(v) for v in numbers):
        raise ValueError("calibration record holds a non-finite number")
    if doc["K"] < 20:
        raise ValueError(f"calibration K = {doc['K']} is below 20")
    if not 0.0 < doc["alpha"] < 1.0:
        raise ValueError(
            f"calibration alpha = {doc['alpha']} is not in (0, 1)")
    if doc["sample_size"] < 1:
        raise ValueError(
            f"calibration sample_size = {doc['sample_size']} is below 1")
    log_c = math.log(num_classes)
    if not all(-_ENTROPY_TOL <= e <= log_c + _ENTROPY_TOL
               for e in entropies):
        raise ValueError(
            f"calibration entropies leave [0, log {num_classes}]")
    record = CalibrationRecord(**{f.name: _tuples(doc[f.name])
                                  for f in fields(CalibrationRecord)
                                  if f.init})
    for name in ("tau_disagreement", "tau_entropy"):
        if doc[name] != getattr(record, name):
            raise ValueError(f"calibration {name} = {doc[name]!r} is not "
                             f"its null's quantile {getattr(record, name)!r}")
    return record


def save_calibration(calib: CalibrationRecord, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(calibration_to_doc(calib), fh, sort_keys=True)


def load_calibration(path, num_classes: int) -> CalibrationRecord:
    with open(path, encoding="utf-8") as fh:
        return calibration_from_doc(json.load(fh), num_classes)


# ---------------------------------------------------------------------------
# power evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DatasetTask:
    """Task source backed by concrete datasets (e.g. the tabular
    heart-disease pair) instead of a synthetic generator.  A labelled
    source with no target serves calibration and tests, not power."""
    source: Dataset
    target: Dataset | None


@dataclass(frozen=True)
class BenchmarkTask:
    """One synthetic or tabular task: its data source and everything a
    calibration, a test or a power score needs to prepare it."""
    data_spec: ShiftTaskSpec | DatasetTask
    learner: LearnerConfig
    cdc: CdcTrainSpec = field(default_factory=CdcTrainSpec)
    K: int = 100
    fractions: tuple = (0.7, 0.1, 0.2)


def prepare_data(task: BenchmarkTask, rng: RngStream):
    """Materialize (partitioned data, target features or None): the
    source split on ``rng.split(1)``."""
    if isinstance(task.data_spec, DatasetTask):
        source, target = task.data_spec.source, task.data_spec.target
    else:
        source, target, _ = synth_generate(task.data_spec)
    try:
        data = PartitionedData(*partition(source, task.fractions,
                                          rng.split(1)))
    except ValueError as exc:
        raise ValueError(f"cannot partition source data: {exc}") from None
    return data, None if target is None else target.features


def prepare_task(task: BenchmarkTask, rng: RngStream):
    """Materialize (partitioned data, target features or None, base
    model): ``prepare_data``, then the base model fitted on
    ``rng.split(2)``."""
    data, target_X = prepare_data(task, rng)
    try:
        f = fit(task.learner, *data.train_pair(), *data.val_pair(),
                rng.split(2))
    except ValueError as exc:
        raise ValueError(f"cannot fit base model: {exc}") from None
    return data, target_X, f


def evaluate_power(task: BenchmarkTask, detector_id: str, N: int,
                   trials: int, alpha: float, rng: RngStream,
                   prepared: tuple, jobs: int = 1) -> tuple[float, float]:
    """TPR at the calibrated significance level over repeated Q draws.

    Draws `trials` independent size-N samples from the task's shifted
    target source, runs the detector on each, and reports the detection
    fraction with its binomial standard error.  ``prepared`` is the
    task's (data, target features, base model) from ``prepare_task``,
    which callers run on ``rng.split(0)``: this function leaves it unused.
    """
    if trials < 30:
        raise ValueError("trials must be >= 30 for a meaningful rate")
    if detector_id not in DETECTOR_IDS:
        raise ValueError(f"unknown detector id {detector_id!r}")

    if detector_id == "always_reject":
        return 1.0, 0.0
    if detector_id == "never_reject":
        return 0.0, 0.0

    data, target_X, f = prepared
    verdict_fn = make_detector(task, detector_id, data, f, N, alpha,
                               rng.split(3), jobs=jobs)
    hits = 0
    for t in range(trials):
        trial_rng = rng.split(1000 + t)
        idx = trial_rng.sample_without_replacement(target_X.shape[0], N)
        verdict = verdict_fn(target_X[idx], trial_rng)
        hits += bool(verdict.shift_detected)
    tpr = hits / trials
    return tpr, float(np.sqrt(tpr * (1.0 - tpr) / trials))


def make_detector(task: BenchmarkTask, detector_id: str,
                  data: PartitionedData, f: Model, N: int, alpha: float,
                  rng: RngStream, jobs: int = 1):
    """Calibrate a detector once; returns verdict_fn(Q_X, rng)."""
    if detector_id in ("detectron_disagreement", "detectron_entropy"):
        calib = calibrate(data, task.learner, f, N, task.K, task.cdc,
                          alpha, rng, jobs=jobs)
        tester = CalibratedTest(calib, data, task.learner, f, task.cdc)
        which = detector_id.removeprefix("detectron_")
        return lambda Q_X, r: tester.run(Q_X, r, which)[0]
    from . import baselines
    return baselines.make_baseline_detector(
        detector_id, task.learner, data, f, N, task.K, alpha, rng)


# ---------------------------------------------------------------------------
# runtime diagnostics (disagreement statistic psi)
# ---------------------------------------------------------------------------

def disagreement_curve(config: LearnerConfig, data: PartitionedData,
                       target_X, f: Model, budget_steps: int,
                       rng: RngStream) -> np.ndarray:
    """Cumulative disagreement rate after each optimization step.

    One model warm-starts from the base and takes a single optimization
    step (batch or boosting round) per budget tick against the samples it
    still agrees on; disagreed samples are removed and counted.  The
    curve is padded with its final value once everything is disagreed on.
    """
    target_X = np.asarray(target_X, dtype=np.float64)
    n_q = target_X.shape[0]
    if n_q == 0 or budget_steps < 1:
        raise ValueError("need a nonempty target and positive budget")
    pseudo = pseudo_label(f, target_X)
    lam = lambda_weight(n_q, 1)
    surviving = np.arange(n_q)
    g = f
    curve = np.empty(budget_steps)
    for t in range(budget_steps):
        if surviving.size > 0:
            (g,) = fit_disagreeing(
                config, [g], data.train_pair(), data.val_pair(),
                [(target_X[surviving], pseudo[surviving])], [lam], [rng],
                max_steps=1)
            preds = g.predict_labels(target_X[surviving])
            surviving = surviving[preds == pseudo[surviving]]
        curve[t] = 1.0 - surviving.size / n_q
    return curve


def disagreement_statistic_psi(runs_q, runs_p) -> tuple[np.ndarray, np.ndarray]:
    """Mean paired difference of disagreement trajectories per budget step.

    runs_q and runs_p are (runs, steps) arrays from paired executions;
    returns (psi, standard error) per step.
    """
    runs_q = np.asarray(runs_q, dtype=np.float64)
    runs_p = np.asarray(runs_p, dtype=np.float64)
    if runs_q.shape != runs_p.shape or runs_q.ndim != 2:
        raise ValueError("paired runs must share budgets "
                         f"(got {runs_q.shape} vs {runs_p.shape})")
    diff = runs_q - runs_p
    psi = diff.mean(axis=0)
    if diff.shape[0] > 1:
        se = diff.std(axis=0, ddof=1) / np.sqrt(diff.shape[0])
    else:
        se = np.zeros_like(psi)
    return psi, se
