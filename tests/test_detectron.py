import copy
import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from conftest import small_gbt_config, small_mlp_config
from shiftguard.cdc import CdcTrainSpec
from shiftguard.data import Dataset, ShiftTaskSpec, partition
from shiftguard.detectron import (
    BenchmarkTask,
    CalibratedTest,
    CalibrationRecord,
    PartitionedData,
    calibrate,
    calibration_from_doc,
    calibration_to_doc,
    config_hash,
    disagreement_curve,
    disagreement_statistic_psi,
    evaluate_power,
    load_calibration,
    make_detector,
    prepare_task,
    save_calibration,
)
from shiftguard.detectron import test_both as run_both_tests
from shiftguard.learners import fit, load_model, save_model
from shiftguard.numerics import rng_stream
from shiftguard.schemas import load_schema
from shiftguard.stats import empirical_quantile

LEARNER = small_mlp_config()
SPEC = CdcTrainSpec(max_opt_steps=5)
N = 20
K = 40


@pytest.fixture(scope="module")
def task_env():
    task = BenchmarkTask(
        data_spec=ShiftTaskSpec(generator="gauss_mean_shift", n_source=600,
                                n_target=400, seed=11),
        learner=LEARNER, cdc=SPEC, K=K)
    data, target_X, f = prepare_task(task, rng_stream(50, 0))
    calib = calibrate(data, LEARNER, f, N, K, SPEC, 0.05, rng_stream(51, 0))
    return {"task": task, "data": data, "target_X": target_X, "f": f,
            "prepared": (data, target_X, f), "calib": calib,
            "tester": CalibratedTest(calib, data, LEARNER, f, SPEC)}


def record_workers(monkeypatch) -> list:
    """Replace the process pool by an executor that records its worker
    count in the returned list and maps in this process."""
    import concurrent.futures
    started = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingExecutor)
    return started


class TestCalibrate:
    def test_thresholds_follow_quantile_convention(self, task_env):
        calib = task_env["calib"]
        assert calib.tau_disagreement == empirical_quantile(calib.phi_p, 0.95)
        assert calib.tau_entropy == empirical_quantile(
            calib.calib_p_values, 0.05)
        assert len(calib.phi_p) == K
        assert all(len(run) == N for run in calib.entropy_runs)
        assert all(0.0 <= p <= 1.0 for p in calib.phi_p)
        log2 = math.log(2.0)
        assert all(0.0 <= e <= log2 + 1e-12
                   for run in calib.entropy_runs for e in run)

    def test_byte_identical_reruns(self, task_env):
        data, f = task_env["data"], task_env["f"]
        again = calibrate(data, LEARNER, f, N, K, SPEC, 0.05, rng_stream(51, 0))
        a = json.dumps(calibration_to_doc(task_env["calib"]), sort_keys=True)
        b = json.dumps(calibration_to_doc(again), sort_keys=True)
        assert a == b

    def test_golden_digest(self, task_env):
        doc = json.dumps(calibration_to_doc(task_env["calib"]), sort_keys=True)
        assert hashlib.sha256(doc.encode()).hexdigest() == (
            "91827df9e0bd370365a54c315b77bdc523def7ae9a8765a842160806fc593b2f")

    def test_parallel_jobs_match_sequential(self, task_env):
        data, f = task_env["data"], task_env["f"]
        par = calibrate(data, LEARNER, f, N, K, SPEC, 0.05, rng_stream(51, 0),
                        jobs=2)
        assert par.phi_p == task_env["calib"].phi_p
        assert par.entropy_runs == task_env["calib"].entropy_runs

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_refused(self, task_env, jobs):
        data, f = task_env["data"], task_env["f"]
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            calibrate(data, LEARNER, f, N, K, SPEC, 0.05, rng_stream(51, 0),
                      jobs=jobs)

    @pytest.mark.parametrize("jobs, workers", [(2, 2), (5, 5), (8, 5)])
    def test_workers_capped_at_group_count(self, task_env, monkeypatch,
                                           jobs, workers):
        """K = 40 MLP runs make 5 groups of 8: no more workers start than
        there are groups."""
        started = record_workers(monkeypatch)
        data, f = task_env["data"], task_env["f"]
        par = calibrate(data, LEARNER, f, N, K, SPEC, 0.05, rng_stream(51, 0),
                        jobs=jobs)
        assert started == [workers]
        assert par == task_env["calib"]

    def test_gbt_workers_capped_at_group_count(self, task_env, monkeypatch):
        """K = 20 GBT runs make 5 groups of 4, so jobs=8 starts 5 workers;
        the groups' runs train together and keep their bytes."""
        data = task_env["data"]
        learner = small_gbt_config(num_rounds=3, max_depth=3)
        f = fit(learner, *data.train_pair(), *data.val_pair(),
                rng_stream(52, 0))
        sequential = calibrate(data, learner, f, N, 20, SPEC, 0.05,
                               rng_stream(52, 1))
        started = record_workers(monkeypatch)
        par = calibrate(data, learner, f, N, 20, SPEC, 0.05,
                        rng_stream(52, 1), jobs=8)
        assert started == [5]
        assert par == sequential

    def test_insufficient_holdout_errors(self, task_env):
        data, f = task_env["data"], task_env["f"]
        small = PartitionedData(data.train, data.val, data.holdout.take([0, 1]))
        with pytest.raises(ValueError, match="insufficient held-out"):
            calibrate(small, LEARNER, f, N, K, SPEC, 0.05, rng_stream(0, 0))

    def test_small_k_rejected(self, task_env):
        data, f = task_env["data"], task_env["f"]
        with pytest.raises(ValueError, match="K"):
            calibrate(data, LEARNER, f, N, 5, SPEC, 0.05, rng_stream(0, 0))


class TestVerdicts:
    def test_far_shift_detected_disagreement(self, task_env):
        target = task_env["target_X"]
        rng = rng_stream(52, 0)
        idx = rng.sample_without_replacement(target.shape[0], N)
        (verdict,) = task_env["tester"].run(target[idx], rng, "disagreement")
        assert verdict.shift_detected
        assert verdict.statistic > verdict.threshold
        assert verdict.test == "detectron_disagreement"
        assert verdict.config_hash == task_env["calib"].config_hash

    def test_far_shift_detected_entropy(self, task_env):
        target = task_env["target_X"]
        rng = rng_stream(52, 1)
        idx = rng.sample_without_replacement(target.shape[0], N)
        (verdict,) = task_env["tester"].run(target[idx], rng, "entropy")
        assert verdict.shift_detected
        assert verdict.statistic < verdict.threshold

    def test_entropy_identical_to_pool_is_null(self, task_env, monkeypatch):
        """The reference is every calibration run but the dropped one,
        concatenated in run order.  With the ensemble build stubbed out,
        the drop is the stream's first draw, and the candidate's entropies
        are that reference itself."""
        import shiftguard.detectron as detectron
        calib = task_env["calib"]
        drop_preview = rng_stream(53, 0).integers(calib.K)
        pooled = np.concatenate([run for i, run in
                                 enumerate(calib.entropy_runs)
                                 if i != drop_preview])
        monkeypatch.setattr(detectron, "build_ensemble",
                            lambda *args: None)
        monkeypatch.setattr(detectron, "cdc_entropy",
                            lambda ens, Q_X: pooled)
        (verdict,) = task_env["tester"].run(
            task_env["target_X"][:N], rng_stream(53, 0), "entropy")
        assert verdict.seeds["dropped_run"] == drop_preview
        assert verdict.statistic == 1.0
        assert not verdict.shift_detected

    def test_size_mismatch_errors(self, task_env):
        with pytest.raises(ValueError, match="sample size must match"):
            task_env["tester"].run(task_env["target_X"][:5], rng_stream(0, 0))

    def test_config_mismatch_refused(self, task_env):
        other_spec = CdcTrainSpec(max_opt_steps=4)
        with pytest.raises(ValueError, match="calibration/config mismatch"):
            CalibratedTest(task_env["calib"], task_env["data"], LEARNER,
                           task_env["f"], other_spec)

    def test_config_refusal_precedes_size_refusal(self, task_env):
        """test_both pairs before it looks at the sample, so a wrong-size
        sample under a changed spec is refused for the spec."""
        with pytest.raises(ValueError, match="calibration/config mismatch"):
            run_both_tests(task_env["target_X"][:5], task_env["calib"],
                           task_env["data"], LEARNER, task_env["f"],
                           CdcTrainSpec(max_opt_steps=4), rng_stream(0, 0))

    @pytest.mark.parametrize("model, spec, named", [
        ("changed", SPEC, "model_fingerprint"),
        ("same", CdcTrainSpec(max_opt_steps=4), "cdc"),
        ("changed", CdcTrainSpec(max_opt_steps=4), "cdc, model_fingerprint"),
    ], ids=["model", "spec", "both"])
    def test_config_mismatch_names_fields(self, task_env, model, spec,
                                          named):
        """The refusal names each snapshot field that differs from the
        record's."""
        f = task_env["f"]
        if model == "changed":
            f = copy.deepcopy(f)
            f.weights[0][0, 0] += 1e-9
        with pytest.raises(ValueError, match=rf"^calibration/config "
                                             rf"mismatch in {named}: "):
            CalibratedTest(task_env["calib"], task_env["data"], LEARNER, f,
                           spec)

    def test_both_matches_dedicated_ops(self, task_env):
        target = task_env["target_X"]
        idx = rng_stream(54, 0).sample_without_replacement(target.shape[0], N)
        v_dis, v_ent = run_both_tests(target[idx], task_env["calib"],
                                 task_env["data"], LEARNER, task_env["f"], SPEC,
                                 rng_stream(55, 3))
        (solo_dis,) = CalibratedTest(
            task_env["calib"], task_env["data"], LEARNER, task_env["f"],
            SPEC).run(target[idx], rng_stream(55, 3), "disagreement")
        assert v_dis.statistic == solo_dis.statistic
        assert v_dis.shift_detected == solo_dis.shift_detected
        assert v_ent.test == "detectron_entropy"

    def test_disagreement_alone_skips_entropy_and_ks(self, task_env,
                                                     monkeypatch):
        import shiftguard.detectron as detectron

        def not_asked(*args, **kwargs):
            raise AssertionError("entropy test ran unasked")

        monkeypatch.setattr(detectron, "cdc_entropy", not_asked)
        monkeypatch.setattr(detectron, "ks_two_sample", not_asked)
        (verdict,) = task_env["tester"].run(
            task_env["target_X"][:N], rng_stream(56, 0), which="disagreement")
        assert verdict.test == "detectron_disagreement"

    def test_unknown_test_name_rejected(self, task_env):
        with pytest.raises(ValueError, match="unknown test"):
            task_env["tester"].run(task_env["target_X"][:N],
                                   rng_stream(0, 0), which="ks")


def _without_wall_time(verdicts):
    """Each verdict as its JSON text, without its wall time."""
    texts = []
    for v in verdicts:
        doc = v.to_json_dict()
        del doc["wall_time_ms"]
        texts.append(json.dumps(doc, sort_keys=True))
    return texts


def _count_fingerprints(monkeypatch):
    """Count the calls of ``model_fingerprint`` made through detectron."""
    import shiftguard.detectron as detectron
    calls = []
    real = detectron.model_fingerprint

    def counted(model):
        calls.append(model)
        return real(model)

    monkeypatch.setattr(detectron, "model_fingerprint", counted)
    return calls


class TestCalibratedTest:
    def test_reuse_matches_one_pairing_per_call(self, task_env, monkeypatch):
        """One CalibratedTest over T samples gives the verdicts of T
        test_both calls and fingerprints the base model once."""
        calib, data, f = task_env["calib"], task_env["data"], task_env["f"]
        target = task_env["target_X"]
        samples = [target[rng_stream(59, t).sample_without_replacement(
            target.shape[0], N)] for t in range(3)]
        per_call = [_without_wall_time(run_both_tests(
            q, calib, data, LEARNER, f, SPEC, rng_stream(59, 100 + t)))
            for t, q in enumerate(samples)]
        calls = _count_fingerprints(monkeypatch)
        tester = CalibratedTest(calib, data, LEARNER, f, SPEC)
        reused = [_without_wall_time(tester.run(q, rng_stream(59, 100 + t)))
                  for t, q in enumerate(samples)]
        assert reused == per_call
        assert len(calls) == 1

    def test_power_trials_fingerprint_once(self, task_env, monkeypatch):
        """A detectron detector pairs its calibration once, not once per
        trial."""
        import shiftguard.detectron as detectron
        calls = _count_fingerprints(monkeypatch)
        after_calibration = []
        real_calibrate = detectron.calibrate

        def calibrate_then_mark(*args, **kwargs):
            record = real_calibrate(*args, **kwargs)
            after_calibration.append(len(calls))
            return record

        monkeypatch.setattr(detectron, "calibrate", calibrate_then_mark)
        task = dataclasses.replace(task_env["task"], K=20)
        verdict_fn = make_detector(task, "detectron_entropy",
                                   task_env["data"], task_env["f"], 10, 0.05,
                                   rng_stream(64, 0))
        target = task_env["target_X"]
        for t in range(4):
            trial_rng = rng_stream(64, 1000 + t)
            idx = trial_rng.sample_without_replacement(target.shape[0], 10)
            assert verdict_fn(target[idx], trial_rng).test == (
                "detectron_entropy")
        (calibrated_at,) = after_calibration
        assert len(calls) - calibrated_at == 1


def _set(field, value):
    def tamper(doc):
        doc[field] = value
    return tamper


def _nan_phi(doc):
    doc["phi_p"][3] = math.nan


def _entropy(value):
    def tamper(doc):
        doc["entropy_runs"][1][4] = value
    return tamper


def _ulp(field, direction):
    """Move a stored tau one float toward ``direction``."""
    def tamper(doc):
        doc[field] = math.nextafter(doc[field], direction)
    return tamper


def _drop_calib_p_value(doc):
    """K - 1 calibration p-values, with tau_entropy their own quantile."""
    del doc["calib_p_values"][-1]
    doc["tau_entropy"] = empirical_quantile(doc["calib_p_values"],
                                            doc["alpha"])


class TestPersistence:
    def test_round_trip(self, task_env, tmp_path):
        path = tmp_path / "calib.json"
        save_calibration(task_env["calib"], path)
        back = load_calibration(path, 2)
        assert back == task_env["calib"]

    def test_version_refusal(self, task_env):
        doc = calibration_to_doc(task_env["calib"])
        doc["format_version"] = 99
        with pytest.raises(ValueError, match="unsupported calibration"):
            calibration_from_doc(doc, 2)

    def test_loaded_record_still_guards_config(self, task_env, tmp_path):
        path = tmp_path / "calib.json"
        save_calibration(task_env["calib"], path)
        back = load_calibration(path, 2)
        live = config_hash(task_env["data"], LEARNER, task_env["f"], SPEC, N, K,
                           0.05)
        assert back.config_hash == live

    def test_truncated_record_refused(self, task_env, tmp_path):
        doc = calibration_to_doc(task_env["calib"])
        del doc["tau_entropy"], doc["stream_id"]
        with pytest.raises(ValueError,
                           match="missing required key 'tau_entropy'"):
            calibration_from_doc(doc, 2)
        path = tmp_path / "calib.json"
        save_calibration(task_env["calib"], path)
        text = path.read_text()
        path.write_text(text[:len(text) // 2])
        with pytest.raises(ValueError):
            load_calibration(path, 2)

    # the type cases keep ids that name the tampering; the message each
    # matches is the schema validator's
    @pytest.mark.parametrize("tamper, message", [
        (_set("K", 19), "K = 19 is below 20"),
        pytest.param(_set("K", 40.0), r"calibration\.K: expected integer, "
                     "got float", id="tamper-'K' is not a JSON int"),
        (_set("K", True), r"calibration\.K: expected integer, got bool"),
        (_set("base_seed", False),
         r"calibration\.base_seed: expected integer, got bool"),
        (_set("alpha", 1.0), r"alpha = 1.0 is not in \(0, 1\)"),
        (_set("alpha", 0.0), r"alpha = 0.0 is not in \(0, 1\)"),
        pytest.param(_set("alpha", True),
                     r"calibration\.alpha: expected number, got bool",
                     id="tamper-'alpha' is not a JSON float"),
        (_set("sample_size", 0), "sample_size = 0 is below 1"),
        pytest.param(_set("config_snapshot", []),
                     r"calibration\.config_snapshot: expected object, got "
                     "list", id="tamper-'config_snapshot' is not a JSON dict"),
        (_nan_phi, "non-finite"),
        pytest.param(_entropy("0.1"),
                     r"calibration\.entropy_runs\[1\]\[4\]: expected number, "
                     "got str", id="tamper-must hold numbers"),
        (_entropy(math.log(2.0) + 1e-6), r"leave \[0, log 2\]"),
        (_entropy(-1e-6), r"leave \[0, log 2\]"),
        *(pytest.param(_ulp(tau, way), f"{tau} = ", id=f"{tau}-one-ulp-{name}")
          for tau in ("tau_disagreement", "tau_entropy")
          for way, name in ((math.inf, "up"), (-math.inf, "down"))),
        pytest.param(_drop_calib_p_value, "arrays must have K entries",
                     id="K-1-calib-p-values"),
    ])
    def test_tampered_record_refused(self, task_env, tmp_path, tamper,
                                     message):
        doc = calibration_to_doc(task_env["calib"])
        tamper(doc)
        path = tmp_path / "calib.json"
        path.write_text(json.dumps(doc))   # NaN round-trips as a JSON NaN
        with pytest.raises(ValueError, match=message) as err:
            load_calibration(path, 2)
        assert "\n" not in str(err.value)

    def test_schema_lists_every_field(self):
        """The record's two descriptions, the dataclass and the shipped
        schema, name the same fields."""
        schema = load_schema("calibration")
        names = {f.name for f in dataclasses.fields(CalibrationRecord)}
        assert set(schema["required"]) == names | {"format_version"}
        assert set(schema["properties"]) == set(schema["required"])

    def test_entropy_bound_follows_class_count(self, task_env):
        doc = calibration_to_doc(task_env["calib"])
        _entropy(math.log(3.0))(doc)
        with pytest.raises(ValueError, match="log 2"):
            calibration_from_doc(doc, 2)
        calibration_from_doc(doc, 3)


GBT_SMALL = small_gbt_config(num_rounds=3, max_depth=3)
GBT_SMALL_SPEC = CdcTrainSpec(ensemble_max=3, max_opt_steps=3)
GBT_N = 10


def _gbt_env(num_classes):
    """Overlapping Gaussian classes, a small GBT base model and its own
    calibration; the target is the same classes moved by (3, 3)."""
    rng = rng_stream(80 + num_classes, 0)
    labels = np.arange(300) % num_classes
    X = rng.normal((300, 2))
    X[:, 0] += 2.0 * (labels == 1)
    X[:, 1] += 2.0 * (labels == 2)
    train, val, holdout = partition(Dataset(X, labels), rng=rng.split(1))
    data = PartitionedData(train, val, holdout)
    f = fit(GBT_SMALL, train.features, train.labels, val.features,
            val.labels, rng.split(2))
    calib = calibrate(data, GBT_SMALL, f, GBT_N, 20, GBT_SMALL_SPEC, 0.05,
                      rng.split(3))
    return {"data": data, "target_X": holdout.features + 3.0, "f": f,
            "calib": calib, "learner": GBT_SMALL, "spec": GBT_SMALL_SPEC}


@pytest.fixture(scope="module")
def gbt_binary_env():
    return _gbt_env(2)


@pytest.fixture(scope="module")
def gbt_three_class_env():
    return _gbt_env(3)


@pytest.fixture(scope="module")
def mlp_env(task_env):
    return dict(task_env, learner=LEARNER, spec=SPEC)


def _verdict_texts(env, f, Q_X, rng):
    tester = CalibratedTest(env["calib"], env["data"], env["learner"], f,
                            env["spec"])
    return _without_wall_time(tester.run(Q_X, rng))


class TestLoadedBaseModel:
    """A base model read back from its file tests exactly as the fitted
    one: same ensembles, same statistics, same verdict bytes."""

    @pytest.mark.parametrize("env_name", ["mlp_env", "gbt_binary_env",
                                          "gbt_three_class_env"])
    def test_round_trip_verdicts_identical(self, env_name, request,
                                           tmp_path):
        env = request.getfixturevalue(env_name)
        path = tmp_path / "base.model.json"
        save_model(env["f"], path)
        loaded = load_model(path)
        n = env["calib"].sample_size
        for i, pool in enumerate((env["data"].holdout.features,
                                  env["target_X"])):
            Q_X = pool[rng_stream(57, i).sample_without_replacement(
                pool.shape[0], n)]
            fitted = _verdict_texts(env, env["f"], Q_X, rng_stream(58, i))
            again = _verdict_texts(env, loaded, Q_X, rng_stream(58, i))
            assert again == fitted


class TestEvaluatePower:
    def test_stub_detectors(self, task_env):
        task, prepared = task_env["task"], task_env["prepared"]
        tpr, se = evaluate_power(task, "always_reject", N, 50, 0.05,
                                 rng_stream(0, 0), prepared)
        assert (tpr, se) == (1.0, 0.0)
        tpr, _ = evaluate_power(task, "never_reject", N, 50, 0.05,
                                rng_stream(0, 0), prepared)
        assert tpr == 0.0

    def test_unknown_detector(self, task_env):
        with pytest.raises(ValueError, match="unknown detector"):
            evaluate_power(task_env["task"], "psychic", N, 50, 0.05,
                           rng_stream(0, 0), task_env["prepared"])

    def test_trials_floor(self, task_env):
        with pytest.raises(ValueError, match="trials"):
            evaluate_power(task_env["task"], "always_reject", N, 5, 0.05,
                           rng_stream(0, 0), task_env["prepared"])

    def test_far_shift_power_smoke(self, task_env):
        task, rng = task_env["task"], rng_stream(60, 0)
        tpr, se = evaluate_power(task, "detectron_entropy", N, 30, 0.05,
                                 rng, prepare_task(task, rng.split(0)))
        assert tpr >= 0.8
        assert se == pytest.approx(math.sqrt(tpr * (1 - tpr) / 30))


class TestPsi:
    def test_identical_runs_zero(self):
        runs = np.random.default_rng(0).uniform(size=(6, 9))
        psi, se = disagreement_statistic_psi(runs, runs)
        np.testing.assert_array_equal(psi, np.zeros(9))

    def test_single_step_equals_mean_difference(self):
        q = np.array([[0.9], [0.8]])
        p = np.array([[0.3], [0.5]])
        psi, _ = disagreement_statistic_psi(q, p)
        assert psi[0] == pytest.approx((0.6 + 0.3) / 2)

    def test_unpaired_lengths_error(self):
        with pytest.raises(ValueError, match="share budgets"):
            disagreement_statistic_psi(np.zeros((3, 5)), np.zeros((3, 4)))

    def test_curve_monotone_and_positive_psi(self, task_env):
        data, f = task_env["data"], task_env["f"]
        target = task_env["target_X"]
        steps = 12
        curves_q, curves_p = [], []
        for t in range(4):
            rng = rng_stream(61, t)
            qi = rng.sample_without_replacement(target.shape[0], N)
            pi = rng.sample_without_replacement(len(data.holdout), N)
            curves_q.append(disagreement_curve(
                LEARNER, data, target[qi], f, steps, rng.split(1)))
            curves_p.append(disagreement_curve(
                LEARNER, data, data.holdout.features[pi], f, steps, rng.split(2)))
        for c in curves_q + curves_p:
            assert all(a <= b + 1e-12 for a, b in zip(c, c[1:]))
        psi, _ = disagreement_statistic_psi(curves_q, curves_p)
        assert psi[3:].max() > 0.2


class TestMonotonePower:
    def test_tpr_non_decreasing_in_sample_size(self, task_env):
        """Power grows (within one standard error) with N on the
        far-shift task."""
        task = task_env["task"]
        results = []
        for n in (10, 20, 50):
            rng = rng_stream(62, n)
            results.append(evaluate_power(task, "detectron_entropy", n, 50,
                                          0.05, rng,
                                          prepare_task(task, rng.split(0))))
        for (lo_tpr, lo_se), (hi_tpr, hi_se) in zip(results, results[1:]):
            slack = max(lo_se, hi_se)
            assert hi_tpr >= lo_tpr - slack, results


class TestDatasetTask:
    def test_dataset_backed_benchmark(self):
        from shiftguard.data import ShiftTaskSpec, synth_generate
        from shiftguard.detectron import DatasetTask
        spec = ShiftTaskSpec(generator="gauss_mean_shift", n_source=500,
                             n_target=300, seed=31)
        source, target, _ = synth_generate(spec)
        task = BenchmarkTask(data_spec=DatasetTask(source=source,
                                                   target=target),
                             learner=LEARNER, cdc=SPEC, K=20)
        data, target_X, f = prepare_task(task, rng_stream(95, 0))
        assert target_X.shape == target.features.shape
        rng = rng_stream(95, 1)
        tpr, _ = evaluate_power(task, "detectron_entropy", 20, 30, 0.05,
                                rng, prepare_task(task, rng.split(0)))
        assert tpr >= 0.5


class TestCalibrationQuantileProperty:
    def test_null_exceedance_bounded_by_alpha_plus_one_over_k(self, task_env):
        calib = task_env["calib"]
        frac = np.mean(np.asarray(calib.phi_p) > calib.tau_disagreement)
        assert frac <= 0.05 + 1.0 / calib.K + 1e-12


class TestEntropyVsDisagreementPower:
    def test_entropy_within_point_one_of_disagreement(self, task_env):
        """Paired desk-scale power comparison at N=20 on the far shift."""
        task, rng = task_env["task"], rng_stream(63, 0)
        prepared = prepare_task(task, rng.split(0))
        tpr_ent, _ = evaluate_power(task, "detectron_entropy", 20, 40, 0.05,
                                    rng, prepared)
        tpr_dis, _ = evaluate_power(task, "detectron_disagreement", 20, 40,
                                    0.05, rng, prepared)
        assert tpr_ent >= tpr_dis - 0.1, (tpr_ent, tpr_dis)
