"""Acceptance gate: one test per shipped criterion.

Each test prints a PASS line (bypassing capture) so a full run reads as a
checklist.  Tolerances are pinned here and nowhere else.  The tabular
reproduction criterion needs the four raw heart-disease database files;
it skips with an explicit reason when they are absent (no network in the
build environment) and runs the full protocol when pointed at the data
via SHIFTGUARD_UCI_DIR or ./data/uci.
"""

import itertools
import math
import os
import sys
import time

import numpy as np
import pytest

from conftest import small_gbt_config, small_mlp_config
from oracles import (
    DisagreementTarget,
    beta_mc_prob_q_gt_p,
    cross_entropy,
    disagreement_cross_entropy,
    enumerate_binom_sf,
    enumerate_ks_pvalue,
    mc_disagreement_oracle,
)
from shiftguard.cdc import CdcTrainSpec, build_ensemble
from shiftguard.data import ShiftTaskSpec, partition, synth_generate, uci_prepare
from shiftguard.detectron import (
    BenchmarkTask,
    CalibratedTest,
    PartitionedData,
    calibrate,
    calibration_to_doc,
    disagreement_curve,
    disagreement_statistic_psi,
    evaluate_power,
    make_detector,
    prepare_task,
)
from shiftguard.learners import LearnerConfig, GbtConfig, fit
from shiftguard.losses import logit_grads, replicate_for_disagreement
from shiftguard.detectron import test_both as run_both_tests
from shiftguard.numerics import rng_stream
from shiftguard.stats import (
    PosteriorInputs,
    binomial_pvalue,
    disagreement_bound_pstar,
    ks_two_sample,
    posterior_prob_shift,
)


def note(msg: str) -> None:
    sys.__stderr__.write(f"{msg}\n")
    sys.__stderr__.flush()


# -- shipped benchmark configurations (fixed seeds: the certificates below
#    are statements about these exact configurations) ------------------------

NULL_TASK = BenchmarkTask(
    data_spec=ShiftTaskSpec(generator="null_resample", n_source=900,
                            n_target=2000, seed=11),
    learner=None, cdc=CdcTrainSpec(max_opt_steps=5), K=100)

GAUSS_TASK = BenchmarkTask(
    data_spec=ShiftTaskSpec(generator="gauss_mean_shift", n_source=900,
                            n_target=2000, seed=13),
    learner=small_mlp_config(), cdc=CdcTrainSpec(max_opt_steps=5), K=100)


def test_criterion_1_disagreement_bound_dominance():
    """Monte-Carlo P(X>Y) never exceeds p*(n); equality at p = 1/2."""
    start = time.time()
    assert disagreement_bound_pstar(1) == pytest.approx(0.25, abs=1e-15)
    assert disagreement_bound_pstar(2) == pytest.approx(0.3125, abs=1e-15)
    trials = 1_000_000
    for n in (1, 2, 5, 10, 20):
        bound = disagreement_bound_pstar(n)
        for pi, p in enumerate(np.round(np.arange(0.1, 0.95, 0.1), 10)):
            est, se = mc_disagreement_oracle(
                n, float(p), trials, rng_stream(1100 + n, pi))
            assert est <= bound + 3 * se, (n, p, est, bound)
            if p == 0.5:
                assert abs(est - bound) <= 3 * se, (n, est, bound)
    elapsed = time.time() - start
    assert elapsed < 60, f"criterion 1 exceeded 1 minute ({elapsed:.0f}s)"
    note(f"ACCEPTANCE 1 PASS: Monte-Carlo dominance of p*(n) over 45 "
         f"(n, p) cells, equality at p=0.5 ({elapsed:.0f}s)")


def test_criterion_2_posterior_matches_beta_monte_carlo():
    """Closed-form posterior equals the Beta order-statistics oracle."""
    start = time.time()
    for n, N in [(0, 1), (2, 4), (7, 14), (25, 50)]:
        v = posterior_prob_shift(PosteriorInputs(n, N, n, N))
        assert v == pytest.approx(0.5, abs=1e-9)
    assert posterior_prob_shift(PosteriorInputs(0, 1, 1, 1)) == pytest.approx(
        5.0 / 6.0, abs=1e-9)

    pairs = 1_000_000
    sizes = (2, 5, 17, 50)
    fracs = (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0)
    counts = {s: sorted({int(round(f * s)) for f in fracs}) for s in sizes}
    # independent draw pools for the reference (p) and candidate (q) side
    draws = {"p": {}, "q": {}}
    for side_idx, side in enumerate(("p", "q")):
        for s in sizes:
            for ci, c in enumerate(counts[s]):
                rng = rng_stream(7000 + 1000 * side_idx + s, ci)
                draws[side][(s, c)] = _beta_draws(c, s, pairs, rng)
    checked = 0
    for N, M in itertools.product(sizes, sizes):
        for n, m in itertools.product(counts[N], counts[M]):
            closed = posterior_prob_shift(PosteriorInputs(n, N, m, M))
            mc = float(np.mean(draws["q"][(M, m)] > draws["p"][(N, n)]))
            assert abs(closed - mc) < 0.005, (n, N, m, M, closed, mc)
            checked += 1
    elapsed = time.time() - start
    assert elapsed < 120, f"criterion 2 exceeded 2 minutes ({elapsed:.0f}s)"
    note(f"ACCEPTANCE 2 PASS: closed-form posterior within 0.005 of the "
         f"Beta Monte-Carlo oracle on {checked} grid cells ({elapsed:.0f}s)")


def _beta_draws(k: int, size: int, pairs: int, rng, chunk=200_000):
    """pairs draws of Beta(k+1, size-k+1) via sorted-uniform order stats."""
    out = np.empty(pairs)
    done = 0
    while done < pairs:
        c = min(chunk, pairs - done)
        u = np.sort(rng.uniform((c, size + 1)), axis=1)
        out[done:done + c] = u[:, k]
        done += c
    return out


def test_criterion_3_dce_correctness():
    """Gradients, constrained region minima, and replication identity.

    The gradient under test is ``losses.logit_grads``, which the MLP
    learner trains on, for a one-row disagree batch at lam = 1; finite
    differences come from the per-sample DCE oracle.  The minima are
    found by descent on that gradient."""
    rng = np.random.default_rng(0)
    cases = 0
    for n in (2, 3, 5, 10):
        for _ in range(250):
            logits = rng.normal(size=n) * 3.0
            t = int(rng.integers(n))
            target = DisagreementTarget(t, n)
            grad = logit_grads(logits[None, :], np.array([t]),
                               np.array([True]))[0]
            fd = np.empty(n)
            h = 1e-5
            for i in range(n):
                lp, lm = logits.copy(), logits.copy()
                lp[i] += h
                lm[i] -= h
                fd[i] = (disagreement_cross_entropy(lp, target)[0]
                         - disagreement_cross_entropy(lm, target)[0]) / (2 * h)
            assert np.abs(grad - fd).max() < 1e-6
            # replication identity at 1e-12
            _, labels, weights = replicate_for_disagreement(
                np.zeros((1, 1)), [t], n)
            total = sum(w * cross_entropy(logits, c)[0]
                        for c, w in zip(labels, weights))
            dce, _ = disagreement_cross_entropy(logits, target)
            assert abs(total - dce) < 1e-12
            cases += 1
    assert cases == 1000

    for n in (2, 3, 5, 10):
        t = 0
        lo_q = _constrained_minimum(n, t, region="not_target")
        lo_p = _constrained_minimum(n, t, region="target")
        assert abs(lo_q - math.log(n - 1)) < 1e-3, (n, lo_q)
        assert abs(lo_p - math.log(n)) < 1e-3, (n, lo_p)
    note("ACCEPTANCE 3 PASS: DCE gradients (1000 cases, 1e-6), region "
         "minima log(N-1)/log(N) within 1e-3, replication exact to 1e-12")


def _constrained_minimum(n, t, region, iters=8000, lr=0.5):
    """Projected gradient descent on DCE over logits, constrained to the
    region where the argmax is (or is not) uniquely the target."""
    best = math.inf
    others = [i for i in range(n) if i != t]
    target, disagree = np.array([t]), np.array([True])
    rng = np.random.default_rng(n)
    for _ in range(3):
        z = rng.normal(size=n)
        for _ in range(iters):
            grad = logit_grads(z[None, :], target, disagree)[0]
            z = z - lr * grad
            m = max(z[i] for i in others)
            if region == "not_target":
                z[t] = min(z[t], m)       # argmax not uniquely t
            else:
                z[t] = max(z[t], m)       # closure of argmax == t
        loss, _ = disagreement_cross_entropy(z, DisagreementTarget(t, n))
        best = min(best, loss)
    return best


def test_criterion_4_exact_test_fidelity():
    """KS exact p-values equal full enumeration; binomial equals direct
    summation."""
    rng = np.random.default_rng(4)
    checked = 0
    for n in range(1, 8):
        for m in range(1, 9 - n):
            for tie in (False, True):
                xs = rng.normal(size=n)
                ys = rng.normal(size=m) + rng.uniform(-1, 1)
                if tie and n >= 2:
                    xs[1] = xs[0]
                if tie and m >= 1:
                    ys[0] = xs[0]
                res = ks_two_sample(xs, ys)
                assert res.method == "exact"
                assert res.p_value == pytest.approx(
                    enumerate_ks_pvalue(xs, ys), abs=1e-10)
                checked += 1
    for n in range(1, 31):
        for p0 in (0.2, 0.5, 0.77):
            for x in range(n + 1):
                assert binomial_pvalue(x, n, p0) == pytest.approx(
                    enumerate_binom_sf(x, n, p0), abs=1e-12)
    note(f"ACCEPTANCE 4 PASS: exact KS equals enumeration on {checked} "
         "tied/untied cases (n+m <= 8); binomial tails exact to 1e-12 "
         "for all n <= 30")


@pytest.mark.parametrize("learner_name", ["mlp", "gbt"])
def test_criterion_5_null_calibration_soundness(learner_name):
    """With K=100, alpha=0.05, both tests detect in [2, 22] of 200 null
    trials at N=20."""
    start = time.time()
    config = (small_mlp_config() if learner_name == "mlp"
              else small_gbt_config())
    task = BenchmarkTask(data_spec=NULL_TASK.data_spec, learner=config,
                         cdc=NULL_TASK.cdc, K=100)
    data, target_X, f = prepare_task(task, rng_stream(50, 0))
    calib = calibrate(data, config, f, 20, 100, task.cdc, 0.05,
                      rng_stream(51, 0))
    hits_dis = hits_ent = 0
    for t in range(200):
        rng = rng_stream(52, t)
        idx = rng.sample_without_replacement(target_X.shape[0], 20)
        vd, ve = run_both_tests(target_X[idx], calib, data, config, f, task.cdc,
                           rng)
        hits_dis += vd.shift_detected
        hits_ent += ve.shift_detected
    elapsed = time.time() - start
    assert 2 <= hits_dis <= 22, f"disagreement null rate {hits_dis}/200"
    assert 2 <= hits_ent <= 22, f"entropy null rate {hits_ent}/200"
    note(f"ACCEPTANCE 5 PASS ({learner_name}): null detections "
         f"disagreement {hits_dis}/200, entropy {hits_ent}/200, both in "
         f"[2, 22] ({elapsed:.0f}s)")


def test_criterion_6_synthetic_power():
    """On the certified-harmful mean-shift task: entropy TPR@5 >= 0.8 at
    N=50 and >= CTST's TPR@5 at N=10."""
    start = time.time()
    task = GAUSS_TASK
    root = rng_stream(60, 1)

    # harmfulness certificate for the shipped configuration, on the
    # preparation every power score below shares
    prepared = prepare_task(task, root.split(0))
    data, _, f = prepared
    source_acc = float(np.mean(
        f.predict_labels(data.holdout.features) == data.holdout.labels))
    _, labeled_target, _ = synth_generate(task.data_spec, reveal_labels=True)
    target_acc = float(np.mean(
        f.predict_labels(labeled_target.features) == labeled_target.labels))
    drop = source_acc - target_acc
    assert drop >= 0.2, f"shipped task not harmful enough: drop {drop:.3f}"

    tpr_50, _ = evaluate_power(task, "detectron_entropy", 50, 100, 0.05,
                               root, prepared)
    assert tpr_50 >= 0.8, f"entropy TPR at N=50 is {tpr_50:.2f}"

    tpr_ent_10, _ = evaluate_power(task, "detectron_entropy", 10, 100, 0.05,
                                   root, prepared)
    tpr_ctst_10, _ = evaluate_power(task, "ctst", 10, 100, 0.05,
                                    root, prepared)
    assert tpr_ent_10 >= tpr_ctst_10, (tpr_ent_10, tpr_ctst_10)
    elapsed = time.time() - start
    note(f"ACCEPTANCE 6 PASS: base-accuracy drop {drop:.2f}; entropy "
         f"TPR@5 N=50 {tpr_50:.2f} >= 0.8; N=10 entropy {tpr_ent_10:.2f} "
         f">= CTST {tpr_ctst_10:.2f} ({elapsed:.0f}s)")


def _uci_dir():
    candidates = [os.environ.get("SHIFTGUARD_UCI_DIR"),
                  os.path.join(os.path.dirname(__file__), "..", "data", "uci")]
    for cand in candidates:
        if cand and os.path.isdir(cand):
            return cand
    return None


UCI_GBT = LearnerConfig(
    kind="gbt",
    gbt=GbtConfig(eta=0.1, max_depth=6, num_rounds=10, subsample=0.8,
                  colsample=0.8, min_child_weight=1.0),
    val_metric="auc")


def test_criterion_7_uci_tabular_reproduction():
    """Heart-disease pipeline, GBT learners: entropy TPR@5 >= 0.85 at
    N=50 and >= 0.30 at N=10 over 100 trials."""
    raw_dir = _uci_dir()
    if raw_dir is None:
        pytest.skip(
            "UCI heart-disease raw files unavailable: the build "
            "environment has no network access and the four "
            "processed.*.data files are not vendored. Set "
            "SHIFTGUARD_UCI_DIR (or create data/uci/) to run the full "
            "tabular reproduction.")
    start = time.time()
    source, target = uci_prepare(raw_dir)
    train, val, holdout = partition(source, (0.6, 0.2, 0.2),
                                    rng_stream(70, 0))
    data = PartitionedData(train, val, holdout)
    f = fit(UCI_GBT, train.features, train.labels, val.features, val.labels,
            rng_stream(70, 1))
    spec = CdcTrainSpec(max_opt_steps=5)
    results = {}
    for n_q, floor in ((50, 0.85), (10, 0.30)):
        calib = calibrate(data, UCI_GBT, f, n_q, 100, spec, 0.05,
                          rng_stream(71, n_q))
        tester = CalibratedTest(calib, data, UCI_GBT, f, spec)
        hits = 0
        for t in range(100):
            rng = rng_stream(72, 1000 * n_q + t)
            idx = rng.sample_without_replacement(len(target), n_q)
            (v,) = tester.run(target.features[idx], rng, "entropy")
            hits += v.shift_detected
        tpr = hits / 100.0
        results[n_q] = tpr
        assert tpr >= floor, f"UCI entropy TPR at N={n_q}: {tpr:.2f} < {floor}"
    note(f"ACCEPTANCE 7 PASS: UCI entropy TPR@5 N=50 {results[50]:.2f} "
         f">= 0.85, N=10 {results[10]:.2f} >= 0.30 "
         f"({time.time() - start:.0f}s)")


def test_criterion_8_disagreement_trends():
    """phi_Q dominates phi_P at every ensemble size (sign test), and the
    runtime statistic psi is positive pre-saturation, vanishing at
    saturation."""
    start = time.time()
    config = small_gbt_config()
    task = BenchmarkTask(data_spec=GAUSS_TASK.data_spec, learner=config,
                         cdc=CdcTrainSpec(max_opt_steps=5), K=100)
    data, target_X, f = prepare_task(task, rng_stream(80, 0))

    runs = 100
    phi_q = np.empty((runs, 5))
    phi_p = np.empty((runs, 5))
    for r in range(runs):
        rng = rng_stream(81, r)
        qi = rng.sample_without_replacement(target_X.shape[0], 50)
        pi = rng.sample_without_replacement(len(data.holdout), 50)
        ens_q = build_ensemble(config, data.train_pair(), data.val_pair(),
                               target_X[qi], f, task.cdc, rng.split(1))
        ens_p = build_ensemble(config, data.train_pair(), data.val_pair(),
                               data.holdout.features[pi], f, task.cdc,
                               rng.split(2))
        # phi freezes once an ensemble stops short of five members
        for s in range(1, 6):
            for phi, ens in ((phi_q, ens_q), (phi_p, ens_p)):
                rounds = ens.per_round_phi
                phi[r, s - 1] = rounds[min(s, len(rounds)) - 1]
    for s in range(5):
        wins = int(np.sum(phi_q[:, s] > phi_p[:, s]))
        losses = int(np.sum(phi_q[:, s] < phi_p[:, s]))
        assert phi_q[:, s].mean() > phi_p[:, s].mean(), f"size {s + 1}"
        p_sign = binomial_pvalue(wins, wins + losses, 0.5)
        assert p_sign < 0.01, f"size {s + 1}: sign test p {p_sign:.4f}"
    gap = phi_q[:, 4].mean() - phi_p[:, 4].mean()
    assert gap >= 0.2, f"mean phi gap at full ensemble {gap:.3f}"

    # runtime statistic: paired budget curves
    budget, curve_runs = 40, 20
    curves_q, curves_p = [], []
    for r in range(curve_runs):
        rng = rng_stream(82, r)
        qi = rng.sample_without_replacement(target_X.shape[0], 50)
        pi = rng.sample_without_replacement(len(data.holdout), 50)
        curves_q.append(disagreement_curve(config, data, target_X[qi], f,
                                           budget, rng.split(1)))
        curves_p.append(disagreement_curve(config, data,
                                           data.holdout.features[pi], f,
                                           budget, rng.split(2)))
    psi, _ = disagreement_statistic_psi(curves_q, curves_p)
    phi_p_final = float(np.mean([c[-1] for c in curves_p]))
    assert psi[:10].max() > 0.2, "no positive pre-saturation psi"
    assert phi_p_final > 0.9, "null curves never saturated"
    assert abs(psi[-1]) < 0.1, f"psi did not vanish at saturation: {psi[-1]}"
    note(f"ACCEPTANCE 8 PASS: phi_Q > phi_P at every ensemble size "
         f"(100 paired runs, sign test p < 0.01); psi peaks at "
         f"{psi.max():.2f} then decays to {psi[-1]:.3f} at saturation "
         f"({time.time() - start:.0f}s)")


def test_criterion_9_byte_reproducibility():
    """Representative pipelines re-run byte-identically under fixed seeds."""
    import json

    # data generation + partition
    spec = ShiftTaskSpec(generator="boundary_rotation", n_source=300,
                         n_target=200, seed=9)
    fp_a = [d.fingerprint for d in synth_generate(spec)[:2]]
    fp_b = [d.fingerprint for d in synth_generate(spec)[:2]]
    assert fp_a == fp_b

    # oracles
    a = mc_disagreement_oracle(5, 0.3, 50_000, rng_stream(1, 2))
    b = mc_disagreement_oracle(5, 0.3, 50_000, rng_stream(1, 2))
    assert a == b
    ba = beta_mc_prob_q_gt_p(1, 3, 2, 3, 50_000, rng_stream(3, 4))
    bb = beta_mc_prob_q_gt_p(1, 3, 2, 3, 50_000, rng_stream(3, 4))
    assert ba == bb

    # calibration record bytes
    config = small_mlp_config()
    task = BenchmarkTask(data_spec=NULL_TASK.data_spec, learner=config,
                         cdc=NULL_TASK.cdc, K=20)
    data, target_X, f = prepare_task(task, rng_stream(90, 0))
    doc_a = json.dumps(calibration_to_doc(
        calibrate(data, config, f, 20, 20, task.cdc, 0.05,
                  rng_stream(91, 0))), sort_keys=True)
    doc_b = json.dumps(calibration_to_doc(
        calibrate(data, config, f, 20, 20, task.cdc, 0.05,
                  rng_stream(91, 0))), sort_keys=True)
    assert doc_a.encode() == doc_b.encode()

    # verdict statistics across independent re-runs
    rng_q = rng_stream(92, 0)
    idx = rng_q.sample_without_replacement(target_X.shape[0], 20)
    calib = calibrate(data, config, f, 20, 20, task.cdc, 0.05,
                      rng_stream(91, 0))
    va = run_both_tests(target_X[idx], calib, data, config, f, task.cdc,
                   rng_stream(93, 0))
    vb = run_both_tests(target_X[idx], calib, data, config, f, task.cdc,
                   rng_stream(93, 0))
    assert [v.statistic for v in va] == [v.statistic for v in vb]
    note("ACCEPTANCE 9 PASS: generators, oracles, calibration records, "
         "and verdicts byte-identical across re-runs under fixed seeds")
