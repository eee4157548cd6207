"""Golden values: stored digests that a refactor must reproduce byte for
byte.  Run-against-run checks inside one process cannot see a change that
moves every verdict the same way; these can."""

import hashlib
import json
import os

import numpy as np
import pytest

from conftest import small_gbt_config, small_mlp_config
from shiftguard.cdc import CdcTrainSpec
from shiftguard.cli import load_run_config, main, task_from_config
from shiftguard.data import Dataset, partition
from shiftguard.detectron import (
    PartitionedData,
    calibrate,
    calibration_to_doc,
    make_detector,
    prepare_task,
)
from shiftguard.learners import fit
from shiftguard.numerics import RngStream, rng_stream

SMOKE_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                         "smoke.cfg")

GBT = small_gbt_config(num_rounds=3, max_depth=3)
GBT_SPEC = CdcTrainSpec(ensemble_max=3, max_opt_steps=3)
GBT_N = 10
GBT_K = 20
GBT_CALIBRATION_SHA256 = (
    "3440b55959a2cc9b880aa203795dd1343b6d64ce4eb63603a7aede4d47b580dc")

# depth 6 and 10 rounds: trees reach the deep levels the 3-round golden
# above never grows, and every CDC may take five boosting rounds.  Two
# classes, so every round grows class 1's tree and mirrors it for class 0
GBT_DEEP = small_gbt_config()
GBT_DEEP_SPEC = CdcTrainSpec(max_opt_steps=5)
GBT_DEEP_CALIBRATION_SHA256 = (
    "54dace99395252f10575287fc11309bda3b318c3e64cf3cff050f253bba6f11d")

# the deep golden's data and base model at K = 21: GBT runs are built in
# groups of 4, the last of them a single run, whose members train
# together whatever their survivor counts; the digest was computed with
# every run built alone
GBT_DEEP_K21_CALIBRATION_SHA256 = (
    "cad0f8081c80fea89ac300d6b793e34c3209f5739e98e43dea273c2e6b40423e")

# colsample 0.6 on 5 features keeps 3: every tree of every class draws
# its own column subset, which no golden above does
GBT_COLS = small_gbt_config(num_rounds=3, max_depth=3, colsample=0.6)
GBT_COLS_CALIBRATION_SHA256 = (
    "8adbd8604bea1df7119e04061fde451ccf2eb6f6a2eb226fc9aa8e0e10b65401")

# l2 and dropout on; batch 8 <= N, so a CDC batch holds one P row while
# Q is whole; 210 training rows leave a short last batch in every epoch
MLP3 = small_mlp_config(hidden_sizes=(8, 8), batch_size=8, l2=1e-3,
                        max_epochs=20, patience=5)
MLP3_SPEC = CdcTrainSpec(ensemble_max=3, max_opt_steps=40)
MLP3_CALIBRATION_SHA256 = (
    "ea420e1b08dd8f49759aff39c811a8d18ea2784d394117e420cc32c6227d1370")


# two overlapping classes, dropout on: K = 21 MLP runs are built in
# lockstep groups of 8, 8 and 5, and the record must be the one a run at
# a time gives
MLP_K21 = small_mlp_config()
MLP_K21_SPEC = CdcTrainSpec(max_opt_steps=5)
MLP_K21_CALIBRATION_SHA256 = (
    "c1e471c0c8a32fc02a7abac84cc8490b31c71e7cfb1b5b3e3a682919f103c8f2")


def calibration_sha256(record) -> str:
    doc = json.dumps(calibration_to_doc(record), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def three_class_data():
    """Three overlapping Gaussian classes and the stream they came from."""
    rng = rng_stream(70, 0)
    labels = np.arange(300) % 3
    X = rng.normal((300, 2))
    X[:, 0] += 2.0 * (labels == 1)
    X[:, 1] += 2.0 * (labels == 2)
    train, val, holdout = partition(Dataset(X, labels), rng=rng.split(1))
    return PartitionedData(train, val, holdout), rng


@pytest.fixture(scope="module")
def gbt_env():
    """Three classes, so every CDC replicates each target row into two
    labelled copies."""
    data, rng = three_class_data()
    f = fit(GBT, data.train.features, data.train.labels, data.val.features,
            data.val.labels, rng.split(2))
    calib = calibrate(data, GBT, f, GBT_N, GBT_K, GBT_SPEC, 0.05,
                      rng.split(3))
    return {"data": data, "f": f, "calib": calib, "rng": rng}


def test_gbt_calibration_digest(gbt_env):
    assert calibration_sha256(gbt_env["calib"]) == GBT_CALIBRATION_SHA256


def test_gbt_parallel_jobs_match_sequential(gbt_env):
    par = calibrate(gbt_env["data"], GBT, gbt_env["f"], GBT_N, GBT_K,
                    GBT_SPEC, 0.05, gbt_env["rng"].split(3), jobs=2)
    assert par.phi_p == gbt_env["calib"].phi_p
    assert par.entropy_runs == gbt_env["calib"].entropy_runs


def test_three_class_mlp_calibration_digest():
    """The DCE's 1/(C-1) terms, the l2 term and one-P-row batches all
    reach the record."""
    data, rng = three_class_data()
    assert len(data.train) % MLP3.mlp.batch_size != 0
    f = fit(MLP3, data.train.features, data.train.labels,
            data.val.features, data.val.labels, rng.split(4))
    calib = calibrate(data, MLP3, f, GBT_N, GBT_K, MLP3_SPEC, 0.05,
                      rng.split(5))
    assert calibration_sha256(calib) == MLP3_CALIBRATION_SHA256


def test_binary_mlp_k21_calibration_digest():
    rng = rng_stream(73, 0)
    labels = np.arange(300) % 2
    X = rng.normal((300, 2))
    X[:, 0] += 1.5 * labels
    train, val, holdout = partition(Dataset(X, labels), rng=rng.split(1))
    f = fit(MLP_K21, train.features, train.labels, val.features,
            val.labels, rng.split(2))
    calib = calibrate(PartitionedData(train, val, holdout), MLP_K21, f,
                      GBT_N, 21, MLP_K21_SPEC, 0.05, rng.split(3))
    assert calibration_sha256(calib) == MLP_K21_CALIBRATION_SHA256


@pytest.fixture(scope="module")
def deep_binary_env():
    """Two overlapping Gaussian classes plus an integer-valued feature, so
    split searches meet heavily tied values at every depth."""
    rng = rng_stream(71, 0)
    labels = np.arange(300) % 2
    X = rng.normal((300, 3))
    X[:, 0] += 1.5 * labels
    X[:, 2] = np.round(2.0 * X[:, 2])
    train, val, holdout = partition(Dataset(X, labels), rng=rng.split(1))
    data = PartitionedData(train, val, holdout)
    f = fit(GBT_DEEP, train.features, train.labels, val.features,
            val.labels, rng.split(2))
    calib = calibrate(data, GBT_DEEP, f, GBT_N, GBT_K, GBT_DEEP_SPEC, 0.05,
                      rng.split(3))
    return {"data": data, "f": f, "calib": calib, "rng": rng}


def test_deep_binary_gbt_calibration_digest(deep_binary_env):
    assert (calibration_sha256(deep_binary_env["calib"])
            == GBT_DEEP_CALIBRATION_SHA256)


def test_deep_binary_gbt_parallel_jobs_match_sequential(deep_binary_env):
    """The process pool pickles the base model, mirrored rounds and all."""
    env = deep_binary_env
    par = calibrate(env["data"], GBT_DEEP, env["f"], GBT_N, GBT_K,
                    GBT_DEEP_SPEC, 0.05, env["rng"].split(3), jobs=2)
    assert calibration_sha256(par) == GBT_DEEP_CALIBRATION_SHA256


def test_deep_binary_gbt_k21_calibration_digest(deep_binary_env):
    env = deep_binary_env
    calib = calibrate(env["data"], GBT_DEEP, env["f"], GBT_N, 21,
                      GBT_DEEP_SPEC, 0.05, env["rng"].split(4))
    assert len(set(calib.phi_p)) > 1     # survivor counts differ
    assert calibration_sha256(calib) == GBT_DEEP_K21_CALIBRATION_SHA256


def test_colsample_gbt_calibration_digest():
    """Three classes on five features, one of them integer-valued, with a
    column subset drawn per class per round."""
    rng = rng_stream(72, 0)
    labels = np.arange(300) % 3
    X = rng.normal((300, 5))
    X[:, 0] += 1.5 * (labels == 1)
    X[:, 3] += 1.5 * (labels == 2)
    X[:, 4] = np.round(2.0 * X[:, 4] + labels)
    train, val, holdout = partition(Dataset(X, labels), rng=rng.split(1))
    f = fit(GBT_COLS, train.features, train.labels, val.features,
            val.labels, rng.split(2))
    calib = calibrate(PartitionedData(train, val, holdout), GBT_COLS, f,
                      GBT_N, GBT_K, GBT_SPEC, 0.05, rng.split(3))
    assert calibration_sha256(calib) == GBT_COLS_CALIBRATION_SHA256


def test_smoke_profile_config_hash(tmp_path, capsys, monkeypatch):
    """The calibration file name the README shows for configs/smoke.cfg."""
    monkeypatch.setenv("SHIFTGUARD_CACHE", str(tmp_path))
    assert main(["calibrate", SMOKE_CFG, "--seed", "5"]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["config_hash"][:16] == "fee371115b4db3d7"
    assert (tmp_path / "calibration_fee371115b4db3d7_5.json").exists()


# the verdicts each calibrated detector gives on ten target draws of the
# smoke profile's task (MLP, K=20, N=20, seed 5), on the streams
# evaluate_power hands it; wall_time_ms is left out of the digest
VERDICT_DRAWS = 10
VERDICT_SHA256 = {
    "detectron_disagreement":
        "209ffa1d773fd583024777543f3a91804cae6224e56f8de7efc16a38381cd16c",
    "detectron_entropy":
        "949b5d92daab76d40245afe109e22b3ec98c428cf70226b5c828a96bd46542a1",
    "ensemble_disagreement":
        "67a218c89e81014b00d0573d99c876bc247ff769cc743cb11db4d1b87fc9af77",
    "ensemble_entropy":
        "b75537ef01bce2da99cc8cd6581bf9a136a1b8e5463a1e48c0efa424f6f6b7af",
    "bbsd":
        "ae03ed0b7201fd84541a1c86368cb6552dd37b2bc694ff03b0bda83477da234c",
    "ctst":
        "db12f899389cb6ca32b7d0e6a456909ca2261b4405759a737a22dc24d9b0006d",
}


@pytest.fixture(scope="module")
def smoke_task():
    task = task_from_config(load_run_config(SMOKE_CFG), 5)
    rng = RngStream(5, 0).split(5)
    return (task, rng, *prepare_task(task, rng.split(0)))


@pytest.mark.parametrize("detector", list(VERDICT_SHA256))
def test_verdict_stream_digest(smoke_task, detector):
    task, rng, data, target_X, f = smoke_task
    verdict_fn = make_detector(task, detector, data, f, 20, 0.05,
                               rng.split(3))
    digest = hashlib.sha256()
    for t in range(VERDICT_DRAWS):
        trial_rng = rng.split(1000 + t)
        idx = trial_rng.sample_without_replacement(target_X.shape[0], 20)
        doc = verdict_fn(target_X[idx], trial_rng).to_json_dict()
        del doc["wall_time_ms"]
        digest.update(json.dumps(doc, sort_keys=True).encode())
    assert digest.hexdigest() == VERDICT_SHA256[detector]
