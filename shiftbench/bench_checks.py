"""Output checks for the benchmark workloads.

Every check recomputes a result apart from shiftguard (sort-and-index
quantiles, scipy's exact KS and binomial tests) or tests a property the
method must have.  Checks read plain documents: ``calibration_to_doc``
output or a calibration JSON file, and ``TestVerdict.to_json_dict`` output
or a ``shiftguard test`` stdout line, so in-process and CLI workloads share
them.  Each check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

P_VALUE_TOL = 1e-9
FLOAT_TOL = 1e-12


def _rank(q: Fraction, k: int) -> int:
    """1-based rank of the lower empirical q-quantile of k values."""
    return max(1, math.ceil(q * k))


def _is_multiple_of(value: float, n: int) -> bool:
    scaled = value * n
    return abs(scaled - round(scaled)) < 1e-9


def check_calibration(doc: dict, N: int, K: int, alpha: float,
                      num_classes: int, exact_ks: bool,
                      notes: dict) -> list[str]:
    """Shape, both thresholds, phi and entropy ranges, and (when
    ``exact_ks``) every tie-free calibration p-value against scipy; how
    many p-values were compared, and the largest gap, go to ``notes``."""
    problems = []
    phi, runs, pvals = doc["phi_p"], doc["entropy_runs"], doc["calib_p_values"]
    if (doc["K"], doc["sample_size"], doc["alpha"]) != (K, N, alpha):
        problems.append(f"record K/N/alpha {doc['K']}/{doc['sample_size']}/"
                        f"{doc['alpha']} != {K}/{N}/{alpha}")
    if len(phi) != K or len(runs) != K or len(pvals) != K \
            or any(len(r) != N for r in runs):
        return problems + ["record arrays do not have K runs of N entries"]

    a = Fraction(alpha).limit_denominator(10**6)
    tau_d = sorted(phi)[_rank(1 - a, K) - 1]
    tau_e = sorted(pvals)[_rank(a, K) - 1]
    if doc["tau_disagreement"] != tau_d:
        problems.append(f"tau_disagreement {doc['tau_disagreement']!r} != "
                        f"sort-and-index {tau_d!r}")
    if doc["tau_entropy"] != tau_e:
        problems.append(f"tau_entropy {doc['tau_entropy']!r} != "
                        f"sort-and-index {tau_e!r}")
    for i, v in enumerate(phi):
        if not (0.0 <= v <= 1.0 and _is_multiple_of(v, N)):
            problems.append(f"phi_p[{i}] = {v!r} is not a multiple of 1/{N} "
                            "in [0, 1]")
    log_c = math.log(num_classes)
    for i, run in enumerate(runs):
        if not all(-FLOAT_TOL <= e <= log_c + FLOAT_TOL for e in run):
            problems.append(f"entropy run {i} leaves [0, log {num_classes}]")
    for i, p in enumerate(pvals):
        if not 0.0 <= p <= 1.0:
            problems.append(f"calib_p_values[{i}] = {p!r} not in [0, 1]")
    if exact_ks:
        problems += _check_ks_exact(runs, pvals, notes)
    return problems


def _check_ks_exact(runs, pvals, notes) -> list[str]:
    import numpy as np
    from scipy.stats import ks_2samp

    problems = []
    checked, worst = 0, 0.0
    for i, run in enumerate(runs):
        others = np.concatenate([r for j, r in enumerate(runs) if j != i])
        pooled = np.concatenate([run, others])
        if np.unique(pooled).size != pooled.size:
            continue
        checked += 1
        ref = ks_2samp(run, others, method="exact").pvalue
        worst = max(worst, abs(ref - pvals[i]))
        if abs(ref - pvals[i]) > P_VALUE_TOL:
            problems.append(f"calib_p_values[{i}] = {pvals[i]!r} but scipy "
                            f"exact KS gives {ref!r}")
    notes["ks_tie_free_runs_checked"] = f"{checked}/{len(runs)}"
    notes["ks_max_abs_diff_vs_scipy"] = worst
    if checked == 0:
        problems.append("no tie-free calibration run to compare with scipy")
    return problems


def check_verdicts(verdicts: list, calib_doc: dict, N: int) -> list[str]:
    """One test's two verdicts against the record and their own rule."""
    problems = []
    by_test = {v["test"]: v for v in verdicts}
    if sorted(by_test) != ["detectron_disagreement", "detectron_entropy"]:
        return [f"expected both verdicts, got {sorted(by_test)}"]
    for v in verdicts:
        if (v["sample_size"] != N
                or v["config_hash"] != calib_doc["config_hash"]):
            problems.append(f"{v['test']}: sample size or config hash differs "
                            "from the record")
    dis = by_test["detectron_disagreement"]
    if dis["threshold"] != calib_doc["tau_disagreement"]:
        problems.append("disagreement threshold differs from the record")
    if not (0.0 <= dis["statistic"] <= 1.0
            and _is_multiple_of(dis["statistic"], N)):
        problems.append(f"phi_Q = {dis['statistic']!r} is not a multiple of "
                        f"1/{N} in [0, 1]")
    if dis["shift_detected"] != (dis["statistic"] > dis["threshold"]):
        problems.append("disagreement verdict disagrees with phi_Q > tau")
    ent = by_test["detectron_entropy"]
    if ent["threshold"] != calib_doc["tau_entropy"]:
        problems.append("entropy threshold differs from the record")
    if not 0.0 <= ent["statistic"] <= 1.0:
        problems.append(f"entropy p-value {ent['statistic']!r} not in [0, 1]")
    if ent["shift_detected"] != (ent["statistic"] < ent["threshold"]):
        problems.append("entropy verdict disagrees with p < tau")
    return problems


def binomial_greater_p(hits: int, trials: int, p: float) -> float:
    """One-sided P(X >= hits) for X ~ Bin(trials, p)."""
    from scipy.stats import binomtest
    return float(binomtest(hits, trials, p, alternative="greater").pvalue)


def calibration_digest(doc: dict) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()


def without_time(verdicts: list) -> list:
    """Verdicts without ``wall_time_ms``, the one field that is a
    measurement rather than a result."""
    return [{k: v for k, v in d.items() if k != "wall_time_ms"}
            for d in verdicts]


def verdict_digest(verdicts: list) -> str:
    h = hashlib.sha256()
    for v in without_time(verdicts):
        h.update((json.dumps(v, sort_keys=True) + "\n").encode())
    return h.hexdigest()
