"""Operator-facing command line: calibrate, test, benchmark, report.

Runs are driven by a sectioned key=value config file (INI grammar, see
docs/config.md); every parameter either comes from the file or from a
documented default, and a canonical serialization of the effective
config keys all caches and result files.  Machine-readable output is
line-delimited JSON on stdout; human-readable text goes to stderr.
Exit codes: 0 completed, 1 error, 2 shift detected under --strict-exit.
"""

from __future__ import annotations

import argparse
import configparser
import csv as csv_mod
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, fields
from typing import get_args, get_origin, get_type_hints

from .cdc import CdcTrainSpec
from .data import ShiftTaskSpec, load_csv, uci_prepare
from .detectron import (
    BenchmarkTask,
    CalibratedTest,
    DatasetTask,
    calibrate,
    disagreement_curve,
    disagreement_statistic_psi,
    evaluate_power,
    load_calibration,
    prepare_data,
    prepare_task,
    save_calibration,
    DETECTOR_IDS,
)
from .learners import (
    GbtConfig,
    LearnerConfig,
    MlpConfig,
    Model,
    load_model,
    save_model,
)
from .numerics import RngStream
from .schemas import load_schema, validate_against_schema

__all__ = ["main", "RunConfig", "load_run_config", "canonical_config_text"]

# [section] -> the settings dataclass it builds, one key per field
_SETTINGS = {"mlp": MlpConfig, "gbt": GbtConfig, "cdc": CdcTrainSpec}


def _text(default) -> str:
    """A setting's default as config text: a comma list for a tuple,
    empty for None."""
    if isinstance(default, tuple):
        return ",".join(map(str, default))
    return "" if default is None else str(default)


_DEFAULTS = {
    "run": {"output_dir": "results", "jobs": "1"},
    "data": {"generator": "gauss_mean_shift", "n_source": "600",
             "n_target": "400", "fractions": "0.7,0.1,0.2"},
    "learner": {"kind": "gbt", "val_metric": "accuracy"},
    **{section: {f.name: _text(f.default) for f in fields(cls)}
       for section, cls in _SETTINGS.items()},
    "test": {"K": "100", "alpha": "0.05", "sample_size": "20",
             "detectors": "detectron_disagreement,detectron_entropy"},
    "benchmark": {"sample_sizes": "10,20,50", "trials": "100",
                  "psi_budget": "0", "psi_runs": "20"},
}
# the step cap defaults ON: uncapped budgets let null-run disagreement
# saturate and drain both tests of power (set empty to disable)
_DEFAULTS["cdc"]["max_opt_steps"] = "5"

_GENERATOR_PARAM_KEYS = ("mu", "delta", "dim", "theta", "noise")
# keys a file may set that have no default
_OPTIONAL_KEYS = {"run": ("seed",),
                  "data": (*_GENERATOR_PARAM_KEYS, "source_csv", "uci_dir",
                           "seed")}


class CliError(Exception):
    """User-facing failure: message to stderr, exit code 1."""


@dataclass
class RunConfig:
    """Effective (defaults-materialized) run configuration."""
    sections: dict
    seed: int | None

    def get(self, section: str, key: str) -> str:
        return self.sections[section][key]

    def getint(self, section, key):
        return _parse(int, section, key, self.get(section, key))

    def getfloat(self, section, key):
        return _parse(float, section, key, self.get(section, key))


def _parse(kind, section, key, raw, item=None):
    """``kind(item)``, item defaulting to ``raw``, the whole value of
    section.key; a value that does not parse is a CliError naming both."""
    try:
        return kind(raw if item is None else item)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        bad = repr(raw) if item is None else f"{item!r} in {raw!r}"
        raise CliError(f"invalid {section}.{key}: {bad} is not {what}") \
            from None


def _fractions(rc: RunConfig) -> tuple:
    raw = rc.get("data", "fractions")
    return tuple(_parse(float, "data", "fractions", raw, x)
                 for x in raw.split(","))


def load_run_config(path) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.optionxform = str  # option names are case-sensitive (K vs k)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise CliError(f"config file not found: {path}")
    except configparser.Error as exc:
        raise CliError(f"config parse error: {exc}")
    if parser.defaults():
        # configparser would copy these keys into every section
        raise CliError(f"unknown config section [{parser.default_section}]")
    sections = {name: dict(defaults) for name, defaults in _DEFAULTS.items()}
    for name in parser.sections():
        if name not in sections:
            raise CliError(f"unknown config section [{name}]")
        for key, value in parser.items(name):
            if (key not in sections[name]
                    and key not in _OPTIONAL_KEYS.get(name, ())):
                raise CliError(f"unknown config key {name}.{key}")
            sections[name][key] = value.strip()
    seed = None
    if parser.has_option("run", "seed"):
        seed = _parse(int, "run", "seed", parser.get("run", "seed"))
    return RunConfig(sections=sections, seed=seed)


def canonical_config_text(rc: RunConfig, seed: int) -> str:
    """Sorted section.key=value lines of the effective config; the basis
    for cache keys and result file names."""
    lines = [f"seed={seed}"]
    for section in sorted(rc.sections):
        for key in sorted(rc.sections[section]):
            lines.append(f"{section}.{key}={rc.sections[section][key]}")
    return "\n".join(lines)


def run_key(rc: RunConfig, seed: int) -> str:
    return hashlib.sha256(
        canonical_config_text(rc, seed).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# config -> objects
# ---------------------------------------------------------------------------

def _settings(rc: RunConfig, section: str):
    """The section's settings dataclass, each value parsed as its field's
    type: a tuple is a comma list with empty items skipped, and an
    optional field reads an empty value as None."""
    values = {}
    for name, hint in get_type_hints(_SETTINGS[section]).items():
        raw = rc.get(section, name)
        # int or float: the hint itself, a tuple's item type, or the
        # type an optional holds
        kind = (get_args(hint) or (hint,))[0]
        if get_origin(hint) is tuple:
            values[name] = tuple(_parse(kind, section, name, raw, x)
                                 for x in raw.split(",") if x)
        elif not raw and type(None) in get_args(hint):
            values[name] = None
        else:
            values[name] = _parse(kind, section, name, raw)
    return _SETTINGS[section](**values)


def learner_from_config(rc: RunConfig) -> LearnerConfig:
    try:
        return LearnerConfig(kind=rc.get("learner", "kind"),
                             mlp=_settings(rc, "mlp"),
                             gbt=_settings(rc, "gbt"),
                             val_metric=rc.get("learner", "val_metric"))
    except ValueError as exc:
        raise CliError(f"invalid learner config: {exc}")


def cdc_spec_from_config(rc: RunConfig) -> CdcTrainSpec:
    try:
        return _settings(rc, "cdc")
    except ValueError as exc:
        raise CliError(f"invalid cdc config: {exc}")


def shift_spec_from_config(rc: RunConfig, seed: int) -> ShiftTaskSpec:
    d = rc.sections["data"]
    params = {k: _parse(float, "data", k, d[k])
              for k in _GENERATOR_PARAM_KEYS if k in d}
    try:
        return ShiftTaskSpec(
            generator=d["generator"],
            n_source=rc.getint("data", "n_source"),
            n_target=rc.getint("data", "n_target"),
            seed=rc.getint("data", "seed") if "seed" in d else seed,
            params=params,
        )
    except ValueError as exc:
        raise CliError(f"invalid data config: {exc}")


def task_from_config(rc: RunConfig, seed: int) -> BenchmarkTask:
    """The run's task.  The data source is ``[data] source_csv`` (a
    labelled source with no target), ``uci_dir``, or else the generator;
    every setting is read before any file is."""
    d = rc.sections["data"]
    settings = dict(learner=learner_from_config(rc),
                    cdc=cdc_spec_from_config(rc), K=rc.getint("test", "K"),
                    fractions=_fractions(rc))
    if "source_csv" not in d and "uci_dir" not in d:
        return BenchmarkTask(shift_spec_from_config(rc, seed), **settings)
    try:
        if "source_csv" in d:
            source, target = load_csv(d["source_csv"]), None
        else:
            source, target = uci_prepare(d["uci_dir"])
    except (OSError, ValueError) as exc:
        raise CliError(str(exc))
    if source.labels is None:
        raise CliError("source CSV must carry a 'y' label column")
    return BenchmarkTask(DatasetTask(source, target), **settings)


def resolve_seed(rc: RunConfig, cli_seed) -> int:
    if cli_seed is not None:
        return int(cli_seed)
    if rc.seed is not None:
        return rc.seed
    raise CliError("no seed: pass --seed or set seed in [run] "
                   "(silent nondeterminism is not allowed)")


def cache_dir(rc: RunConfig) -> str:
    return os.environ.get("SHIFTGUARD_CACHE",
                          os.path.join(rc.get("run", "output_dir"), "cache"))


def model_path(calibration_path: str) -> str:
    """The base model file beside a calibration record:
    ``calibration_<hash>_<seed>.json`` -> ``..._<seed>.model.json``."""
    return os.path.splitext(calibration_path)[0] + ".model.json"


def load_base_model(calibration_path: str) -> Model:
    path = model_path(calibration_path)
    try:
        return load_model(path)
    except FileNotFoundError:
        raise CliError(f"cannot load base model: no file {path} "
                       "(calibrate writes it beside the record)")
    except OSError as exc:
        raise CliError(f"cannot load base model: {path}: "
                       f"{exc.strerror or exc}")
    except ValueError as exc:
        raise CliError(f"cannot load base model: {path}: {exc}")


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
    sys.stdout.flush()


def _log(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def _emit_validated(doc: dict, schema_name: str) -> None:
    validate_against_schema(doc, load_schema(schema_name))
    _emit(doc)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def resolve_jobs(rc: RunConfig, flag: int | None) -> int:
    """Calibration workers: ``--jobs`` when given, else ``[run] jobs``;
    below 1 is a CliError naming where the value came from."""
    if flag is not None:
        jobs, where = flag, "--jobs"
    else:
        jobs, where = rc.getint("run", "jobs"), "run.jobs"
    if jobs < 1:
        raise CliError(f"invalid {where}: {jobs} is not >= 1")
    return jobs


def cmd_calibrate(args) -> int:
    rc = load_run_config(args.config)
    seed = resolve_seed(rc, args.seed)
    jobs = resolve_jobs(rc, args.jobs)
    N = rc.getint("test", "sample_size")
    alpha = rc.getfloat("test", "alpha")
    start = time.perf_counter()
    task = task_from_config(rc, seed)
    try:
        data, _, f = prepare_task(task, RngStream(seed, 0))
        record = calibrate(data, task.learner, f, N, task.K, task.cdc,
                           alpha, RngStream(seed, 0).split(3), jobs=jobs)
    except ValueError as exc:
        raise CliError(str(exc))
    out_dir = cache_dir(rc)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir,
                        f"calibration_{record.config_hash[:16]}_{seed}.json")
    # the model first: a record on disk always has its model beside it
    save_model(f, model_path(path))
    save_calibration(record, path)
    elapsed = time.perf_counter() - start
    _log(f"calibrated K={record.K} runs at N={N}: "
         f"tau_disagreement={record.tau_disagreement:.6g} "
         f"tau_entropy={record.tau_entropy:.6g} "
         f"({elapsed:.1f}s) -> {path}")
    _emit_validated({
        "kind": "calibration_summary",
        "path": path,
        "config_hash": record.config_hash,
        "K": record.K,
        "sample_size": N,
        "alpha": alpha,
        "tau_disagreement": record.tau_disagreement,
        "tau_entropy": record.tau_entropy,
        "seed": seed,
    }, "calibration_summary")
    return 0


def cmd_test(args) -> int:
    rc = load_run_config(args.config)
    seed = resolve_seed(rc, args.seed)
    task = task_from_config(rc, seed)
    try:
        data, _ = prepare_data(task, RngStream(seed, 0))
    except ValueError as exc:
        raise CliError(str(exc))
    f = load_base_model(args.calibration)
    try:
        record = load_calibration(args.calibration, f.num_classes)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot load calibration: {exc}")
    try:
        q = load_csv(args.q, label_column=None)
    except OSError as exc:
        raise CliError(f"cannot read candidate sample: {args.q}: "
                       f"{exc.strerror or exc}")
    except ValueError as exc:
        raise CliError(f"cannot read candidate sample: {exc}")
    q_digest = int(hashlib.sha256(q.fingerprint.encode()).hexdigest()[:12], 16)
    rng = RngStream(seed, 0).split(4).split(q_digest)

    try:
        tester = CalibratedTest(record, data, task.learner, f, task.cdc)
        verdicts = tester.run(q.features, rng, args.test)
    except ValueError as exc:
        raise CliError(str(exc))

    out_dir = rc.get("run", "output_dir")
    os.makedirs(out_dir, exist_ok=True)
    results_path = os.path.join(
        out_dir, f"verdicts_{run_key(rc, seed)}_{seed}.jsonl")
    detected = False
    with open(results_path, "a", encoding="utf-8") as fh:
        for v in verdicts:
            doc = v.to_json_dict()
            _emit_validated(doc, "verdict")
            fh.write(json.dumps(doc, sort_keys=True) + "\n")
            detected = detected or v.shift_detected
    _log(f"verdicts appended to {results_path}")
    if args.strict_exit and detected:
        return 2
    return 0


def cmd_benchmark(args) -> int:
    rc = load_run_config(args.config)
    seed = resolve_seed(rc, args.seed)
    jobs = resolve_jobs(rc, args.jobs)
    detectors = [d.strip() for d in
                 rc.get("test", "detectors").split(",") if d.strip()]
    for d in detectors:
        if d not in DETECTOR_IDS:
            raise CliError(f"unknown detector id {d!r}")
    raw = rc.get("benchmark", "sample_sizes")
    sizes = [_parse(int, "benchmark", "sample_sizes", raw, x)
             for x in raw.split(",") if x]
    trials = rc.getint("benchmark", "trials")
    alpha = rc.getfloat("test", "alpha")
    task = task_from_config(rc, seed)
    source = task.data_spec
    if isinstance(source, DatasetTask) and source.target is None:
        raise CliError("benchmark needs a shifted target source: use a "
                       "generator or uci_dir")

    out_dir = rc.get("run", "output_dir")
    os.makedirs(out_dir, exist_ok=True)
    key = run_key(rc, seed)
    csv_path = os.path.join(out_dir, f"benchmark_{key}_{seed}.csv")
    jsonl_path = os.path.join(out_dir, f"benchmark_{key}_{seed}.jsonl")
    new_csv = not os.path.exists(csv_path)
    rows = []
    # every (detector, N) row, and the psi curve, gets the same data and
    # base model, prepared once, and the same Q draws
    rng = RngStream(seed, 0).split(5)
    try:
        prepared = prepare_task(task, rng.split(0))
    except ValueError as exc:
        raise CliError(str(exc))
    for detector in detectors:
        for n in sizes:
            t0 = time.perf_counter()
            try:
                tpr, se = evaluate_power(task, detector, n, trials, alpha,
                                         rng, jobs=jobs, prepared=prepared)
            except ValueError as exc:
                raise CliError(str(exc))
            _log(f"{detector} N={n}: TPR@{int(alpha * 100)} = "
                 f"{tpr:.2f} +/- {se:.2f} "
                 f"({time.perf_counter() - t0:.1f}s)")
            rows.append({"kind": "benchmark_row", "detector": detector,
                         "N": n, "tpr": tpr, "std_err": se,
                         "trials": trials, "seed": seed})
    with open(csv_path, "a", newline="", encoding="utf-8") as fh:
        writer = csv_mod.writer(fh)
        if new_csv:
            writer.writerow(["detector", "N", "tpr", "std_err", "trials",
                             "seed"])
        for r in rows:
            writer.writerow([r["detector"], r["N"], f"{r['tpr']:.6f}",
                             f"{r['std_err']:.6f}", r["trials"], r["seed"]])
    with open(jsonl_path, "a", encoding="utf-8") as fh:
        for r in rows:
            _emit_validated(r, "benchmark_row")
            fh.write(json.dumps(r, sort_keys=True) + "\n")

    psi_budget = rc.getint("benchmark", "psi_budget")
    if psi_budget > 0:
        _run_psi(rc, task, prepared, seed, psi_budget,
                 rc.getint("benchmark", "psi_runs"), out_dir, key)
    _log(f"benchmark written to {csv_path}")
    return 0


def _run_psi(rc, task, prepared, seed, budget, runs, out_dir, key):
    data, target_X, f = prepared
    n = min(rc.getint("test", "sample_size"), target_X.shape[0],
            len(data.holdout))
    config = task.learner
    curves_q, curves_p = [], []
    for r in range(runs):
        rng = RngStream(seed, 0).split(7).split(r)
        qi = rng.sample_without_replacement(target_X.shape[0], n)
        pi = rng.sample_without_replacement(len(data.holdout), n)
        curves_q.append(disagreement_curve(config, data, target_X[qi], f,
                                           budget, rng.split(1)))
        curves_p.append(disagreement_curve(config, data,
                                           data.holdout.features[pi], f,
                                           budget, rng.split(2)))
    psi, se = disagreement_statistic_psi(curves_q, curves_p)
    doc = {"kind": "psi_curve", "budget_steps": budget, "runs": runs,
           "sample_size": n, "seed": seed,
           "psi": [float(v) for v in psi],
           "std_err": [float(v) for v in se]}
    path = os.path.join(out_dir, f"psi_{key}_{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
    _emit_validated(doc, "psi_curve")
    _log(f"psi curve ({runs} paired runs, {budget} steps) -> {path}")


def _read_results(path, schema_name, whole=False) -> list:
    """The documents of a results file, one per nonblank line (or the
    whole file, one document), each checked against its shipped schema;
    a malformed one is a CliError naming the file and the line."""
    schema = load_schema(schema_name)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    docs = []
    for n, chunk in [(1, text)] if whole else enumerate(text.split("\n"), 1):
        if not chunk.strip():
            continue
        try:
            doc = json.loads(chunk)
            validate_against_schema(doc, schema, schema_name)
        except json.JSONDecodeError as exc:
            raise CliError(f"malformed results file {path} line "
                           f"{n + exc.lineno - 1}: {exc.msg}")
        except ValueError as exc:
            raise CliError(f"malformed results file {path} line {n}: {exc}")
        docs.append(doc)
    return docs


def cmd_report(args) -> int:
    results_dir = args.results
    if not os.path.isdir(results_dir):
        raise CliError(f"results directory not found: {results_dir}")
    verdicts = []
    bench_rows = []
    psi_docs = []
    for name in sorted(os.listdir(results_dir)):
        path = os.path.join(results_dir, name)
        if name.startswith("verdicts_") and name.endswith(".jsonl"):
            verdicts += _read_results(path, "verdict")
        elif name.startswith("benchmark_") and name.endswith(".jsonl"):
            bench_rows += _read_results(path, "benchmark_row")
        elif name.startswith("psi_") and name.endswith(".json"):
            psi_docs += _read_results(path, "psi_curve", whole=True)
    if not verdicts and not bench_rows and not psi_docs:
        raise CliError(f"no results found in {results_dir}")

    by_test: dict = {}
    for v in verdicts:
        agg = by_test.setdefault(v["test"], {"runs": 0, "detections": 0})
        agg["runs"] += 1
        agg["detections"] += bool(v["shift_detected"])
    for test_name in sorted(by_test):
        agg = by_test[test_name]
        rate = agg["detections"] / agg["runs"]
        _log(f"{test_name}: {agg['detections']}/{agg['runs']} detections "
             f"(rate {rate:.3f})")
        _emit_validated({"kind": "report_rate", "test": test_name,
                         "runs": agg["runs"],
                         "detections": agg["detections"],
                         "rate": rate}, "report_rate")
    for row in bench_rows:
        _log(f"benchmark {row['detector']} N={row['N']}: "
             f"{row['tpr']:.2f} +/- {row['std_err']:.2f}")
        _emit(row)

    if psi_docs:
        psi_csv = os.path.join(results_dir, "psi_curve.csv")
        with open(psi_csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv_mod.writer(fh)
            writer.writerow(["source_seed", "step", "psi", "std_err"])
            for doc in psi_docs:
                for step, (p, s) in enumerate(zip(doc["psi"],
                                                  doc["std_err"]), start=1):
                    writer.writerow([doc["seed"], step, f"{p:.6f}",
                                     f"{s:.6f}"])
        _log(f"psi table -> {psi_csv}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftguard",
        description="Detect harmful covariate shift from small unlabeled "
                    "samples with constrained-disagreement ensembles.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, jobs=True):
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        if jobs:    # test builds one ensemble and runs no calibration
            p.add_argument("--jobs", type=int, default=None,
                           help="parallel calibration workers")

    p_cal = sub.add_parser("calibrate", help="estimate null distributions")
    p_cal.add_argument("config")
    add_common(p_cal)
    p_cal.set_defaults(fn=cmd_calibrate)

    p_test = sub.add_parser("test", help="test one candidate sample")
    p_test.add_argument("config")
    p_test.add_argument("q", help="unlabeled CSV of candidate samples")
    p_test.add_argument("calibration", help="calibration JSON path")
    p_test.add_argument("--test", choices=("disagreement", "entropy", "both"),
                        default="both")
    p_test.add_argument("--strict-exit", action="store_true",
                        help="exit 2 when shift is detected")
    add_common(p_test, jobs=False)
    p_test.set_defaults(fn=cmd_test)

    p_bench = sub.add_parser("benchmark", help="power table over detectors")
    p_bench.add_argument("config")
    add_common(p_bench)
    p_bench.set_defaults(fn=cmd_benchmark)

    p_rep = sub.add_parser("report", help="aggregate results directory")
    p_rep.add_argument("results")
    p_rep.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        _log(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
