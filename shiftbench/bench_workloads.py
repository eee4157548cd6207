"""The three benchmark workloads.

Each workload runs in one process, one operation at a time (a closed
loop with one client).  It sets up, calibrates, then runs candidate-sample
tests in whole rounds of ``ROUND`` tests until ``--seconds`` have passed
and at least ``min_rounds`` rounds are done.  Between rounds it sets up
again and calibrates again, on a schedule spread evenly over the run (see
``_measure``), and reports medians: the machine's speed drifts over
seconds, and samples taken across the whole run keep a median from
resting on one moment.  A traced run does one set-up, one calibration and
exactly ``min_rounds`` rounds, so its counts repeat exactly for a seed.

Operations are the set-ups, the calibrations and the tests.  An operation
fails when it raises, exits non-zero or fails an output check.

The workload seed picks the candidate samples and each test's random
stream.  The data, base model and calibration of each workload are fixed:
the checks are statements about those exact tasks (the ones the
acceptance suite certifies), and a fixed calibration makes
``calibrate_s`` measure the same work on every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import bench_checks as checks

ROUND = 10
SETUP_REPEATS = 11
ALPHA = 0.05
BOUND_P = 0.001


@dataclass
class RunResult:
    setup_s: list = field(default_factory=list)
    calibrate_s: list = field(default_factory=list)
    test_s: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    problems: list = field(default_factory=list)   # (operation, message)
    calibration: dict = None                       # calibration_to_doc form
    verdicts: list = field(default_factory=list)   # per test: docs or None
    min_tests: int = 0
    info: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len({op for op, _ in self.problems})

    def fail(self, op: str, messages) -> None:
        self.problems.extend((op, m) for m in messages)

    def fail_unless_identical(self, op: str, records) -> None:
        """Repeating an operation with the same inputs must give the same
        calibration bytes."""
        digests = [checks.calibration_digest(r) for r in records]
        for r, digest in enumerate(digests):
            if digest != digests[0]:
                self.fail(f"{op}{r}", [f"record differs from {op}0"])


@dataclass
class Context:
    root: str           # checkout root
    workdir: str        # scratch directory for this run's files
    seed: int
    seconds: float
    tracer: object      # bench_trace.Tracer or None

    def keep_testing(self, rounds: int, min_rounds: int, start: float):
        if rounds < min_rounds:
            return True
        return (self.tracer is None
                and time.perf_counter() - start < self.seconds)

    @contextlib.contextmanager
    def operation(self, res: RunResult, name: str, times: list):
        """Time one operation into ``times``.  Spans are recorded only
        inside an operation, never for the benchmark's own calls into
        shiftguard."""
        res.attempted += 1
        if self.tracer is not None:
            self.tracer.op = name
        start = time.perf_counter()
        try:
            yield
        finally:
            times.append(time.perf_counter() - start)
            if self.tracer is not None:
                self.tracer.op = ""


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _measure(ctx: Context, min_rounds: int, setups: int, calibrations: int,
             setup, calibrate, test) -> list:
    """Set up, calibrate, then test in whole rounds; returns every
    calibration's result.  ``setup(r)`` runs set-up r, ``calibrate(r)``
    runs calibration r and ``test(i, record)`` runs test i against the
    first calibration.  Set-up r and calibration r are due once r/setups
    and r/calibrations of ``--seconds`` have passed, and run at the first
    round boundary after that; any not yet run when testing stops run at
    the end."""
    if ctx.tracer is not None:
        setups = calibrations = 1
    start = time.perf_counter()
    setup(0)
    records = [calibrate(0)]
    done_setups, rounds = 1, 0
    while ctx.keep_testing(rounds, min_rounds, start):
        for k in range(ROUND):
            test(rounds * ROUND + k, records[0])
        rounds += 1
        elapsed = (time.perf_counter() - start) / ctx.seconds
        while done_setups < setups and elapsed >= done_setups / setups:
            setup(done_setups)
            done_setups += 1
        if len(records) < calibrations \
                and elapsed >= len(records) / calibrations:
            records.append(calibrate(len(records)))
    for r in range(done_setups, setups):
        setup(r)
    while len(records) < calibrations:
        records.append(calibrate(len(records)))
    return records


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InProcessSpec:
    generator: str
    data_seed: int
    base_rng: tuple         # (base_seed, stream_id, *splits) for prepare_task
    calib_rng: tuple        # the same form, for calibrate
    kind: str
    params: dict
    N: int
    K: int
    min_rounds: int
    calibrations: int       # per untraced run
    null: bool              # target is in-distribution


GBT_NULL = InProcessSpec(
    generator="null_resample", data_seed=11, base_rng=(50, 0),
    calib_rng=(51, 0), kind="gbt",
    params=dict(eta=0.1, max_depth=6, num_rounds=10, subsample=0.9,
                colsample=1.0),
    N=20, K=20, min_rounds=4, calibrations=3, null=True)

MLP_SHIFT = InProcessSpec(
    generator="gauss_mean_shift", data_seed=13, base_rng=(60, 1, 0),
    calib_rng=(60, 1, 3), kind="mlp",
    params=dict(hidden_sizes=(16, 16), dropout_rate=0.1, learning_rate=0.02,
                max_epochs=150, batch_size=64, patience=30),
    N=10, K=100, min_rounds=20, calibrations=5, null=False)


def _stream(numerics, path):
    rng = numerics.RngStream(path[0], path[1])
    for k in path[2:]:
        rng = rng.split(k)
    return rng


def run_in_process(spec: InProcessSpec, ctx: Context):
    import shiftguard.cdc as cdc
    import shiftguard.data as sg_data
    import shiftguard.detectron as detectron
    import shiftguard.learners as learners
    import shiftguard.numerics as numerics

    params = (learners.MlpConfig if spec.kind == "mlp"
              else learners.GbtConfig)(**spec.params)
    config = learners.LearnerConfig(kind=spec.kind, **{spec.kind: params})
    cdc_spec = cdc.CdcTrainSpec(max_opt_steps=5)
    task = detectron.BenchmarkTask(
        data_spec=sg_data.ShiftTaskSpec(spec.generator, n_source=900,
                                        n_target=2000, seed=spec.data_seed),
        learner=config, cdc=cdc_spec, K=spec.K)
    res = RunResult(min_tests=spec.min_rounds * ROUND)

    prepared = []   # the first set-up's (data, target_X, f)

    def setup(r):
        base_rng = _stream(numerics, spec.base_rng)
        with ctx.operation(res, f"setup{r}", res.setup_s):
            task_parts = detectron.prepare_task(task, base_rng)
        if not prepared:
            prepared.extend(task_parts)
        elif (learners.model_fingerprint(task_parts[2])
              != learners.model_fingerprint(prepared[2])):
            res.fail(f"setup{r}", ["base model differs from setup0's"])

    def calibrate(r):
        data, _, f = prepared
        rng = _stream(numerics, spec.calib_rng)
        with ctx.operation(res, f"calibrate{r}", res.calibrate_s):
            return detectron.calibrate(data, config, f, spec.N, spec.K,
                                       cdc_spec, ALPHA, rng, jobs=1)

    draws = np.random.default_rng(ctx.seed)
    pairs = []

    def test(i, record):
        data, target_X, f = prepared
        q = target_X[draws.choice(target_X.shape[0], spec.N, replace=False)]
        rng = numerics.RngStream(ctx.seed, 2).split(i)
        pair = None
        with ctx.operation(res, f"test{i}", res.test_s):
            try:
                pair = detectron.test_both(q, record, data, config, f,
                                           cdc_spec, rng)
            except Exception as exc:  # a failed test must not end the run
                res.fail(f"test{i}", [f"raised {exc!r}"])
        pairs.append(pair)

    records = _measure(ctx, spec.min_rounds, SETUP_REPEATS, spec.calibrations,
                       setup, calibrate, test)
    res.peak_rss_mb = _peak_rss_mb(resource.RUSAGE_SELF)
    data, _, f = prepared

    docs = [detectron.calibration_to_doc(r) for r in records]
    res.calibration = docs[0]
    res.fail_unless_identical("calibrate", docs)
    res.verdicts = [None if p is None else [v.to_json_dict() for v in p]
                    for p in pairs]
    return res, lambda: _check_in_process(spec, res, data, f, task, sg_data)


def _check_in_process(spec, res, data, f, task, sg_data):
    res.fail("calibrate0", checks.check_calibration(
        res.calibration, spec.N, spec.K, ALPHA, num_classes=f.num_classes,
        exact_ks=not spec.null, notes=res.info))
    for i, pair in enumerate(res.verdicts):
        if pair is not None:
            res.fail(f"test{i}", checks.check_verdicts(
                pair, res.calibration, spec.N))
    done = [pair for pair in res.verdicts if pair is not None]
    for name in ("detectron_disagreement", "detectron_entropy"):
        k = sum(v["shift_detected"] for pair in done for v in pair
                if v["test"] == name)
        p = checks.binomial_greater_p(k, len(done), ALPHA)
        rate = f"{k}/{len(done)}"
        res.info[f"{name}_detections"] = rate
        if spec.null and p < BOUND_P:
            res.fail("calibrate0", [f"{name}: {rate} null detections exceed "
                                    f"alpha (binomial p = {p:.2g})"])
        if not spec.null and not (k / len(done) > ALPHA and p < BOUND_P):
            res.fail("calibrate0", [f"{name}: {rate} detections do not "
                                    f"exceed alpha (binomial p = {p:.2g})"])
    if not spec.null:
        # the shift must be harmful: base accuracy on the labelled target
        # drops by at least 0.2 from the held-out source accuracy
        _, labelled, _ = sg_data.synth_generate(task.data_spec,
                                                reveal_labels=True)
        drop = float(
            np.mean(f.predict_labels(data.holdout.features)
                    == data.holdout.labels)
            - np.mean(f.predict_labels(labelled.features) == labelled.labels))
        res.info["accuracy_drop"] = drop
        if drop < 0.2:
            res.fail("setup0", [f"accuracy drop {drop:.3f} < 0.2: the shift "
                                "is not harmful"])


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------

CLI_MIN_ROUNDS = 4
CLI_CALIBRATIONS = 7
CLI_TIMEOUT_S = 120


class _Cli:
    """Runs ``shiftguard`` commands as child processes, through the same
    entry point as the console script, or, when traced, through
    ``cli.main`` in this process."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        src = os.path.join(ctx.root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ,
                        PYTHONPATH=src + (os.pathsep + path if path else ""),
                        SHIFTGUARD_CACHE=os.path.join(ctx.workdir, "cache"))

    def _spawn(self, argv, stdout, stderr) -> int:
        """Run a child to its end and return its exit code.  The wait
        blocks in waitpid: ``subprocess.run(timeout=...)`` polls instead,
        with sleeps of up to 50 ms that would land in the timings.  A
        watchdog kills a child that outlives ``CLI_TIMEOUT_S``."""
        proc = subprocess.Popen([sys.executable, *argv], env=self.env,
                                cwd=self.ctx.workdir, stdout=stdout,
                                stderr=stderr)
        watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            return proc.wait()
        finally:
            watchdog.cancel()
            watchdog.join()

    def import_only(self) -> None:
        code = self._spawn(["-c", "import shiftguard.cli"],
                           subprocess.DEVNULL, None)
        if code != 0:
            raise RuntimeError(f"import shiftguard.cli exited {code}")

    def run(self, args) -> tuple[int, str]:
        """Run one ``shiftguard`` command; its stdout and stderr go to
        files, and its stderr is shown only when it fails."""
        if self.ctx.tracer is not None:
            return self._run_in_process(args)
        with open(os.path.join(self.ctx.workdir, "stdout.txt"), "w+",
                  encoding="utf-8") as out, \
                open(os.path.join(self.ctx.workdir, "stderr.txt"), "w+",
                     encoding="utf-8") as err:
            code = self._spawn(
                ["-c", "import sys; from shiftguard.cli import main; "
                 "sys.exit(main())", *args], out, err)
            if code != 0:
                err.seek(0)
                sys.stderr.write(err.read())
            out.seek(0)
            return code, out.read()

    def _run_in_process(self, args):
        import shiftguard.cli as cli
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.environ["SHIFTGUARD_CACHE"] = self.env["SHIFTGUARD_CACHE"]
        os.chdir(self.ctx.workdir)
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(list(args))
        finally:
            os.chdir(cwd)
        if code != 0:
            sys.stderr.write(err.getvalue())
        return code, out.getvalue()


def _json_lines(text: str) -> list:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _write_candidate(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"x{j}" for j in range(rows.shape[1])) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def run_cli(ctx: Context):
    import shiftguard.cli as cli
    import shiftguard.data as sg_data

    config = os.path.join(ctx.root, "configs", "smoke.cfg")
    rc = cli.load_run_config(config)
    N, K = rc.getint("test", "sample_size"), rc.getint("test", "K")
    _, target, _ = sg_data.synth_generate(
        cli.shift_spec_from_config(rc, rc.seed))
    shell = _Cli(ctx)
    res = RunResult(min_tests=CLI_MIN_ROUNDS * ROUND)

    if ctx.tracer is None:
        shell.import_only()  # byte-compiles once; no user pays that per call

    def setup(r):
        if ctx.tracer is None:   # the traced run calls cli.main in process
            with ctx.operation(res, f"setup{r}", res.setup_s):
                shell.import_only()

    def calibrate(r):
        with ctx.operation(res, f"calibrate{r}", res.calibrate_s):
            code, out = shell.run(["calibrate", config])
        if code != 0:
            raise RuntimeError(f"shiftguard calibrate exited {code}")
        path = _json_lines(out)[-1]["path"]
        with open(path, encoding="utf-8") as fh:
            return path, json.load(fh)

    draws = np.random.default_rng(ctx.seed)
    repeats = []

    def test(i, record):
        if i % ROUND < ROUND - 1:
            path = os.path.join(ctx.workdir, f"q{i}.csv")
            _write_candidate(path, target.features[draws.choice(
                target.features.shape[0], N, replace=False)])
        else:
            # the last test of a round repeats its first candidate
            first = i - (ROUND - 1)
            repeats.append((first, i))
            path = os.path.join(ctx.workdir, f"q{first}.csv")
        with ctx.operation(res, f"test{i}", res.test_s):
            code, out = shell.run(["test", config, path, record[0]])
        if code != 0:
            res.fail(f"test{i}", [f"shiftguard test exited {code}"])
            res.verdicts.append(None)
        else:
            res.verdicts.append(_json_lines(out))

    records = _measure(ctx, CLI_MIN_ROUNDS, SETUP_REPEATS, CLI_CALIBRATIONS,
                       setup, calibrate, test)
    res.calibration = records[0][1]
    res.fail_unless_identical("calibrate", [doc for _, doc in records])
    res.peak_rss_mb = _peak_rss_mb(
        resource.RUSAGE_SELF if ctx.tracer else resource.RUSAGE_CHILDREN)

    return res, lambda: _check_cli(res, repeats, N, K)


def _check_cli(res, repeats, N, K):
    res.fail("calibrate0", checks.check_calibration(
        res.calibration, N, K, ALPHA, num_classes=2, exact_ks=True,
        notes=res.info))
    for i, pair in enumerate(res.verdicts):
        if pair is not None:
            res.fail(f"test{i}", checks.check_verdicts(
                pair, res.calibration, N))
    for first, again in repeats:
        a, b = res.verdicts[first], res.verdicts[again]
        if a is not None and b is not None \
                and checks.without_time(a) != checks.without_time(b):
            res.fail(f"test{again}", [f"repeat of test{first} on the same "
                                      "CSV gave different verdicts"])


# ---------------------------------------------------------------------------
# registry and end-to-end metrics
# ---------------------------------------------------------------------------

WORKLOADS = {
    "gbt-null-audit": lambda ctx: run_in_process(GBT_NULL, ctx),
    "mlp-smalln-shift": lambda ctx: run_in_process(MLP_SHIFT, ctx),
    "cli-smoke": run_cli,
}

# nearest-rank percentile reported as test_ms_tail: the highest one that
# leaves at least ten samples beyond it at the workload's minimum count
TAIL_PERCENTILE = {"gbt-null-audit": 75, "mlp-smalln-shift": 95,
                   "cli-smoke": 75}


def nearest_rank(values, pct: int) -> float:
    ordered = sorted(values)
    return ordered[max(1, -(-len(ordered) * pct // 100)) - 1]


def end_to_end(workload: str, res: RunResult) -> dict:
    metrics = {
        "calibrate_s": (statistics.median(res.calibrate_s), "s"),
        "test_ms_p50": (statistics.median(res.test_s) * 1000.0, "ms"),
        "test_ms_tail": (nearest_rank(res.test_s, TAIL_PERCENTILE[workload])
                         * 1000.0, "ms"),
        "peak_rss_mb": (res.peak_rss_mb, "MB"),
    }
    if res.setup_s:   # a traced cli-smoke run skips the import timing
        metrics["setup_s"] = (statistics.median(res.setup_s), "s")
    return metrics
