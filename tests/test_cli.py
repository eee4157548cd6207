import hashlib
import json
import os
import re
import shutil
import types

import numpy as np
import pytest

from shiftguard.cli import (
    canonical_config_text,
    cdc_spec_from_config,
    load_run_config,
    main,
    run_key,
)
from shiftguard.data import ShiftTaskSpec, synth_generate
from shiftguard.learners import load_model, model_fingerprint, save_model
from shiftguard.numerics import RngStream, rng_stream
from shiftguard.schemas import load_schema, validate_against_schema

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

SMOKE_CONFIG = """
[run]
seed = 5
output_dir = {out}

[data]
generator = gauss_mean_shift
n_source = 500
n_target = 300

[learner]
kind = mlp

[mlp]
hidden_sizes = 16,16
dropout_rate = 0.1
learning_rate = 0.02
max_epochs = 60
patience = 20

[cdc]
max_opt_steps = 5

[test]
K = 20
alpha = 0.05
sample_size = 20

[benchmark]
sample_sizes = 20
trials = 30
psi_budget = 8
psi_runs = 4
"""


def write_config(tmp_path, text=None, **kw):
    cfg = tmp_path / "run.cfg"
    body = (text or SMOKE_CONFIG).format(out=tmp_path / "results", **kw)
    cfg.write_text(body)
    return str(cfg)


def write_q_csv(tmp_path, n=20, shifted=True, seed=9, name="q.csv"):
    spec = ShiftTaskSpec(
        generator="gauss_mean_shift" if shifted else "null_resample",
        n_source=50, n_target=max(n, 10), seed=seed)
    _, target, _ = synth_generate(spec)
    path = tmp_path / name
    rows = ["f0,f1"] + [f"{x[0]},{x[1]}" for x in target.features[:n]]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def read_stdout_docs(capsys):
    captured = capsys.readouterr()
    return ([json.loads(line) for line in captured.out.splitlines() if line],
            captured.err)


@pytest.fixture()
def calibrated(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = main(["calibrate", cfg])
    docs, err = read_stdout_docs(capsys)
    assert code == 0
    return {"cfg": cfg, "summary": docs[0], "tmp": tmp_path}


class TestCalibrateCommand:
    def test_writes_record_and_summary(self, calibrated):
        summary = calibrated["summary"]
        assert summary["kind"] == "calibration_summary"
        assert summary["K"] == 20
        assert os.path.exists(summary["path"])
        record = json.load(open(summary["path"]))
        validate_against_schema(record, load_schema("calibration"))
        assert len(record["phi_p"]) == 20

    def test_rerun_identical_bytes(self, calibrated, capsys):
        first = open(calibrated["summary"]["path"], "rb").read()
        assert main(["calibrate", calibrated["cfg"]]) == 0
        read_stdout_docs(capsys)
        assert open(calibrated["summary"]["path"], "rb").read() == first

    def test_missing_seed_is_error(self, tmp_path, capsys):
        cfg = tmp_path / "noseed.cfg"
        cfg.write_text("[data]\ngenerator = null_resample\n")
        assert main(["calibrate", str(cfg)]) == 1
        _, err = read_stdout_docs(capsys)
        assert "seed" in err

    def test_seed_flag_overrides(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["calibrate", cfg, "--seed", "6"]) == 0
        docs, _ = read_stdout_docs(capsys)
        assert docs[0]["seed"] == 6

    def test_config_parse_error_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("[run\nseed = 1\n")
        assert main(["calibrate", str(cfg)]) == 1
        _, err = read_stdout_docs(capsys)
        assert "parse error" in err

    def test_nonfinite_learner_setting_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMOKE_CONFIG + "\n[gbt]\neta = nan\n")
        assert main(["calibrate", cfg]) == 1
        out, err = read_stdout_docs(capsys)
        assert out == []
        assert err.splitlines() == [
            "error: invalid learner config: eta must be finite"]

    @pytest.mark.parametrize("old, new, message", [
        ("seed = 5", "seed = five",
         "invalid run.seed: 'five' is not an integer"),
        ("K = 20", "K = twenty",
         "invalid test.K: 'twenty' is not an integer"),
        ("n_target = 300", "n_target = 300\nfractions = 0.7,zero,0.2",
         "invalid data.fractions: 'zero' in '0.7,zero,0.2' is not a number"),
    ])
    def test_malformed_number_exit_one(self, tmp_path, capsys, old, new,
                                       message):
        cfg = write_config(tmp_path, SMOKE_CONFIG.replace(old, new))
        assert main(["calibrate", cfg]) == 1
        out, err = read_stdout_docs(capsys)
        assert out == []
        assert err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("old, new, message", [
        ("patience = 20", "patience = 20\n[gbt]\nmax_dpeth = 3",
         "unknown config key gbt.max_dpeth"),
        ("[cdc]", "[gtb]\nmax_depth = 3\n[cdc]",
         "unknown config section [gtb]"),
        ("seed = 5", "seed = 5\nsed = 5", "unknown config key run.sed"),
        ("[cdc]", "[DEFAULT]\nK = 5\n[cdc]",
         "unknown config section [DEFAULT]"),
        ("patience = 20", "patience = 20\n[gbt]\nmax_depth = x",
         "invalid gbt.max_depth: 'x' is not an integer"),
        ("hidden_sizes = 16,16", "hidden_sizes = 16,x",
         "invalid mlp.hidden_sizes: 'x' in '16,x' is not an integer"),
        ("max_opt_steps = 5", "max_opt_steps = 2.5",
         "invalid cdc.max_opt_steps: '2.5' is not an integer"),
    ])
    def test_bad_setting_exit_one(self, tmp_path, capsys, old, new, message):
        """A misspelled section or key, or a learner value that does not
        parse, is refused on one line that names it."""
        cfg = write_config(tmp_path, SMOKE_CONFIG.replace(old, new))
        assert main(["calibrate", cfg]) == 1
        out, err = read_stdout_docs(capsys)
        assert out == []
        assert err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("command", ["calibrate", "benchmark"])
    @pytest.mark.parametrize("config_jobs, flag, message", [
        ("0", [], "invalid run.jobs: 0 is not >= 1"),
        ("-2", [], "invalid run.jobs: -2 is not >= 1"),
        ("4", ["--jobs", "0"], "invalid --jobs: 0 is not >= 1"),
        ("1", ["--jobs", "-1"], "invalid --jobs: -1 is not >= 1"),
    ])
    def test_jobs_below_one_exit_one(self, tmp_path, capsys, command,
                                     config_jobs, flag, message):
        """A worker count below 1 is refused where it enters: --jobs 0
        is not read as unset, and [run] jobs = 0 does not run
        sequentially without a word."""
        cfg = write_config(tmp_path, SMOKE_CONFIG.replace(
            "seed = 5", f"seed = 5\njobs = {config_jobs}"))
        assert main([command, cfg, *flag]) == 1
        out, err = read_stdout_docs(capsys)
        assert out == []
        assert err.splitlines() == [f"error: {message}"]

    def test_malformed_sample_sizes_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMOKE_CONFIG.replace(
            "sample_sizes = 20", "sample_sizes = 20,x"))
        assert main(["benchmark", cfg]) == 1
        _, err = read_stdout_docs(capsys)
        assert err.splitlines() == [
            "error: invalid benchmark.sample_sizes: 'x' in '20,x' is not an "
            "integer"]

    def test_insufficient_holdout_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        text = open(cfg).read().replace("sample_size = 20",
                                        "sample_size = 5000")
        open(cfg, "w").write(text)
        assert main(["calibrate", cfg]) == 1
        _, err = read_stdout_docs(capsys)
        assert "insufficient" in err

    @pytest.mark.parametrize("command", ["calibrate", "test"])
    def test_auc_on_three_classes_exit_one(self, tmp_path, capsys, command):
        X = rng_stream(12, 0).normal((150, 2))
        src = tmp_path / "three.csv"
        src.write_text("f0,f1,y\n" + "".join(
            f"{x[0]},{x[1]},{i % 3}\n" for i, x in enumerate(X)))
        cfg = tmp_path / "auc.cfg"
        cfg.write_text(f"[run]\nseed = 1\noutput_dir = {tmp_path}\n"
                       f"[data]\nsource_csv = {src}\n"
                       "[learner]\nkind = gbt\nval_metric = auc\n")
        argv = [command, str(cfg)]
        expected = ("error: cannot fit base model: "
                    "auc metric requires binary classification")
        if command == "test":
            # test fits nothing: it refuses a record without a model file
            argv += [str(src), str(tmp_path / "missing.json")]
            expected = ("error: cannot load base model: no file "
                        f"{tmp_path / 'missing.model.json'} "
                        "(calibrate writes it beside the record)")
        assert main(argv) == 1
        out, err = read_stdout_docs(capsys)
        assert out == []
        assert err.splitlines() == [expected]

    def test_cache_env_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SHIFTGUARD_CACHE", str(tmp_path / "mycache"))
        cfg = write_config(tmp_path)
        assert main(["calibrate", cfg]) == 0
        docs, _ = read_stdout_docs(capsys)
        assert str(tmp_path / "mycache") in docs[0]["path"]


class TestTestCommand:
    def test_shifted_q_strict_exit(self, calibrated, capsys):
        q = write_q_csv(calibrated["tmp"], shifted=True)
        code = main(["test", calibrated["cfg"], q,
                     calibrated["summary"]["path"], "--strict-exit"])
        docs, err = read_stdout_docs(capsys)
        assert code == 2
        assert len(docs) == 2  # both tests by default
        for doc in docs:
            validate_against_schema(doc, load_schema("verdict"))
        assert any(d["shift_detected"] for d in docs)

    def test_single_test_selection(self, calibrated, capsys):
        q = write_q_csv(calibrated["tmp"], shifted=True)
        code = main(["test", calibrated["cfg"], q,
                     calibrated["summary"]["path"], "--test", "entropy"])
        docs, _ = read_stdout_docs(capsys)
        assert code == 0  # no --strict-exit: completion exit code
        assert len(docs) == 1
        assert docs[0]["test"] == "detectron_entropy"

    def test_jobs_flag_refused(self, calibrated, capsys):
        # test runs no calibration, so it takes no worker count
        q = write_q_csv(calibrated["tmp"])
        with pytest.raises(SystemExit) as exc:
            main(["test", calibrated["cfg"], q,
                  calibrated["summary"]["path"], "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_wrong_size_q_exit_one(self, calibrated, capsys):
        q = write_q_csv(calibrated["tmp"], n=7)
        code = main(["test", calibrated["cfg"], q,
                     calibrated["summary"]["path"]])
        _, err = read_stdout_docs(capsys)
        assert code == 1
        assert "sample size" in err

    def test_config_hash_mismatch_exit_one(self, calibrated, capsys, tmp_path):
        q = write_q_csv(calibrated["tmp"])
        other_cfg = write_config(
            calibrated["tmp"],
            text=SMOKE_CONFIG.replace("max_opt_steps = 5",
                                      "max_opt_steps = 4"))
        code = main(["test", other_cfg, q, calibrated["summary"]["path"]])
        _, err = read_stdout_docs(capsys)
        assert code == 1
        assert "mismatch" in err

    def test_tampered_calibration_exit_one(self, calibrated, capsys):
        path = calibrated["summary"]["path"]
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["entropy_runs"][0][0] = 5.0   # above log 2
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        q = write_q_csv(calibrated["tmp"])
        code = main(["test", calibrated["cfg"], q, path])
        docs, err = read_stdout_docs(capsys)
        assert code == 1
        assert docs == []
        assert err.strip().splitlines()[-1].endswith(
            "cannot load calibration: calibration entropies leave "
            "[0, log 2]")

    def test_calibrate_writes_model_beside_record(self, calibrated):
        record = calibrated["summary"]["path"]
        assert record.endswith(".json")
        f = load_model(record[:-len(".json")] + ".model.json")
        snapshot = json.load(open(record))["config_snapshot"]
        assert model_fingerprint(f) == snapshot["model_fingerprint"]

    @pytest.mark.parametrize("shifted, digest", [
        (True, "2582d95dc634d92b84194ad6fa4f4aa5"
               "15e04c4896da0067f2cc10c0433ea3d9"),
        (False, "78c2e7caefcec9b2f6e48509e8dafdc6"
                "380fa840895237c3677c4a28fff30738"),
    ], ids=["shifted", "unshifted"])
    def test_no_fit_same_verdicts_as_refit(self, calibrated, capsys,
                                           monkeypatch, shifted, digest):
        """The verdicts, apart from wall_time_ms, that test gave when it
        refitted the base model from the config on every call.  The task
        path fits only in ``detectron``, so the patch there covers it."""
        def no_fit(*args, **kwargs):
            raise AssertionError("test fitted a model")

        monkeypatch.setattr("shiftguard.detectron.fit", no_fit)
        q = write_q_csv(calibrated["tmp"], shifted=shifted)
        assert main(["test", calibrated["cfg"], q,
                     calibrated["summary"]["path"]]) == 0
        docs, _ = read_stdout_docs(capsys)
        for doc in docs:
            del doc["wall_time_ms"]
        text = json.dumps(docs, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("damage, message", [
        ("delete", "no file"),
        ("truncate", "Unterminated string|Expecting"),
        ("change_weight", "calibration/config mismatch in model_fingerprint:"),
        ("other_seed", "calibration/config mismatch in model_fingerprint:"),
    ])
    def test_bad_model_file_exit_one(self, calibrated, capsys, damage,
                                     message):
        record = calibrated["summary"]["path"]
        path = record[:-len(".json")] + ".model.json"
        if damage == "delete":
            os.remove(path)
        elif damage == "truncate":
            text = open(path).read()
            open(path, "w").write(text[:len(text) // 2])
        elif damage == "change_weight":
            f = load_model(path)
            f.weights[0][0, 0] += 1e-9
            save_model(f, path)
        else:
            assert main(["calibrate", calibrated["cfg"], "--seed", "6"]) == 0
            other = read_stdout_docs(capsys)[0][0]["path"]
            shutil.copyfile(other[:-len(".json")] + ".model.json", path)
        q = write_q_csv(calibrated["tmp"])
        assert main(["test", calibrated["cfg"], q, record]) == 1
        docs, err = read_stdout_docs(capsys)
        assert docs == []
        (line,) = err.splitlines()
        assert line.startswith("error: ")
        assert re.search(message, line)
        if damage in ("delete", "truncate"):
            assert path in line

    @pytest.mark.parametrize("content, message", [
        (None, r"nope\.csv: No such file or directory$"),
        ("x0,x1\n0.5,abc\n", "unparseable cell at row 2, column 'x1': "
                              "'abc'$"),
    ], ids=["missing", "unparseable"])
    def test_unreadable_candidate_exit_one(self, calibrated, capsys, content,
                                           message):
        path = calibrated["tmp"] / "nope.csv"
        if content is not None:
            path.write_text(content)
        assert main(["test", calibrated["cfg"], str(path),
                     calibrated["summary"]["path"]]) == 1
        docs, err = read_stdout_docs(capsys)
        assert docs == []
        (line,) = err.splitlines()
        assert line.startswith("error: cannot read candidate sample: ")
        assert re.search(message, line)

    def test_verdicts_appended_not_clobbered(self, calibrated, capsys):
        q = write_q_csv(calibrated["tmp"])
        assert main(["test", calibrated["cfg"], q,
                     calibrated["summary"]["path"]]) == 0
        read_stdout_docs(capsys)
        out_dir = str(calibrated["tmp"] / "results")
        vfile = [f for f in os.listdir(out_dir)
                 if f.startswith("verdicts_")][0]
        path = os.path.join(out_dir, vfile)
        n_before = len(open(path).readlines())
        assert main(["test", calibrated["cfg"], q,
                     calibrated["summary"]["path"]]) == 0
        read_stdout_docs(capsys)
        assert len(open(path).readlines()) == 2 * n_before


VERDICT = {"test": "detectron_entropy", "statistic": 0.5, "threshold": 0.05,
           "shift_detected": False, "sample_size": 20, "seeds": {},
           "wall_time_ms": 1.0, "config_hash": "", "flags": []}
BENCH_ROW = {"kind": "benchmark_row", "detector": "ctst", "N": 20,
             "tpr": 0.5, "std_err": 0.1, "trials": 30, "seed": 0}
PSI_DOC = {"kind": "psi_curve", "budget_steps": 3, "runs": 2,
           "sample_size": 20, "seed": 0, "psi": [0.1, 0.2, 0.15],
           "std_err": [0.01, 0.02, 0.01]}


class TestBenchmarkAndReport:
    def test_benchmark_stub_detector_row(self, tmp_path, capsys):
        text = SMOKE_CONFIG.replace(
            "sample_size = 20",
            "sample_size = 20\ndetectors = always_reject,never_reject")
        cfg = write_config(tmp_path, text.replace(
            "trials = 30\npsi_budget = 8\npsi_runs = 4", "trials = 40"))
        assert main(["benchmark", cfg]) == 0
        docs, err = read_stdout_docs(capsys)
        rows = [d for d in docs if d["kind"] == "benchmark_row"]
        always = [r for r in rows if r["detector"] == "always_reject"][0]
        never = [r for r in rows if r["detector"] == "never_reject"][0]
        assert (always["tpr"], always["std_err"]) == (1.0, 0.0)
        assert never["tpr"] == 0.0
        out_dir = tmp_path / "results"
        csvs = [f for f in os.listdir(out_dir) if f.endswith(".csv")]
        assert csvs
        header = open(out_dir / csvs[0]).readline().strip()
        assert header == "detector,N,tpr,std_err,trials,seed"

    def test_benchmark_rows_share_one_stream(self, tmp_path, capsys,
                                             monkeypatch):
        """Every (detector, N) row is scored on the same stream, so on the
        same data, base model and candidate draws."""
        seen = []

        def record_stream(task, detector, n, trials, alpha, rng, jobs=1,
                          prepared=None):
            seen.append((detector, n, repr(rng)))
            preps.append(prepared)
            return 0.5, 0.1

        preps = []

        monkeypatch.setattr("shiftguard.cli.evaluate_power", record_stream)
        text = SMOKE_CONFIG.replace(
            "sample_size = 20",
            "sample_size = 20\ndetectors = detectron_entropy,ctst")
        cfg = write_config(tmp_path, text.replace(
            "sample_sizes = 20", "sample_sizes = 10,20").replace(
            "psi_budget = 8", "psi_budget = 0"))
        assert main(["benchmark", cfg]) == 0
        read_stdout_docs(capsys)
        stream = repr(RngStream(5, 0).split(5))
        assert seen == [(d, n, stream) for d in ("detectron_entropy", "ctst")
                        for n in (10, 20)]
        # and the one preparation of that stream's data and base model
        assert preps[0] is not None
        assert all(p is preps[0] for p in preps)

    def test_report_aggregates_rates_and_psi(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        verdicts = [
            {"test": "detectron_entropy", "statistic": 0.5, "threshold": 0.05,
             "shift_detected": i < 10, "sample_size": 20, "seeds": {},
             "wall_time_ms": 1.0, "config_hash": "", "flags": []}
            for i in range(200)
        ]
        with open(results / "verdicts_abc_0.jsonl", "w") as fh:
            for v in verdicts:
                fh.write(json.dumps(v) + "\n")
        psi_doc = {"kind": "psi_curve", "budget_steps": 3, "runs": 2,
                   "sample_size": 20, "seed": 0,
                   "psi": [0.1, 0.2, 0.15], "std_err": [0.01, 0.02, 0.01]}
        with open(results / "psi_xyz_0.json", "w") as fh:
            json.dump(psi_doc, fh)
        assert main(["report", str(results)]) == 0
        docs, err = read_stdout_docs(capsys)
        rate = [d for d in docs if d.get("kind") == "report_rate"][0]
        assert rate["runs"] == 200
        assert rate["detections"] == 10
        assert rate["rate"] == pytest.approx(0.05)
        psi_csv = results / "psi_curve.csv"
        lines = open(psi_csv).read().splitlines()
        assert lines[0] == "source_seed,step,psi,std_err"
        assert len(lines) == 1 + 3  # one row per budget step

    @pytest.mark.parametrize("name, lines, message", [
        ("verdicts_abc_0.jsonl", [VERDICT, "{not json"],
         "line 2: Expecting property name"),
        ("verdicts_abc_0.jsonl", [VERDICT, "", {**VERDICT, "test": None}],
         "line 3: verdict.test: expected string, got NoneType"),
        ("verdicts_abc_0.jsonl",
         [{k: v for k, v in VERDICT.items() if k != "shift_detected"}],
         "line 1: verdict: missing required key 'shift_detected'"),
        ("benchmark_abc_0.jsonl",
         [{k: v for k, v in BENCH_ROW.items() if k != "detector"}],
         "line 1: benchmark_row: missing required key 'detector'"),
        ("psi_abc_0.json", ['{"kind": "psi_curve",', "  budget_steps: 3}"],
         "line 2: Expecting property name"),
        ("psi_abc_0.json", [{**PSI_DOC, "psi": [0.1, "x", 0.15]}],
         r"line 1: psi_curve\.psi\[1\]: expected number, got str"),
    ], ids=["not-json", "wrong-type", "no-shift_detected", "no-detector",
            "psi-not-json", "psi-wrong-type"])
    def test_report_malformed_file_exit_one(self, tmp_path, capsys, name,
                                            lines, message):
        """A results file that is not what its name says is refused with
        one line naming the file and the line."""
        results = tmp_path / "results"
        results.mkdir()
        with open(results / "verdicts_good_0.jsonl", "w") as fh:
            fh.write(json.dumps(VERDICT) + "\n")
        with open(results / name, "w") as fh:
            for line in lines:
                fh.write((line if isinstance(line, str)
                          else json.dumps(line)) + "\n")
        assert main(["report", str(results)]) == 1
        docs, err = read_stdout_docs(capsys)
        assert docs == []
        (line,) = err.splitlines()
        assert line.startswith(
            f"error: malformed results file {results / name} ")
        assert re.search(message, line)

    def test_psi_prepared_on_the_rows_stream(self, tmp_path, capsys,
                                             monkeypatch):
        """The psi curve is drawn on the data split and base model that
        every benchmark row is scored on, prepared once per benchmark."""
        import shiftguard.cli as cli
        import shiftguard.detectron as detectron
        seen = []
        real = detectron.prepare_task

        def record_stream(task, rng):
            seen.append(repr(rng))
            return real(task, rng)

        monkeypatch.setattr(cli, "prepare_task", record_stream)
        monkeypatch.setattr(detectron, "prepare_task", record_stream)
        never = types.SimpleNamespace(shift_detected=False)
        monkeypatch.setattr(detectron, "make_detector",
                            lambda *args, **kwargs: lambda Q_X, rng: never)
        text = SMOKE_CONFIG.replace(
            "sample_size = 20",
            "sample_size = 20\ndetectors = detectron_entropy")
        cfg = write_config(tmp_path, text.replace(
            "sample_sizes = 20", "sample_sizes = 10,20").replace(
            "psi_budget = 8\npsi_runs = 4", "psi_budget = 2\npsi_runs = 2"))
        assert main(["benchmark", cfg]) == 0
        docs, _ = read_stdout_docs(capsys)
        assert [d["kind"] for d in docs] == ["benchmark_row"] * 2 + [
            "psi_curve"]
        assert seen == [repr(RngStream(5, 0).split(5).split(0))]

    def test_report_empty_dir_exit_one(self, tmp_path, capsys):
        empty = tmp_path / "results"
        empty.mkdir()
        assert main(["report", str(empty)]) == 1

    def test_benchmark_psi_curve_emitted(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        body = open(cfg).read().replace(
            "detectors = detectron_disagreement,detectron_entropy", "")
        body = body.replace("sample_size = 20",
                            "sample_size = 20\ndetectors = detectron_entropy")
        body = body.replace("trials = 30", "trials = 30")
        open(cfg, "w").write(body)
        assert main(["benchmark", cfg]) == 0
        docs, err = read_stdout_docs(capsys)
        psi = [d for d in docs if d.get("kind") == "psi_curve"]
        assert psi and len(psi[0]["psi"]) == 8


class TestConfigPlumbing:
    def test_defaults_materialized(self, tmp_path):
        cfg = tmp_path / "min.cfg"
        cfg.write_text("[run]\nseed = 3\n")
        rc = load_run_config(str(cfg))
        assert rc.getint("test", "K") == 100
        assert rc.getint("cdc", "ensemble_max") == 5
        assert rc.getfloat("test", "alpha") == 0.05

    def test_canonical_text_stable(self, tmp_path):
        cfg_a = tmp_path / "a.cfg"
        cfg_a.write_text("[run]\nseed = 3\n[test]\nK = 50\nalpha = 0.05\n")
        cfg_b = tmp_path / "b.cfg"
        cfg_b.write_text("[test]\nalpha = 0.05\nK = 50\n[run]\nseed = 3\n")
        a = canonical_config_text(load_run_config(str(cfg_a)), 3)
        b = canonical_config_text(load_run_config(str(cfg_b)), 3)
        assert a == b

    @pytest.mark.parametrize("command", ["calibrate", "test", "benchmark"])
    @pytest.mark.parametrize("old, new, message", [
        ("n_source = 500", "n_source = x",
         "invalid data.n_source: 'x' is not an integer"),
        ("n_target = 300", "n_target = 3e2",
         "invalid data.n_target: '3e2' is not an integer"),
        ("n_target = 300", "n_target = 300\nseed = s",
         "invalid data.seed: 's' is not an integer"),
        ("n_target = 300", "n_target = 300\ndelta = far",
         "invalid data.delta: 'far' is not a number"),
        ("n_target = 300", "n_target = 300\nfractions = 0.5,0.1,0.1",
         "cannot partition source data: fractions must sum to 1"),
    ])
    def test_bad_data_value_exit_one(self, tmp_path, capsys, command, old,
                                     new, message):
        """Every command reads [data] through the same task builder and
        splits the source through the same library call, so a value that
        does not parse, or a split that cannot be made, is refused on one
        line before any file but the config is read."""
        cfg = write_config(tmp_path, SMOKE_CONFIG.replace(old, new))
        argv = [command, cfg]
        if command == "test":
            argv += [str(tmp_path / "q.csv"), str(tmp_path / "rec.json")]
        assert main(argv) == 1
        out, err = read_stdout_docs(capsys)
        assert out == []
        assert err.splitlines() == [f"error: {message}"]

    def test_empty_step_cap_is_none(self, tmp_path):
        cfg = write_config(tmp_path, SMOKE_CONFIG.replace(
            "max_opt_steps = 5", "max_opt_steps ="))
        assert cdc_spec_from_config(load_run_config(cfg)).max_opt_steps is None

    @pytest.mark.parametrize("name, key", [
        ("smoke", "7b68093a02b4e673"),
        ("null_fpr", "8c0c7784db6af22e"),
        ("gauss_benchmark", "97e0ee2eb28feaa9"),
    ])
    def test_shipped_config_run_key(self, name, key):
        """The effective config of each shipped profile, defaults
        included, at its own [run] seed: result file names and caches
        stay where earlier runs put them."""
        rc = load_run_config(os.path.join(CONFIGS, f"{name}.cfg"))
        assert run_key(rc, rc.seed) == key

    def test_schema_validator_catches_violations(self):
        schema = load_schema("verdict")
        good = {"test": "x", "statistic": 0.1, "threshold": 0.2,
                "shift_detected": False, "sample_size": 3, "seeds": {},
                "wall_time_ms": 0.5}
        validate_against_schema(good, schema)
        with pytest.raises(ValueError, match="missing required"):
            validate_against_schema({"test": "x"}, schema)
        bad = dict(good, statistic="high")
        with pytest.raises(ValueError, match="expected number"):
            validate_against_schema(bad, schema)

    @pytest.mark.parametrize("key", ["sample_size", "statistic"])
    def test_schema_validator_refuses_booleans(self, key):
        """Python counts True as 1, but JSON's true is neither an integer
        nor a number."""
        doc = {"test": "x", "statistic": 0.1, "threshold": 0.2,
               "shift_detected": False, "sample_size": 3, "seeds": {},
               "wall_time_ms": 0.5, key: True}
        with pytest.raises(ValueError, match=rf"\$\.{key}: expected .*, "
                                             "got bool"):
            validate_against_schema(doc, load_schema("verdict"))


def write_big_uci_dir(tmp_path, n_src=150, n_tgt=80):
    """UCI-format files large enough to partition and train on: label
    follows a threshold on age with domain-shifted blood pressure."""
    rng = rng_stream(123, 0)
    d = tmp_path / "uci"
    d.mkdir()

    def rows(n, shift, seed_offset):
        r = rng_stream(123, seed_offset)
        out = []
        for i in range(n):
            age = 40 + 20 * r.uniform()
            label = 1 if age > 50 else 0
            bp = 120 + 15 * r.normal() + shift
            cells = [f"{age:.1f}", "1.0", "3.0", f"{bp:.1f}", "240.0",
                     "0.0", "1.0", f"{150 - age:.1f}", "0.0",
                     "1.0", "2.0", "0.0", "3.0", str(label)]
            out.append(",".join(cells))
        return out

    half_s, half_t = n_src // 2, n_tgt // 2
    (d / "processed.cleveland.data").write_text(
        "\n".join(rows(half_s, 0.0, 1)) + "\n")
    (d / "processed.hungarian.data").write_text(
        "\n".join(rows(n_src - half_s, 0.0, 2)) + "\n")
    (d / "processed.switzerland.data").write_text(
        "\n".join(rows(half_t, 60.0, 3)) + "\n")
    (d / "processed.va.data").write_text(
        "\n".join(rows(n_tgt - half_t, 60.0, 4)) + "\n")
    return str(d)


class TestUciBenchmarkPath:
    def test_benchmark_runs_on_dataset_task(self, tmp_path, capsys):
        uci_dir = write_big_uci_dir(tmp_path)
        cfg = tmp_path / "uci.cfg"
        cfg.write_text(f"""
[run]
seed = 4
output_dir = {tmp_path / 'results'}

[data]
uci_dir = {uci_dir}
fractions = 0.6,0.2,0.2

[learner]
kind = gbt

[test]
K = 20
alpha = 0.05
sample_size = 10
detectors = detectron_disagreement

[benchmark]
sample_sizes = 10
trials = 30
""")
        assert main(["benchmark", str(cfg)]) == 0
        docs, err = read_stdout_docs(capsys)
        rows = [doc for doc in docs if doc["kind"] == "benchmark_row"]
        assert rows and rows[0]["detector"] == "detectron_disagreement"
        assert 0.0 <= rows[0]["tpr"] <= 1.0

    def test_benchmark_source_csv_rejected(self, tmp_path, capsys):
        src = tmp_path / "src.csv"
        src.write_text("a,y\n1,0\n2,1\n")
        cfg = tmp_path / "b.cfg"
        cfg.write_text(f"[run]\nseed = 1\n[data]\nsource_csv = {src}\n")
        assert main(["benchmark", str(cfg)]) == 1
        _, err = read_stdout_docs(capsys)
        assert "shifted target source" in err


def write_source_csv(tmp_path, n=200):
    """A labelled two-feature CSV: class 1 sits 1.5 to the right."""
    X = rng_stream(31, 0).normal((n, 2))
    labels = np.arange(n) % 2
    X[:, 0] += 1.5 * labels
    path = tmp_path / "source.csv"
    path.write_text("f0,f1,y\n" + "".join(
        f"{float(x[0])!r},{float(x[1])!r},{y}\n"
        for x, y in zip(X, labels)))
    return str(path)


SOURCE_TEST_SECTIONS = """
[learner]
kind = gbt

[gbt]
num_rounds = 3
max_depth = 3

[test]
K = 20
alpha = 0.05
sample_size = 10
"""


class TestCalibrationRecordPins:
    """The sha256 of the record bytes ``calibrate`` writes, one per data
    source: a generator, a labelled CSV and the UCI heart files.  A change
    to how a command reads its data, splits it or fits the base model
    moves these."""

    def record_sha256(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.setenv("SHIFTGUARD_CACHE", str(tmp_path / "cache"))
        assert main(["calibrate", *argv]) == 0
        path = read_stdout_docs(capsys)[0][-1]["path"]
        return hashlib.sha256(open(path, "rb").read()).hexdigest()

    def test_generator_record(self, tmp_path, capsys, monkeypatch):
        digest = self.record_sha256(
            tmp_path, capsys, monkeypatch,
            [os.path.join(CONFIGS, "smoke.cfg"), "--seed", "5"])
        assert digest == (
            "8636183f570228fd7fa157ab4917d791"
            "00399a3a99a9528b30f6f20d1022525f")

    def test_source_csv_record(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "csv.cfg"
        cfg.write_text(f"[run]\nseed = 7\n[data]\nsource_csv = "
                       f"{write_source_csv(tmp_path)}\n"
                       + SOURCE_TEST_SECTIONS)
        digest = self.record_sha256(tmp_path, capsys, monkeypatch,
                                    [str(cfg)])
        assert digest == (
            "16832b7a15a75f0b52a601a686612871"
            "3d777016e1a3ccaa8c91c6501f11ad9b")

    def test_uci_dir_record(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "uci.cfg"
        cfg.write_text(f"[run]\nseed = 4\n[data]\nuci_dir = "
                       f"{write_big_uci_dir(tmp_path)}\n"
                       "fractions = 0.6,0.2,0.2\n" + SOURCE_TEST_SECTIONS)
        digest = self.record_sha256(tmp_path, capsys, monkeypatch,
                                    [str(cfg)])
        assert digest == (
            "5b26a3d8d6343e8ddf4906e26fa5dcd4"
            "7413d6e1946d79e2e2cd365c30059ce1")
