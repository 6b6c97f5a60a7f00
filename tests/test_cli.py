import csv
import io
import json
import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from dpsketch import Domain, build_map
from dpsketch.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_csv(path, data, header=None):
    data = np.atleast_2d(data)
    if header is None:
        header = [f"x{j + 1}" for j in range(data.shape[1])]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(data.tolist())


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


@pytest.fixture
def dataset(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.uniform(size=(400, 3))
    path = tmp_path / "data.csv"
    write_csv(path, data)
    return path, data


@pytest.fixture
def hist_sketch(tmp_path, dataset, capsys):
    path, data = dataset
    out = tmp_path / "sketch.json"
    code = main(["sketch", str(path), "--out", str(out), "--map", "hist",
                 "--bins", "20", "--epsilon", "inf"])
    capsys.readouterr()
    assert code == 0
    return out, data


class TestSketchCommand:
    def test_writes_file_and_reports_scales(self, tmp_path, dataset, capsys):
        path, _ = dataset
        out = tmp_path / "s.json"
        code, stdout, stderr = run_cli(
            capsys, "sketch", str(path), "--out", str(out), "--map", "hist",
            "--bins", "10", "--epsilon", "1.0", "--noise-seed", "7")
        assert code == 0
        assert out.exists()
        rows = parse_csv(stdout)
        assert rows[0] == ["sensitivity_l1", "noise_scale_sum",
                           "noise_scale_count", "noisy_count"]
        assert float(rows[1][0]) == 3.0  # d = 3
        assert float(rows[1][1]) == pytest.approx(3.0 / 0.98)
        assert float(rows[1][2]) == pytest.approx(1.0 / 0.02)
        assert "wrote" in stderr

    def test_epsilon_inf_reports_zero_noise(self, tmp_path, dataset, capsys):
        path, data = dataset
        out = tmp_path / "s.json"
        code, stdout, _ = run_cli(
            capsys, "sketch", str(path), "--out", str(out), "--epsilon", "inf")
        assert code == 0
        rows = parse_csv(stdout)
        assert float(rows[1][1]) == 0.0
        assert float(rows[1][3]) == data.shape[0]

    def test_out_of_domain_value_exits_2_without_file(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        write_csv(path, [[0.5, 1.5], [0.1, 0.2]])
        out = tmp_path / "s.json"
        code, _, stderr = run_cli(
            capsys, "sketch", str(path), "--out", str(out), "--map", "hist")
        assert code == 2
        assert not out.exists()
        assert "error" in stderr

    @pytest.mark.parametrize("kind", ["rff", "race"])
    def test_out_of_domain_value_exits_2_for_every_map(self, tmp_path,
                                                        capsys, kind):
        path = tmp_path / "bad.csv"
        write_csv(path, [[0.5, 50.0], [0.1, 0.2]])
        out = tmp_path / "s.json"
        code, _, stderr = run_cli(
            capsys, "sketch", str(path), "--out", str(out), "--map", kind)
        assert code == 2
        assert not out.exists()
        assert "schema violation" in stderr

    def test_non_numeric_value_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2\n0.5,oops\n")
        code, _, stderr = run_cli(
            capsys, "sketch", str(path), "--out", str(tmp_path / "s.json"))
        assert code == 2
        assert "non-numeric" in stderr

    @pytest.mark.parametrize("text", [
        "x1,x2,x3\n1,2,3\n4,5\n",      # ragged
        "x1,x2\n#0.5,0.2\n",           # non-numeric: no comment syntax
        "x1,x2\n",                      # header only
        "",                              # empty
        "x1,x2\n0.5,nan\n",            # non-finite
    ], ids=["ragged", "non-numeric", "header-only", "empty", "nan"])
    def test_malformed_csv_exits_2_naming_the_file(self, tmp_path, capsys,
                                                   text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        out = tmp_path / "s.json"
        code, stdout, stderr = run_cli(
            capsys, "sketch", str(path), "--out", str(out))
        assert code == 2
        assert stdout == "" and not out.exists()
        assert stderr.startswith(f"error: {path}: ")

    def test_config_file_with_flag_override(self, tmp_path, dataset, capsys):
        path, _ = dataset
        cfg = tmp_path / "sketch.cfg"
        cfg.write_text("map=rff\nm=40\nsigma=2.0\nepsilon=inf\n")
        out = tmp_path / "s.json"
        # --m on the command line overrides the config value
        code, _, _ = run_cli(
            capsys, "sketch", str(path), "--out", str(out),
            "--config", str(cfg), "--m", "60")
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["spec"]["variant"] == "RFF"
        assert doc["spec"]["m"] == 60

    def test_unknown_config_key_exits_2(self, tmp_path, dataset, capsys):
        path, _ = dataset
        cfg = tmp_path / "sketch.cfg"
        cfg.write_text("bogus=1\n")
        code, _, stderr = run_cli(
            capsys, "sketch", str(path), "--out", str(tmp_path / "s.json"),
            "--config", str(cfg))
        assert code == 2
        assert "bogus" in stderr

    def test_schema_file(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        write_csv(path, [[5.0, 0.5], [9.0, 0.2]])
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"columns": [
            {"name": "x1", "lower": 0.0, "upper": 10.0},
            {"name": "x2", "lower": 0.0, "upper": 1.0},
        ]}))
        out = tmp_path / "s.json"
        code, _, _ = run_cli(
            capsys, "sketch", str(path), "--out", str(out),
            "--schema", str(schema), "--map", "hist", "--bins", "5")
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["spec"]["domain"]["upper"] == [10.0, 1.0]

    def test_normalize_warns_and_records_constants(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        write_csv(path, [[5.0, 0.5], [9.0, 0.2], [7.0, 0.9]])
        out = tmp_path / "s.json"
        code, _, stderr = run_cli(
            capsys, "sketch", str(path), "--out", str(out), "--normalize",
            "--map", "hist", "--bins", "4")
        assert code == 0
        assert "leak" in stderr
        doc = json.loads(out.read_text())
        assert doc["normalization"]["min"] == [5.0, 0.2]
        assert doc["normalization"]["max"] == [9.0, 0.9]

    @pytest.mark.parametrize("value, normalized", [
        ("1", True), ("TRUE", True), ("true", True), ("0", False),
        ("False", False),
    ])
    def test_config_normalize_values(self, tmp_path, dataset, capsys, value,
                                     normalized):
        path, _ = dataset
        cfg = tmp_path / "sketch.cfg"
        cfg.write_text(f"normalize={value}\n")
        out = tmp_path / "s.json"
        code, _, stderr = run_cli(capsys, "sketch", str(path), "--out",
                                  str(out), "--config", str(cfg))
        assert code == 0
        assert ("normalization" in json.loads(out.read_text())) is normalized
        assert ("leak" in stderr) is normalized

    @pytest.mark.parametrize("kind", ["hist", "rff", "race"])
    def test_map_defaults_are_the_library_defaults(self, tmp_path, dataset,
                                                   capsys, kind):
        path, data = dataset
        out = tmp_path / "s.json"
        code, _, stderr = run_cli(capsys, "sketch", str(path), "--out",
                                  str(out), "--map", kind, "--map-seed", "5",
                                  "--epsilon", "inf")
        assert code == 0, stderr
        doc = json.loads(out.read_text())
        spec = build_map(kind, Domain.unit(data.shape[1]), 5, {})
        assert doc["spec"] == spec.to_dict()
        assert doc["spec_id"] == spec.spec_id

    def test_byte_identical_reruns(self, tmp_path, dataset, capsys):
        path, _ = dataset
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            code, _, _ = run_cli(
                capsys, "sketch", str(path), "--out", str(out), "--map", "rff",
                "--m", "20", "--epsilon", "1.0", "--map-seed", "3",
                "--noise-seed", "4")
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


class TestEstimateCommand:
    def test_library_warning_is_one_line(self, tmp_path, dataset, capsys):
        path, _ = dataset
        out = tmp_path / "s.json"
        assert main(["sketch", str(path), "--out", str(out), "--map", "hist",
                     "--bins", "20", "--epsilon", "1", "--noise-seed",
                     "3"]) == 0
        capsys.readouterr()
        # m = 60 exceeds --n-synth
        code, stdout, stderr = run_cli(
            capsys, "estimate", str(out), "moment 1 1", "--n-synth", "40")
        assert code == 0
        lines = stderr.splitlines()
        assert len(lines) == 1, stderr
        assert lines[0].startswith("warning: n_synth=40 ")
        assert ".py:" not in stderr
        rows = parse_csv(stdout)
        assert rows[0] == ["target", "estimate"]
        assert rows[1][0] == "moment 1 1"

    def test_moment_with_truth(self, tmp_path, dataset, hist_sketch, capsys):
        out, data = hist_sketch
        path, _ = dataset
        code, stdout, _ = run_cli(
            capsys, "estimate", str(out), "moment 1 1",
            "--truth", str(path), "--n-synth", "20000")
        assert code == 0
        rows = parse_csv(stdout)
        assert rows[0][:3] == ["target", "estimate", "true_value"]
        est, truth = float(rows[1][1]), float(rows[1][2])
        assert truth == pytest.approx(data[:, 0].mean())
        assert est == pytest.approx(truth, abs=0.01)
        assert rows[1][3] == "mre"

    def test_count_target(self, tmp_path, hist_sketch, capsys):
        out, data = hist_sketch
        code, stdout, _ = run_cli(
            capsys, "estimate", str(out), "count x1<=0.5 and x2>=0.25",
            "--n-synth", "20000")
        assert code == 0
        rows = parse_csv(stdout)
        truth = ((data[:, 0] <= 0.5) & (data[:, 1] >= 0.25)).mean()
        assert float(rows[1][1]) == pytest.approx(truth, abs=0.05)

    def test_malformed_target_exits_2(self, hist_sketch, capsys):
        out, _ = hist_sketch
        code, _, stderr = run_cli(capsys, "estimate", str(out), "momento 1 1")
        assert code == 2
        assert "parse" in stderr

    def test_corrupt_sketch_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = run_cli(capsys, "estimate", str(bad), "moment 1 1")
        assert code == 2


class TestCdfCommand:
    def test_cdf_rows_and_emd(self, tmp_path, dataset, hist_sketch, capsys):
        out, data = hist_sketch
        path, _ = dataset
        code, stdout, stderr = run_cli(
            capsys, "cdf", str(out), "--attr", "2", "--truth", str(path),
            "--n-synth", "20000")
        assert code == 0
        rows = parse_csv(stdout)
        assert rows[0] == ["target", "threshold", "estimate", "true_value"]
        assert len(rows) == 11
        values = [float(r[2]) for r in rows[1:]]
        assert values[-1] == pytest.approx(1.0, abs=1e-6)
        assert "emd=" in stderr


class TestCovCommand:
    def test_symmetric_output(self, tmp_path, dataset, capsys):
        path, data = dataset
        out = tmp_path / "s.json"
        run_cli(capsys, "sketch", str(path), "--out", str(out), "--map",
                "rff", "--m", "60", "--epsilon", "inf")
        code, stdout, stderr = run_cli(
            capsys, "cov", str(out), "--truth", str(path),
            "--n-synth", "20000")
        assert code == 0
        M = np.array([[float(v) for v in row] for row in parse_csv(stdout)])
        assert M.shape == (3, 3)
        np.testing.assert_array_equal(M, M.T)
        assert "frobenius=" in stderr


class TestQueryBatch:
    def test_batch_answers(self, tmp_path, dataset, hist_sketch, capsys):
        out, data = hist_sketch
        path, _ = dataset
        queries = tmp_path / "q.txt"
        queries.write_text(
            "x1<=0.5 and x2>=0.2 and x3<=0.9\n"
            "x1>=0.25 and x2<=0.75 and x3>=0.5\n")
        code, stdout, _ = run_cli(
            capsys, "query-batch", str(out), str(queries),
            "--truth", str(path), "--n-synth", "20000")
        assert code == 0
        rows = parse_csv(stdout)
        assert rows[0] == ["query", "fraction", "count", "true_fraction"]
        assert len(rows) == 3
        for row in rows[1:]:
            assert float(row[1]) == pytest.approx(float(row[3]), abs=0.05)
            # count = fraction x noisy count (exactly 400 at epsilon=inf)
            assert float(row[2]) == float(row[1]) * 400.0

    def test_bad_query_exits_2(self, tmp_path, hist_sketch, capsys):
        out, _ = hist_sketch
        queries = tmp_path / "q.txt"
        queries.write_text("x1<0.5 and x2>=0.2 and x3<=0.9\n")
        code, _, _ = run_cli(capsys, "query-batch", str(out), str(queries))
        assert code == 2

    def test_wrong_predicate_count_exits_2(self, tmp_path, hist_sketch, capsys,
                                           monkeypatch):
        from dpsketch import SyntheticFeatures

        def no_solve(*args):
            raise AssertionError("queries must be checked before any solve")

        monkeypatch.setattr(SyntheticFeatures, "solve", no_solve)
        out, _ = hist_sketch
        queries = tmp_path / "q.txt"
        queries.write_text("x1<=0.5\n")
        code, _, _ = run_cli(capsys, "query-batch", str(out), str(queries))
        assert code == 2


class TestFitLogreg:
    def test_trains_and_writes_model(self, tmp_path, capsys):
        from dpsketch.harness import gen_separable_classification

        data = gen_separable_classification(2000, 3, seed=1)
        train = tmp_path / "train.csv"
        test = tmp_path / "test.csv"
        write_csv(train, data[:1500])
        write_csv(test, data[1500:])
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"columns": [
            {"name": "x1"}, {"name": "x2"},
            {"name": "y", "kind": "binary"},
        ]}))
        out = tmp_path / "s.json"
        run_cli(capsys, "sketch", str(train), "--out", str(out), "--map",
                "rff", "--m", "60", "--epsilon", "inf",
                "--schema", str(schema))
        model_out = tmp_path / "model.json"
        code, stdout, _ = run_cli(
            capsys, "fit-logreg", str(out), str(test),
            "--model-out", str(model_out), "--n-synth", "10000",
            "--step", "2.0", "--iters", "300")
        assert code == 0
        rows = parse_csv(stdout)
        assert rows[0] == ["auc"]
        assert float(rows[1][0]) > 0.8
        doc = json.loads(model_out.read_text())
        assert len(doc["theta"]) == 2
        assert "lambda" in doc["config"]
        assert doc["converged"] is True
        assert 1 <= doc["newton_steps"] <= 300
        assert doc["rho"] > 0
        assert doc["penalized_objective"] >= doc["objective"]
        # written like a sketch file, and the temporary file renamed away
        assert model_out.read_text() == json.dumps(doc, sort_keys=True,
                                                   indent=1) + "\n"
        assert not (tmp_path / "model.json.tmp").exists()

    @pytest.fixture
    def rff_logreg(self, tmp_path, capsys):
        from dpsketch.harness import gen_separable_classification

        data = gen_separable_classification(2000, 3, seed=1)
        train = tmp_path / "train.csv"
        test = tmp_path / "test.csv"
        write_csv(train, data[:1500])
        write_csv(test, data[1500:])
        out = tmp_path / "s.json"
        code = main(["sketch", str(train), "--out", str(out), "--map", "rff",
                     "--m", "60", "--epsilon", "10", "--map-seed", "1",
                     "--noise-seed", "2"])
        capsys.readouterr()
        assert code == 0
        return out, test

    def _fit(self, capsys, rff_logreg, model_out, *extra):
        out, test = rff_logreg
        return run_cli(capsys, "fit-logreg", str(out), str(test),
                       "--model-out", str(model_out), "--n-synth", "3000",
                       "--synth-seed", "3", *extra)

    @pytest.mark.parametrize("iters", ["0", "-3"])
    def test_iters_below_one_exits_2(self, tmp_path, rff_logreg, capsys,
                                     iters):
        model_out = tmp_path / "model.json"
        code, stdout, stderr = self._fit(capsys, rff_logreg, model_out,
                                         "--iters", iters)
        assert code == 2
        assert stdout == ""
        assert "--iters" in stderr
        assert not model_out.exists()

    @pytest.mark.parametrize("step", ["-1", "0", "2.0"])
    def test_step_is_accepted_and_unused(self, tmp_path, rff_logreg, capsys,
                                         step):
        plain, stepped = tmp_path / "plain.json", tmp_path / "stepped.json"
        code, plain_out, plain_err = self._fit(capsys, rff_logreg, plain)
        assert code == 0 and "note:" not in plain_err
        code, stdout, stderr = self._fit(capsys, rff_logreg, stepped,
                                         "--step", step)
        assert code == 0, stderr
        assert stepped.read_bytes() == plain.read_bytes()
        assert stdout == plain_out
        notes = [line for line in stderr.splitlines()
                 if line.startswith("note:")]
        assert len(notes) == 1 and "--step" in notes[0]

    def test_step_cap_warns_once(self, tmp_path, rff_logreg, capsys):
        model_out = tmp_path / "model.json"
        code, _, stderr = self._fit(capsys, rff_logreg, model_out,
                                    "--iters", "1")
        assert code == 0
        warnings = [line for line in stderr.splitlines()
                    if line.startswith("warning:")]
        assert len(warnings) == 1 and "--iters 1" in warnings[0]
        doc = json.loads(model_out.read_text())
        assert doc["converged"] is False
        assert doc["newton_steps"] == 1
        assert doc["config"]["iters"] == 1

    def test_model_file_identical_across_runs(self, tmp_path, rff_logreg,
                                              capsys):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        code, _, stderr = self._fit(capsys, rff_logreg, first)
        assert code == 0 and "warning" not in stderr
        assert self._fit(capsys, rff_logreg, second)[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_hist_map_warns(self, tmp_path, dataset, hist_sketch, capsys):
        out, _ = hist_sketch
        rng = np.random.default_rng(2)
        labeled = np.column_stack([rng.uniform(size=(100, 2)),
                                   rng.integers(0, 2, size=100)])
        test = tmp_path / "labeled.csv"
        write_csv(test, labeled)
        code, _, stderr = run_cli(
            capsys, "fit-logreg", str(out), str(test), "--n-synth", "2000",
            "--iters", "10")
        assert code == 0
        assert "cross-attribute" in stderr

    def test_single_class_test_file_exits_2(self, tmp_path, dataset,
                                            hist_sketch, capsys):
        out, _ = hist_sketch
        path, _ = dataset
        # the raw uniform dataset has no binary labels at all
        code, _, stderr = run_cli(
            capsys, "fit-logreg", str(out), str(path), "--n-synth", "2000",
            "--iters", "10")
        assert code == 2
        assert "classes" in stderr

    @pytest.mark.parametrize("label", [0.6, 2.0])
    def test_non_binary_label_exits_2(self, tmp_path, hist_sketch, capsys,
                                      label):
        out, _ = hist_sketch
        rng = np.random.default_rng(3)
        labeled = np.column_stack([rng.uniform(size=(100, 2)),
                                   rng.integers(0, 2, size=100)])
        labeled[17, -1] = label
        test = tmp_path / "labeled.csv"
        write_csv(test, labeled)
        code, stdout, stderr = run_cli(
            capsys, "fit-logreg", str(out), str(test), "--n-synth", "2000",
            "--iters", "10")
        assert code == 2
        assert stdout == ""
        assert "schema violation" in stderr
        assert "record 17, attribute 2" in stderr


class TestInspect:
    def test_fields(self, hist_sketch, capsys):
        out, data = hist_sketch
        code, stdout, _ = run_cli(capsys, "inspect", str(out))
        assert code == 0
        fields = dict(parse_csv(stdout)[1:])
        assert fields["variant"] == "HIST"
        assert fields["d"] == "3"
        assert fields["m"] == "60"
        assert fields["epsilon_num"] == "inf"
        assert float(fields["noisy_count"]) == data.shape[0]


    @pytest.mark.parametrize("epsilon", ["1.0", "inf"])
    def test_noise_scales_match_sketch_output(self, tmp_path, dataset, capsys,
                                              epsilon):
        path, _ = dataset
        out = tmp_path / "s.json"
        code, stdout, _ = run_cli(
            capsys, "sketch", str(path), "--out", str(out), "--map", "race",
            "--hashes", "4", "--buckets", "6", "--epsilon", epsilon,
            "--noise-seed", "5", "--map-seed", "6")
        assert code == 0
        sketch_row = dict(zip(*parse_csv(stdout)))
        code, stdout, _ = run_cli(capsys, "inspect", str(out))
        assert code == 0
        fields = dict(parse_csv(stdout)[1:])
        for key in ("noise_scale_sum", "noise_scale_count"):
            assert fields[key] == sketch_row[key]
        if epsilon == "inf":
            assert fields["noise_scale_sum"] == "0.0"


class TestEval:
    def test_quick_plan_run(self, tmp_path, capsys):
        plan = tmp_path / "plan.cfg"
        plan.write_text(
            "dataset=random10\nn=300\nd=3\nsketches=hist\n"
            "epsilons=inf,1\nrepetitions=2\ntasks=mean\nn_synth=2000\n")
        outdir = tmp_path / "results"
        code, _, stderr = run_cli(
            capsys, "eval", "--plan", str(plan), "--out", str(outdir),
            "--quick")
        assert code == 0
        assert (outdir / "results.csv").exists()
        assert (outdir / "aggregate.csv").exists()

    def test_malformed_dataset_exits_2_naming_the_file(self, tmp_path,
                                                         capsys):
        data = tmp_path / "ragged.csv"
        data.write_text("x1,x2,x3\n0.1,0.2,0.3\n0.4,0.5\n")
        plan = tmp_path / "plan.cfg"
        plan.write_text(f"dataset={data}\nsketches=hist\nepsilons=inf\n"
                        "repetitions=1\ntasks=mean\nn_synth=500\n")
        code, _, stderr = run_cli(
            capsys, "eval", "--plan", str(plan), "--out", str(tmp_path / "r"))
        assert code == 2
        assert stderr.startswith(f"error: {data}: non-numeric value")

    @pytest.mark.parametrize("case", [
        "sketches=wavelet", "n=0", "d=2", "tasks=foo", "csv-d=2",
        "n_synth=0", "extra_reg=0", "extra_reg=inf", "seed=-1", "n_queries=0",
    ])
    def test_bad_plan_exits_2(self, tmp_path, capsys, case):
        values = {"n": "200", "d": "3", "sketches": "hist", "epsilons": "inf",
                  "repetitions": "1", "tasks": "mean", "n_synth": "500"}
        if case == "d=2":
            values.update(d="2", tasks="mean,queries")
        elif case == "n_queries=0":
            values.update(n_queries="0", tasks="queries")
        elif case == "csv-d=2":
            data = tmp_path / "two.csv"
            write_csv(data, np.random.default_rng(0).uniform(size=(50, 2)))
            values.update(dataset=str(data), tasks="queries")
        else:
            key, value = case.split("=")
            values[key] = value
        plan = tmp_path / "plan.cfg"
        plan.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
        out = tmp_path / "r"
        code, _, stderr = run_cli(capsys, "eval", "--plan", str(plan),
                                  "--out", str(out))
        assert code == 2
        assert stderr.startswith("error: ")
        assert not (out / "results.csv").exists()

    def test_unknown_plan_key_exits_2(self, tmp_path, capsys):
        plan = tmp_path / "plan.cfg"
        plan.write_text("wat=1\n")
        code, _, _ = run_cli(
            capsys, "eval", "--plan", str(plan), "--out", str(tmp_path / "r"))
        assert code == 2


class TestBadOptionValues:
    @pytest.mark.parametrize("case", [
        "epsilon", "split", "config-bins", "schema-array", "schema-columns",
        "schema-lower", "plan-n", "n-synth", "map", "synth-seed",
        "noise-seed", "env-seed", "map-seed-hist", "map-seed-rff",
        "map-seed-race", "config-map-seed", "extra-reg-nan", "extra-reg-inf",
        "sigma-inf", "sigma-tiny", "sigma-overflows", "r-width-inf",
        "r-width-overflows", "schema-upper-inf", "config-normalize",
    ])
    def test_exits_2_with_message(self, tmp_path, dataset, hist_sketch,
                                  capsys, monkeypatch, case):
        path, _ = dataset
        out = tmp_path / "s.json"
        sketch = ["sketch", str(path), "--out", str(out)]
        cfg = tmp_path / "in.cfg"
        if case == "config-bins":
            cfg.write_text("bins=abc\n")
        elif case == "schema-array":
            cfg.write_text("[]")
        elif case.startswith("schema"):
            cols = {"schema-columns": ["a", "b", "c"],
                    "schema-lower": [{"lower": "x"}, {}, {}],
                    # json writes and reads it as Infinity
                    "schema-upper-inf": [{"upper": math.inf}, {}, {}]}[case]
            cfg.write_text(json.dumps({"columns": cols}))
        elif case == "plan-n":
            cfg.write_text("n=abc\n")
        elif case == "config-map-seed":
            cfg.write_text("map=race\nmap_seed=-1\n")
        elif case == "config-normalize":
            cfg.write_text("normalize=yes\n")
        elif case == "env-seed":
            monkeypatch.setenv("DPSKETCH_SEED", "-3")
        argv = {
            "epsilon": sketch + ["--epsilon", "abc"],
            "map": sketch + ["--map", "wavelet"],
            "split": sketch + ["--split", "1.5", "--epsilon", "1"],
            "config-bins": sketch + ["--config", str(cfg)],
            "schema-array": sketch + ["--schema", str(cfg)],
            "schema-columns": sketch + ["--schema", str(cfg)],
            "schema-lower": sketch + ["--schema", str(cfg)],
            "schema-upper-inf": sketch + ["--schema", str(cfg)],
            "plan-n": ["eval", "--plan", str(cfg), "--out", str(tmp_path / "r")],
            "n-synth": ["estimate", str(hist_sketch[0]), "moment 1 1",
                        "--n-synth", "0"],
            "synth-seed": ["estimate", str(hist_sketch[0]), "moment 1 1",
                           "--n-synth", "500", "--synth-seed", "-1"],
            "noise-seed": sketch + ["--epsilon", "1", "--noise-seed", "-1"],
            "env-seed": sketch + ["--epsilon", "1"],
            "map-seed-hist": sketch + ["--map", "hist", "--map-seed", "-1"],
            "map-seed-rff": sketch + ["--map", "rff", "--map-seed", "-1"],
            "map-seed-race": sketch + ["--map", "race", "--map-seed", "-1"],
            "config-map-seed": sketch + ["--config", str(cfg)],
            "config-normalize": sketch + ["--config", str(cfg)],
            "extra-reg-nan": ["estimate", str(hist_sketch[0]), "moment 1 1",
                              "--n-synth", "500", "--extra-reg", "nan"],
            "extra-reg-inf": ["estimate", str(hist_sketch[0]), "moment 1 1",
                              "--n-synth", "500", "--extra-reg", "inf"],
            "sigma-inf": sketch + ["--map", "rff", "--sigma", "inf"],
            "sigma-tiny": sketch + ["--map", "rff", "--sigma", "1e-320"],
            # the scaled frequencies overflow to inf
            "sigma-overflows": sketch + ["--map", "rff", "--sigma", "1e-308"],
            "r-width-inf": sketch + ["--map", "race", "--r-width", "inf"],
            # the bucket index would overflow int64
            "r-width-overflows": sketch + ["--map", "race",
                                           "--r-width", "1e-320"],
        }[case]
        code, stdout, stderr = run_cli(capsys, *argv)
        assert code == 2
        assert stdout == "" and not out.exists()
        assert stderr.startswith("error: ")
        assert "warning:" not in stderr
        if case.startswith("schema"):
            assert stderr.startswith(f"error: {cfg}: ")
        if case == "config-normalize":
            # the file, the key and the accepted values
            assert stderr == (f"error: {cfg}: normalize='yes' is not a valid "
                              "boolean (1, true, 0 or false)\n")


class TestFileErrors:
    """A file that cannot be read or written exits 1 with one `error:`
    line, for every file argument of every command."""

    @pytest.mark.parametrize("case", [
        "sketch-input", "sketch-schema", "sketch-config", "estimate-sketch",
        "cdf-sketch", "cov-sketch", "query-batch-sketch",
        "fit-logreg-sketch", "inspect-sketch", "truth",
        "query-batch-queries", "fit-logreg-test", "eval-plan",
        "sketch-out-dir", "fit-logreg-model-out-dir", "eval-out-file",
    ])
    def test_exits_1(self, tmp_path, dataset, capsys, case):
        data_csv, data = dataset
        missing = str(tmp_path / "nope")
        in_missing_dir = str(tmp_path / "nodir" / "out.json")
        queries = tmp_path / "q.txt"
        queries.write_text("x1<=0.5 and x2>=0.2 and x3<=0.9\n")
        labelled = tmp_path / "test.csv"  # the last column is the label
        write_csv(labelled, np.column_stack([data[:, :2], data[:, 2] > 0.5]))
        sketch = str(tmp_path / "rff.json")  # HIST would add a warning line
        assert main(["sketch", str(labelled), "--out", sketch, "--map", "rff",
                     "--m", "20", "--epsilon", "inf"]) == 0
        capsys.readouterr()
        plan = tmp_path / "plan.cfg"
        plan.write_text("dataset=random10\nn=300\nd=3\nsketches=hist\n"
                        "epsilons=inf\ntasks=mean\nn_synth=500\n")
        exists = tmp_path / "exists.txt"
        exists.write_text("")
        fit = ["--n-synth", "500"]
        sketch_args = ["sketch", str(data_csv), "--out",
                       str(tmp_path / "s.json")]
        argv = {
            "sketch-input": ["sketch", missing, "--out",
                             str(tmp_path / "s.json")],
            "sketch-schema": sketch_args + ["--schema", missing],
            "sketch-config": sketch_args + ["--config", missing],
            "estimate-sketch": ["estimate", missing, "moment 1 1"],
            "cdf-sketch": ["cdf", missing, "--attr", "1"],
            "cov-sketch": ["cov", missing],
            "query-batch-sketch": ["query-batch", missing, str(queries)],
            "fit-logreg-sketch": ["fit-logreg", missing, str(labelled)],
            "inspect-sketch": ["inspect", missing],
            "truth": ["estimate", sketch, "moment 1 1", "--truth", missing,
                      *fit],
            "query-batch-queries": ["query-batch", sketch, missing, *fit],
            "fit-logreg-test": ["fit-logreg", sketch, missing, *fit],
            "eval-plan": ["eval", "--plan", missing, "--out",
                          str(tmp_path / "r")],
            "sketch-out-dir": ["sketch", str(data_csv), "--out",
                               in_missing_dir],
            "fit-logreg-model-out-dir": ["fit-logreg", sketch, str(labelled),
                                         "--model-out", in_missing_dir,
                                         *fit],
            "eval-out-file": ["eval", "--plan", str(plan), "--out",
                              str(exists)],
        }[case]
        code, stdout, stderr = run_cli(capsys, *argv)
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error: ") and len(stderr.splitlines()) == 1
        assert "Traceback" not in stderr
        assert not (tmp_path / "s.json").exists()
        assert not (tmp_path / "nodir").exists()


def test_wrapped_library_functions_are_looked_up_at_call_time(
        tmp_path, capsys, monkeypatch):
    # perfbench's tracer replaces these module attributes after the CLI is
    # imported; a CLI that bound them by name at import would bypass the
    # replacements, and the traced per-layer spans would read 0
    import dpsketch.reweighting
    import dpsketch.sketch
    import dpsketch.targets

    calls = {}
    for module, names in (
            (dpsketch.sketch, ("sketch_exact", "privatize", "save_sketch",
                               "load_sketch")),
            (dpsketch.targets, ("estimate_cdf", "estimate_covariance",
                                "answer_queries")),
            (dpsketch.reweighting, ("fit_logistic_from_sketch",
                                    "evaluate_auc"))):
        for name in names:
            calls[name] = 0

            def counted(*args, _fn=getattr(module, name), _name=name,
                        **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

    data = np.random.default_rng(0).uniform(size=(400, 3))
    data[:, 2] = data[:, 0] + data[:, 1] > 1.0
    path = tmp_path / "data.csv"
    write_csv(path, data)
    queries = tmp_path / "q.txt"
    queries.write_text("x1<=0.5 and x2>=0.2 and x3<=0.9\n")
    sketch = str(tmp_path / "s.json")
    fit = ["--n-synth", "500", "--synth-seed", "1"]
    for argv in (
            ["sketch", str(path), "--out", sketch, "--map", "rff", "--m",
             "20", "--epsilon", "inf"],
            ["estimate", sketch, "moment 1 1", *fit],
            ["cdf", sketch, "--attr", "1", *fit],
            ["cov", sketch, *fit],
            ["query-batch", sketch, str(queries), *fit],
            ["fit-logreg", sketch, str(path), *fit]):
        assert run_cli(capsys, *argv)[0] == 0, argv
    assert {name for name, n in calls.items() if n == 0} == set()


class TestAttributeBeyondD:
    @pytest.mark.parametrize("argv", [
        ["estimate", "moment 9 1"],
        ["estimate", 'count "x9<=0.5"'],
        ["cdf", "--attr", "9"],
        ["query-batch"],
    ], ids=["moment", "count", "cdf", "query-batch"])
    def test_exits_2(self, tmp_path, hist_sketch, capsys, argv):
        out, _ = hist_sketch
        args = [argv[0], str(out), *argv[1:]]
        if argv[0] == "query-batch":
            queries = tmp_path / "q.txt"
            queries.write_text("x1<=0.5 and x2>=0.2 and x9<=0.9\n")
            args.append(str(queries))
        code, stdout, stderr = run_cli(capsys, *args, "--n-synth", "500")
        assert code == 2
        assert stdout == ""
        assert "attribute 9 out of range for d=3" in stderr


class TestTruthFile:
    @pytest.mark.parametrize("argv", [
        ["estimate", "moment 3 1"],
        ["estimate", 'count "x1<=0.5"'],
        ["cdf", "--attr", "1"],
        ["cov"],
        ["query-batch"],
    ], ids=["moment", "count", "cdf", "cov", "query-batch"])
    def test_narrower_than_d_exits_2_naming_the_file(self, tmp_path,
                                                     hist_sketch, capsys,
                                                     argv):
        out, data = hist_sketch
        truth = tmp_path / "truth.csv"
        write_csv(truth, data[:, :2])
        args = [argv[0], str(out), *argv[1:]]
        if argv[0] == "query-batch":
            queries = tmp_path / "q.txt"
            queries.write_text("x1<=0.5 and x2>=0.2 and x3<=0.9\n")
            args.append(str(queries))
        code, stdout, stderr = run_cli(capsys, *args, "--truth", str(truth),
                                       "--n-synth", "500")
        assert code == 2
        assert stdout == ""
        assert stderr == (f"error: {truth}: expected 3 attributes, "
                          "got 2\n")


class TestSeedEnvVar:
    def test_env_seed_changes_noise(self, tmp_path, dataset, capsys,
                                    monkeypatch):
        path, _ = dataset
        outs = []
        for seed in ("1", "2"):
            monkeypatch.setenv("DPSKETCH_SEED", seed)
            out = tmp_path / f"s{seed}.json"
            run_cli(capsys, "sketch", str(path), "--out", str(out),
                    "--map", "hist", "--bins", "5", "--epsilon", "1.0")
            outs.append(json.loads(out.read_text()))
        assert outs[0]["noisy_sum"] != outs[1]["noisy_sum"]

    def test_env_seed_reproduces(self, tmp_path, dataset, capsys, monkeypatch):
        path, _ = dataset
        monkeypatch.setenv("DPSKETCH_SEED", "9")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            run_cli(capsys, "sketch", str(path), "--out", str(out),
                    "--map", "hist", "--bins", "5", "--epsilon", "1.0")
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_env_seed_exits_2(self, tmp_path, dataset, capsys,
                                        monkeypatch):
        path, _ = dataset
        monkeypatch.setenv("DPSKETCH_SEED", "abc")
        out = tmp_path / "s.json"
        code, stdout, stderr = run_cli(capsys, "sketch", str(path), "--out",
                                       str(out), "--map", "hist")
        assert code == 2
        assert stdout == "" and not out.exists()
        assert stderr.startswith("error: DPSKETCH_SEED")

    def test_default_noise_is_fresh_and_unpublished(self, tmp_path, dataset,
                                                    capsys, monkeypatch):
        path, _ = dataset
        monkeypatch.delenv("DPSKETCH_SEED", raising=False)
        docs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code, _, _ = run_cli(capsys, "sketch", str(path), "--out",
                                 str(out), "--map", "hist", "--bins", "5",
                                 "--epsilon", "1.0")
            assert code == 0
            docs.append(json.loads(out.read_text()))
        assert docs[0]["noisy_sum"] != docs[1]["noisy_sum"]
        assert not [key for doc in docs for key in doc if "seed" in key]


class TestRffOutput:
    def test_sketch_and_inspect_rows_are_plain_floats(self, tmp_path, dataset,
                                                      capsys):
        path, _ = dataset
        out = tmp_path / "s.json"
        code, stdout, _ = run_cli(
            capsys, "sketch", str(path), "--out", str(out), "--map", "rff",
            "--m", "20", "--epsilon", "1.0", "--noise-seed", "3")
        assert code == 0
        for value in parse_csv(stdout)[1]:
            float(value)
        code, stdout, _ = run_cli(capsys, "inspect", str(out))
        assert code == 0
        fields = dict(parse_csv(stdout)[1:])
        assert float(fields["sensitivity_l1"]) == pytest.approx(
            10 * 2 ** 0.5)


MISSING = object()  # a key deleted from the sketch file


class TestMalformedSketchValues:
    @pytest.mark.parametrize("command", ["estimate", "inspect"])
    @pytest.mark.parametrize("key, value", [
        ("noisy_sum", float("nan")),
        ("noisy_sum", "1.65"),
        ("noisy_sum", True),
        ("noisy_count", float("inf")),
        ("noisy_count", "abc"),
        ("epsilon_num", -1),
        ("noisy_count", MISSING),
        ("spec_id", MISSING),
        ("spec.params", MISSING),
        ("spec.domain.kinds", MISSING),
    ], ids=["sum-nan", "sum-text", "sum-bool", "count-inf", "count-text",
            "eps-num-negative", "missing-count", "missing-spec-id",
            "missing-params", "missing-kinds"])
    def test_exits_2_naming_the_file(self, tmp_path, hist_sketch, capsys,
                                     command, key, value):
        out, _ = hist_sketch
        doc = json.loads(out.read_text())
        *parents, key = key.split(".")
        node = doc
        for parent in parents:
            node = node[parent]
        if value is MISSING:
            del node[key]
        elif key == "noisy_sum":
            doc[key][7] = value
        else:
            doc[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        extra = ["moment 1 1", "--n-synth", "500"] if command == "estimate" \
            else []
        code, stdout, stderr = run_cli(capsys, command, str(bad), *extra)
        assert code == 2
        assert stdout == ""
        assert str(bad) in stderr and key in stderr
        if value is MISSING:
            assert stderr == f"error: {bad}: missing key {key!r}\n"


class TestMalformedSpec:
    @pytest.mark.parametrize("command", ["estimate", "inspect"])
    def test_exits_2_naming_the_file(self, tmp_path, capsys, command,
                                     malformed_sketch_doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(malformed_sketch_doc))
        extra = ["moment 1 1", "--n-synth", "500"] if command == "estimate" \
            else []
        code, stdout, stderr = run_cli(capsys, command, str(bad), *extra)
        assert code == 2
        assert stdout == ""
        assert stderr.startswith(f"error: {bad}: ")
        assert len(stderr.splitlines()) == 1


class TestTruncatedSketch:
    def test_estimate_exits_2(self, tmp_path, hist_sketch, capsys):
        out, _ = hist_sketch
        doc = json.loads(out.read_text())
        doc["noisy_sum"] = doc["noisy_sum"][:-1]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, stderr = run_cli(capsys, "estimate", str(bad), "moment 1 1",
                                  "--n-synth", "500")
        assert code == 2
        assert "noisy_sum" in stderr


def test_cli_never_loads_scipy(tmp_path, child_env):
    # importing scipy takes longer than importing numpy, on every command
    code = textwrap.dedent("""
        import sys
        import numpy as np
        from dpsketch.cli import main

        def report():
            print("scipy modules:", sorted(
                m for m in sys.modules if m.split(".")[0] == "scipy"))

        report()
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(1500, 3))
        X[:, 2] = X[:, 0] + X[:, 1] > 1.0
        np.savetxt("data.csv", X, delimiter=",", header="a,b,y",
                   comments="", fmt="%.17g")
        with open("schema.json", "w") as fh:
            fh.write('{"columns": [{"name": "a"}, {"name": "b"},'
                     ' {"name": "y", "kind": "binary"}]}')
        for argv in (
                ["sketch", "data.csv", "--out", "race.json", "--map", "race",
                 "--hashes", "40", "--buckets", "40", "--r-width", "0.2",
                 "--epsilon", "1", "--map-seed", "1", "--noise-seed", "2"],
                ["estimate", "race.json", "moment 1 1", "--n-synth", "4000",
                 "--synth-seed", "3"],
                ["sketch", "data.csv", "--out", "rff.json", "--map", "rff",
                 "--m", "20", "--epsilon", "10", "--schema", "schema.json",
                 "--map-seed", "4", "--noise-seed", "5"],
                ["fit-logreg", "rff.json", "data.csv", "--n-synth", "2000",
                 "--synth-seed", "6"]):
            assert main(argv) == 0, argv
        report()
    """)
    res = subprocess.run([sys.executable, "-c", code], env=child_env(1),
                         capture_output=True, text=True, cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    reports = [line for line in res.stdout.splitlines()
               if line.startswith("scipy modules:")]
    assert reports == ["scipy modules: []"] * 2
