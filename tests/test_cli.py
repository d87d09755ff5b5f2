import csv
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from expectile_mf import (
    MaskedMatrix,
    global_stats,
    loss_and_gradient,
    read_matrix_csv,
)
from expectile_mf.cli import cli, main
from expectile_mf.model import model_from_dict


NAN = float("nan")


def run(argv):
    return main([str(a) for a in argv])


def write_records(path, person_field="p1"):
    """Heart-rate records CSV: one person, two days, every other five-minute segment."""
    rows = ["person_id,timestamp,bpm"]
    rng = np.random.default_rng(0)
    for day in (1, 2):
        for seg in range(0, 288, 2):
            h, m = divmod(seg * 5, 60)
            rows.append(f"{person_field},2016-04-{day:02d}T{h:02d}:{m:02d}:30,"
                        f"{60 + rng.integers(0, 40)}")
    Path(path).write_text("\n".join(rows) + "\n")


def with_normalization(model_doc, **fields):
    """A model JSON document with fields of its normalization block replaced."""
    return json.dumps({**model_doc, "normalization": {**model_doc["normalization"], **fields}})


def read_manifest(primary_output):
    """The manifest next to primary_output, without its wall-clock field."""
    doc = json.loads(Path(f"{primary_output}.manifest.json").read_text())
    del doc["wall_time_seconds"]
    return doc


@pytest.fixture
def sim_csv(tmp_path):
    path = tmp_path / "X.csv"
    code = run(["simulate", "--rows", 30, "--cols", 24, "--true-rank", 1,
                "--sigma", 0.1, "--na", 0.2, "--seed", 5, "--out", path])
    assert code == 0
    return path


class TestSimulate:
    def test_outputs_exist(self, sim_csv, tmp_path):
        assert sim_csv.exists()
        assert (tmp_path / "X.truth.json").exists()
        assert (tmp_path / "X.csv.manifest.json").exists()
        x = read_matrix_csv(sim_csv)
        assert (x.n_rows, x.n_cols) == (30, 24)

    def test_matches_library_generate(self, sim_csv):
        from expectile_mf import SimulationSpec, generate

        sim = generate(SimulationSpec(m=30, n=24, sigma=0.1, na_portion=0.2,
                                      true_rank=1, seed=5))
        x = read_matrix_csv(sim_csv)
        assert np.array_equal(x.mask, sim.x.mask)
        np.testing.assert_allclose(x.values[x.mask], sim.x.values[sim.x.mask], rtol=0)

    def test_default_shape_is_bench_spec(self, tmp_path):
        from expectile_mf import SimulationSpec, generate

        path = tmp_path / "X.csv"
        assert run(["simulate", "--out", path]) == 0
        sim = generate(SimulationSpec(m=200, n=200, seed=20160229))
        x = read_matrix_csv(path)
        assert np.array_equal(x.mask, sim.x.mask)
        assert np.array_equal(x.values, sim.x.values)

    def test_manifest_names_subcommand(self, sim_csv):
        doc = json.loads((sim_csv.parent / "X.csv.manifest.json").read_text())
        assert doc["subcommand"] == "simulate"
        assert doc["seeds"] == [5]


class TestFit:
    def test_fit_writes_model_and_report(self, sim_csv, tmp_path):
        model_path = tmp_path / "model.json"
        code = run(["fit", "--input", sim_csv, "--tau", 0.5, "--rank", 1,
                    "--algorithm", "lbfgs", "--seed", 1, "--output", model_path])
        assert code == 0
        assert model_path.exists()
        report = json.loads((tmp_path / "model.report.json").read_text())
        assert list(report) == ["final_loss", "iterations", "function_evals",
                                "elapsed_seconds", "status", "restart_losses"]
        assert report["final_loss"] >= 0.0
        assert report["status"] in ("grad_tolerance_met", "max_iters", "line_search_failure")

    def test_model_json_reevaluates_to_reported_loss(self, sim_csv, tmp_path):
        model_path = tmp_path / "model.json"
        run(["fit", "--input", sim_csv, "--tau", 0.3, "--rank", 1,
             "--seed", 1, "--output", model_path])
        report = json.loads((tmp_path / "model.report.json").read_text())
        model, tau, info = model_from_dict(json.loads(model_path.read_text()))
        x = read_matrix_csv(sim_csv)
        scaled = np.where(x.mask, (x.values - info.mean) / info.std, 0.0)
        xn = MaskedMatrix(scaled, x.mask)
        value = loss_and_gradient(model, xn, tau)
        assert abs(value.loss - report["final_loss"]) < 1e-12

    def test_warm_start_round_trip(self, sim_csv, tmp_path):
        first = tmp_path / "m1.json"
        second = tmp_path / "m2.json"
        run(["fit", "--input", sim_csv, "--tau", 0.5, "--seed", 1, "--output", first])
        code = run(["fit", "--input", sim_csv, "--tau", 0.9, "--seed", 1,
                    "--warm-start", first, "--output", second])
        assert code == 0


class TestConvergenceWarning:
    def test_capped_fit_warns_on_stderr(self, sim_csv, tmp_path, capsys):
        capsys.readouterr()
        assert run(["fit", "--input", sim_csv, "--tau", 0.3, "--max-iters", 2,
                    "--output", tmp_path / "model.json"]) == 0
        err = capsys.readouterr().err
        assert err == "warning: fit at tau 0.3 stopped with status max_iters after 2 iterations\n"

    def test_converged_fit_is_silent(self, sim_csv, tmp_path, capsys):
        capsys.readouterr()
        assert run(["fit", "--input", sim_csv, "--seed", 1, "--output", tmp_path / "m.json"]) == 0
        report = json.loads((tmp_path / "m.report.json").read_text())
        assert report["status"] == "grad_tolerance_met"
        assert capsys.readouterr().err == ""

    def test_tau_sweep_warns_per_capped_fit(self, sim_csv, tmp_path, capsys):
        capsys.readouterr()
        assert run(["tau-sweep", "--input", sim_csv, "--taus", "0.1,0.9", "--max-iters", 2,
                    "--output-dir", tmp_path / "sweep"]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"warning: fit at tau {tau} stopped with status max_iters after 2 iterations"
            for tau in ("0.1", "0.9")
        ]

    def test_package_warning_is_one_line(self, sim_csv, tmp_path, capsys):
        # A warm start whose factors are all zero has zero factor gradients, so the fit
        # keeps u at zero and canonicalize warns once, without a source path.
        first = tmp_path / "m1.json"
        assert run(["fit", "--input", sim_csv, "--seed", 1, "--output", first]) == 0
        doc = json.loads(first.read_text())
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps({**doc, "u": [0.0] * len(doc["u"]),
                                    "v": [0.0] * len(doc["v"])}))
        capsys.readouterr()
        assert run(["fit", "--input", sim_csv, "--warm-start", zero,
                    "--output", tmp_path / "m2.json"]) == 0
        assert capsys.readouterr().err == "warning: u column 0 has norm 0; left unscaled\n"


class TestTauSweep:
    def test_output_dir_on_a_file_is_two_and_writes_nothing(self, sim_csv, tmp_path, capsys):
        taken = tmp_path / "taken.csv"
        taken.write_text("")
        capsys.readouterr()
        assert run(["tau-sweep", "--input", sim_csv, "--output-dir", taken]) == 2
        assert "File exists" in capsys.readouterr().err
        assert not list(tmp_path.rglob("model_tau*.json"))

    @pytest.mark.parametrize("existing", [False, True], ids=["made", "existing"])
    def test_failed_sweep_makes_no_directory(self, sim_csv, tmp_path, capsys, existing):
        # The first fit rejects the pivot, so no directory is made and one that
        # already existed is kept.
        out_dir = tmp_path / "out" / "sweep"
        if existing:
            out_dir.mkdir(parents=True)
        capsys.readouterr()
        assert run(["tau-sweep", "--input", sim_csv, "--orient-pivot", 999,
                    "--output-dir", out_dir]) == 1
        assert capsys.readouterr().err == "Error: orient_pivot 999 out of range for 30 rows\n"
        assert out_dir.exists() == existing
        assert (tmp_path / "out").exists() == existing

    def test_sweep_outputs(self, sim_csv, tmp_path):
        out_dir = tmp_path / "sweep"
        code = run(["tau-sweep", "--input", sim_csv, "--taus", "0.1,0.5,0.9",
                    "--rank", 1, "--seed", 2, "--output-dir", out_dir])
        assert code == 0
        for tau in ("0.1", "0.5", "0.9"):
            assert (out_dir / f"model_tau{tau}.json").exists()
        summary = (out_dir / "sweep_summary.csv").read_text().splitlines()
        assert summary[0] == "tau,final_loss,iterations,status"
        assert len(summary) == 4


class TestExpectilesCommand:
    def test_long_format(self, sim_csv, tmp_path):
        out = tmp_path / "curves.csv"
        code = run(["expectiles", "--input", sim_csv, "--taus", "0.25,0.75", "--out", out])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "row_index,tau,expectile"
        assert len(lines) == 1 + 30 * 2
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[1]) == 0.25


class TestIccCommand:
    def test_known_value(self, tmp_path):
        data = tmp_path / "grouped.csv"
        data.write_text("a,1\na,1\nb,2\nb,2\n")
        out = tmp_path / "icc.json"
        code = run(["icc", "--input", data, "--out", out])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["icc"] == 1.0
        assert doc["n_groups"] == 2

    # group ids are CSV fields: quoted ones may hold a comma, and surrounding whitespace is
    # not part of the id
    @pytest.mark.parametrize("text", ['"Smith, J",1\n"Smith, J",1\n"Doe, A",2\n"Doe, A",2\n',
                                      " a ,1\na,1\n\n  \nb ,2\nb,2\n"],
                             ids=["quoted-comma", "whitespace"])
    def test_group_ids_are_csv_fields(self, tmp_path, text):
        data = tmp_path / "grouped.csv"
        data.write_text(text)
        out = tmp_path / "icc.json"
        assert run(["icc", "--input", data, "--out", out]) == 0
        assert json.loads(out.read_text()) == {"icc": 1.0, "n_values": 4, "n_groups": 2}


class TestIngestCommand:
    def test_end_to_end(self, tmp_path):
        records = tmp_path / "hr.csv"
        write_records(records)
        out = tmp_path / "matrix.csv"
        labels = tmp_path / "labels.csv"
        code = run(["ingest", "--input", records, "--out", out,
                    "--labels", labels, "--max-missing", 0.7])
        assert code == 0
        x = read_matrix_csv(out)
        assert x.n_rows == 288 and x.n_cols == 2
        # the matrix holds the binned heart rates in bpm, with no sidecar next to it
        assert 60 <= x.observed_values().min() and x.observed_values().max() < 100
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "hr.csv", "labels.csv", "matrix.csv", "matrix.csv.manifest.json"]
        label_lines = labels.read_text().splitlines()
        assert label_lines[0] == "column_index,person_id,date"
        assert len(label_lines) == 3

    def test_record_order_does_not_change_outputs(self, tmp_path):
        # Every tenth segment holds two readings, so its median is their midpoint.
        rows = []
        for day in (1, 2):
            for seg in range(0, 288, 2):
                h, m = divmod(seg * 5, 60)
                rows.append(f"p1,2016-04-{day:02d}T{h:02d}:{m:02d}:30,{60 + seg % 40}")
                if seg % 20 == 0:
                    rows.append(f"p1,2016-04-{day:02d}T{h:02d}:{m + 1:02d}:45,{61 + seg % 40}")
        outputs = []
        for name, records in (("forward", rows), ("reversed", rows[::-1])):
            out = tmp_path / name
            out.mkdir()
            (out / "hr.csv").write_text("\n".join(["person_id,timestamp,bpm", *records]) + "\n")
            assert run(["ingest", "--input", out / "hr.csv", "--out", out / "matrix.csv",
                        "--labels", out / "labels.csv"]) == 0
            outputs.append([(out / f).read_bytes() for f in ("matrix.csv", "labels.csv")])
        assert outputs[0] == outputs[1]
        assert read_matrix_csv(tmp_path / "forward" / "matrix.csv").values[0, 0] == 60.5

    def test_bad_max_missing_is_one(self, tmp_path, capsys):
        records = tmp_path / "hr.csv"
        write_records(records)
        out = tmp_path / "matrix.csv"
        capsys.readouterr()
        assert run(["ingest", "--input", records, "--out", out,
                    "--labels", tmp_path / "labels.csv", "--max-missing", 1.5]) == 1
        assert capsys.readouterr().err == "Error: max_missing_fraction must be in (0, 1)\n"
        assert not out.exists()

    def test_fit_of_ingest_output_records_bpm_scale(self, tmp_path):
        records = tmp_path / "hr.csv"
        write_records(records)
        matrix = tmp_path / "matrix.csv"
        assert run(["ingest", "--input", records, "--out", matrix,
                    "--labels", tmp_path / "labels.csv"]) == 0
        model_path = tmp_path / "model.json"
        assert run(["fit", "--input", matrix, "--max-iters", 20, "--output", model_path]) == 0
        _, _, info = model_from_dict(json.loads(model_path.read_text()))
        assert (info.mean, info.std) == global_stats(read_matrix_csv(matrix))
        assert 60 <= info.mean < 100

    def test_labels_quote_a_person_id_with_a_comma(self, tmp_path):
        records = tmp_path / "hr.csv"
        write_records(records, person_field='"Smith, J"')
        labels = tmp_path / "labels.csv"
        assert run(["ingest", "--input", records, "--out", tmp_path / "matrix.csv",
                    "--labels", labels]) == 0
        with open(labels, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["column_index", "person_id", "date"], ["0", "Smith, J", "2016-04-01"],
                        ["1", "Smith, J", "2016-04-02"]]

    def test_labels_quote_a_person_id_with_a_newline(self, tmp_path):
        records = tmp_path / "hr.csv"
        write_records(records, person_field='"a\nb"')
        labels = tmp_path / "labels.csv"
        assert run(["ingest", "--input", records, "--out", tmp_path / "matrix.csv",
                    "--labels", labels]) == 0
        with open(labels, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [row[1] for row in rows] == ["person_id", "a\nb", "a\nb"]

    def test_labels_quote_a_person_id_with_a_carriage_return(self, tmp_path):
        # csv.writer leaves a lone \r unquoted, so the labels row that holds one is
        # quoted in full; the matrix does not depend on the person id.
        records = tmp_path / "hr.csv"
        write_records(records, person_field='"a\rb"')
        labels = tmp_path / "labels.csv"
        assert run(["ingest", "--input", records, "--out", tmp_path / "matrix.csv",
                    "--labels", labels]) == 0
        with open(labels, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["column_index", "person_id", "date"], ["0", "a\rb", "2016-04-01"],
                        ["1", "a\rb", "2016-04-02"]]
        plain = tmp_path / "plain"
        plain.mkdir()
        write_records(plain / "hr.csv")
        assert run(["ingest", "--input", plain / "hr.csv", "--out", plain / "matrix.csv",
                    "--labels", plain / "labels.csv"]) == 0
        assert (tmp_path / "matrix.csv").read_bytes() == (plain / "matrix.csv").read_bytes()


class TestBandCurvesCommand:
    def test_long_format(self, sim_csv, tmp_path):
        model_path = tmp_path / "model.json"
        run(["fit", "--input", sim_csv, "--tau", 0.5, "--rank", 1,
             "--seed", 1, "--output", model_path])
        out = tmp_path / "bands.csv"
        code = run(["band-curves", "--model", model_path, "--out", out])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,series,value"
        assert len(lines) == 1 + 3 * 30


class TestBench:
    def test_compare_algos_tiny(self, tmp_path):
        out_csv = tmp_path / "cmp.csv"
        out_json = tmp_path / "cmp.json"
        code = run(["bench", "compare-algos", "--rows", 24, "--cols", 20,
                    "--true-rank", 1, "--datasets", 1, "--inits", 1,
                    "--tau", 0.5, "--rank", 1, "--seed", 3,
                    "--out-csv", out_csv, "--out-json", out_json])
        assert code == 0
        assert out_csv.read_text().splitlines()[0] == (
            "dataset,bfgs_loss,bfgs_seconds,bfgs_iterations,lbfgs_loss,lbfgs_seconds,"
            "lbfgs_iterations,cg_loss,cg_seconds,cg_iterations,min_loss_algorithm,"
            "min_time_algorithm,loss_spread")
        doc = json.loads(out_json.read_text())
        assert len(doc["summary"]) == 3
        assert doc["max_loss_spread"] >= 0.0

    def test_resilience_tiny(self, tmp_path, sim_csv, capsys):
        # The raw matrix is normalized before fitting, so no fit warns about its scale.
        out_loss = tmp_path / "loss.csv"
        out_mad = tmp_path / "mad.csv"
        capsys.readouterr()
        code = run(["bench", "resilience", "--input", sim_csv, "--trials", 2,
                    "--tau", 0.5, "--rank", 1, "--grad-tol", 1e-7,
                    "--max-iters", 500, "--seed", 4,
                    "--out-loss-csv", out_loss, "--out-mad-csv", out_mad])
        assert code == 0
        assert capsys.readouterr().err == ""
        assert len(out_loss.read_text().splitlines()) == 3

    def test_rank_sweep_tiny(self, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        out_json = tmp_path / "sweep.json"
        code = run(["bench", "rank-sweep", "--rows", 24, "--cols", 20,
                    "--true-rank", 1, "--ranks", "1,2", "--taus", "0.5",
                    "--algorithms", "lbfgs", "--trials", 2, "--seed", 5,
                    "--out-csv", out_csv, "--out-json", out_json])
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "trial,tau,rank,algorithm,loss,iterations,seconds"
        assert len(lines) == 1 + 2 * 2


class TestManifest:
    # Each manifest's config holds every option the command declares, in
    # declaration order, and its inputs name every input file given.
    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def test_every_command_records_its_options_and_inputs(self, workdir):
        write_records("records.csv")
        Path("grouped.csv").write_text("a,1\na,2\nb,3\nb,5\n")
        bench_spec = ["--rows", 12, "--cols", 10, "--true-rank", 1, "--max-iters", 20]
        commands = [  # (subcommand, argv after it, primary output, input files)
            ("simulate", ["--rows", 30, "--cols", 24, "--true-rank", 1, "--seed", 5,
                          "--out", "X.csv"], "X.csv", []),
            ("ingest", ["--input", "records.csv", "--out", "hr.csv", "--labels", "labels.csv"],
             "hr.csv", ["records.csv"]),
            ("fit", ["--input", "hr.csv", "--max-iters", 20, "--output", "m.json"],
             "m.json", ["hr.csv"]),
            ("fit", ["--input", "hr.csv", "--tau", 0.9, "--warm-start", "m.json",
                     "--max-iters", 20, "--output", "warm.json"],
             "warm.json", ["hr.csv", "m.json"]),
            ("tau-sweep", ["--input", "X.csv", "--taus", "0.5", "--orient-pivot", 3,
                           "--max-iters", 5, "--output-dir", "sweep"],
             "sweep/sweep_summary.csv", ["X.csv"]),
            ("expectiles", ["--input", "X.csv", "--taus", "0.5", "--out", "curves.csv"],
             "curves.csv", ["X.csv"]),
            ("icc", ["--input", "grouped.csv", "--out", "icc.json"], "icc.json", ["grouped.csv"]),
            ("band-curves", ["--model", "m.json", "--out", "bands.csv"], "bands.csv", ["m.json"]),
            ("bench compare-algos", [*bench_spec, "--datasets", 1, "--inits", 1, "--rank", 1,
                                     "--out-csv", "cmp.csv", "--out-json", "cmp.json"],
             "cmp.csv", []),
            ("bench resilience", ["--input", "X.csv", "--trials", 2, "--rank", 1,
                                  "--max-iters", 20, "--out-loss-csv", "gaps.csv",
                                  "--out-mad-csv", "mads.csv"], "gaps.csv", ["X.csv"]),
            ("bench rank-sweep", [*bench_spec, "--ranks", 1, "--algorithms", "lbfgs",
                                  "--trials", 1, "--out-csv", "ranks.csv",
                                  "--out-json", "ranks.json"], "ranks.csv", []),
        ]
        for subcommand, argv, primary, inputs in commands:
            assert run([*subcommand.split(), *argv]) == 0, subcommand
            command = cli
            for name in subcommand.split():
                command = command.commands[name]
            declared = [param.name for param in command.params]
            doc = read_manifest(primary)
            assert doc["subcommand"] == subcommand
            assert list(doc["config"])[:len(declared)] == declared, subcommand
            assert doc["seeds"] == ([doc["config"]["seed"]] if "seed" in declared else [])
            assert doc["inputs"] == inputs, subcommand
        ingest_config = read_manifest("hr.csv")["config"]
        assert (ingest_config["columns_before"], ingest_config["columns_after"]) == (2, 2)
        assert read_manifest("warm.json")["config"]["warm_start_path"] == "m.json"
        assert read_manifest("sweep/sweep_summary.csv")["config"]["orient_pivot"] == 3

    def test_argv_order_does_not_change_manifest(self, sim_csv, workdir):
        options = [["--input", sim_csv], ["--tau", 0.3], ["--rank", 1], ["--seed", 2],
                   ["--max-iters", 20], ["--output", "m.json"]]
        docs = []
        for order in (options, options[::-1]):
            assert run(["fit", *[token for option in order for token in option]]) == 0
            docs.append(read_manifest("m.json"))
        assert docs[0] == docs[1]
        assert list(docs[0]["config"]) == [param.name for param in cli.commands["fit"].params]


class TestExitCodes:
    # Each error class has one table: a data error exits 2 naming the file, a bad
    # option value exits 1 with one Error: line, and an option that does not parse
    # exits 1 with click's usage text. No row writes anything.
    @pytest.mark.parametrize(
        "command, text, message",
        [
            (["fit", "--output", "model.json"], "1,2\n3,inf\n",
             "line 2: column 2: non-finite value inf"),
            (["ingest", "--out", "hr.csv", "--labels", "labels.csv"],
             "person_id,timestamp,bpm\np1,2016-04-01T00:00:30,70\np1,2016-04-01T00:05:30,0\n",
             "line 3: bpm must be finite and positive, got 0.0"),
            (["icc", "--out", "icc.json"], "a,1\nb,x\n", "line 2: bad value 'x'"),
            (["icc", "--out", "icc.json"], "a,1\nb,nan\na,2\nb,3\n",
             "line 2: non-finite value nan"),
            (["icc", "--out", "icc.json"], "a,1\nb,inf\na,2\nb,3\n",
             "line 2: non-finite value inf"),
            (["icc", "--out", "icc.json"], "a,1\nb,-inf\na,2\nb,3\n",
             "line 2: non-finite value -inf"),
            (["expectiles", "--out", "curves.csv"], "1,2\n3,oops\n",
             "line 2: not a number: 'oops'"),
            (["fit", "--output", "model.json"], '1,2\n"3\n",5\n6,x\n',
             "line 4: not a number: 'x'"),
            (["icc", "--out", "icc.json"], 'a,1\n"b\nc",2,3\nd,4\n',
             "line 2: expected 'group_id,value'"),
            (["fit", "--output", "model.json"], "", "no matrix rows found"),
            (["ingest", "--out", "hr.csv", "--labels", "labels.csv"], "", "empty file"),
            (["ingest", "--out", "hr.csv", "--labels", "labels.csv"],
             "person_id,timestamp,bpm\n", "header but no records"),
            (["fit", "--output", "model.json"], "1,2\n3," + "4" * 131_073 + "\n",
             "field larger than field limit (131072)"),
            (["ingest", "--out", "hr.csv", "--labels", "labels.csv"],
             "person_id,timestamp,bpm\np1,2016-04-01T00:00:30," + "7" * 131_073 + "\n",
             "field larger than field limit (131072)"),
            # a check on the values that runs after the reader returns names the file too
            (["fit", "--output", "model.json"], "5,5\n5,5\n",
             "observed entries have zero variance"),
            (["fit", "--output", "model.json"], "1e308,-1e308\n1e308,-1e308\n",
             "observed entries overflow: mean 0.0, std inf"),
            (["tau-sweep", "--output-dir", "sweep"], "5,5\n5,5\n",
             "observed entries have zero variance"),
            (["bench", "resilience", "--out-loss-csv", "loss.csv", "--out-mad-csv", "mad.csv"],
             "5,5\n5,5\n", "observed entries have zero variance"),
            (["fit", "--output", "model.json"], "1,nan\nnan,nan\n",
             "need >= 2 observed entries, have 1"),
            (["expectiles", "--out", "curves.csv"], "1,2\nnan,nan\n",
             "row 1 has no observed entries"),
            (["ingest", "--out", "hr.csv", "--labels", "labels.csv"],
             "person_id,timestamp,bpm\np1,2016-04-01T00:00:30,60\np1,2016-04-02T00:00:30,60\n",
             "no column has enough observed entries"),
            (["icc", "--out", "icc.json"], "", "need at least 2 distinct groups, got 0"),
            (["icc", "--out", "icc.json"], "a,1\na,2\n", "need at least 2 distinct groups, got 1"),
            (["icc", "--out", "icc.json"], "a,1\nb,1\n", "values have zero variance"),
        ],
        ids=["matrix", "records", "icc", "icc-nan", "icc-inf", "icc-minus-inf",
             "expectiles-bad-cell", "matrix-multi-line", "icc-multi-line", "matrix-empty",
             "records-empty", "records-header-only", "matrix-field-limit", "records-field-limit",
             "fit-zero-variance", "fit-overflow", "tau-sweep-zero-variance",
             "resilience-zero-variance", "fit-one-observed", "expectiles-empty-row",
             "ingest-all-sparse", "icc-no-groups", "icc-one-group", "icc-zero-variance"],
    )
    def test_data_error_names_file(self, tmp_path, monkeypatch, capsys, command, text, message):
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        assert run(command + ["--input", bad]) == 2
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert list(tmp_path.iterdir()) == [bad]

    def test_data_error_is_two(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("5,5\n5,5\n")  # zero variance: normalization must fail
        out = tmp_path / "model.json"
        assert run(["fit", "--input", bad, "--output", out]) == 2

    def test_non_finite_cell_is_two_with_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3,inf\n")
        assert run(["fit", "--input", bad, "--output", tmp_path / "model.json"]) == 2
        assert "line 2: column 2: non-finite value inf" in capsys.readouterr().err

    def test_warm_start_with_restarts_is_one(self, sim_csv, tmp_path):
        first = tmp_path / "m1.json"
        assert run(["fit", "--input", sim_csv, "--seed", 1, "--output", first]) == 0
        code = run(["fit", "--input", sim_csv, "--warm-start", first, "--restarts", 4,
                    "--output", tmp_path / "m2.json"])
        assert code == 1
        assert not (tmp_path / "m2.json").exists()

    # check_tau, each config type (SimulationSpec, FitConfig, OptimizeOptions),
    # the pivot range check and tau-sweep's collision check reject a bad option
    # value with ValueError, which main reports as a usage error before any
    # output is written.
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["tau-sweep", "--input", "X.csv", "--rank", 0, "--output-dir", "out"],
             "k must be >= 1"),
            (["simulate", "--rows", 0, "--cols", 5, "--out", "out.csv"],
             "m and n must be positive"),
            (["bench", "compare-algos", "--rows", 20, "--cols", 20, "--max-iters", 0,
              "--out-csv", "out.csv", "--out-json", "out.json"],
             "max_iters must be >= 1"),
            (["bench", "rank-sweep", "--rows", 20, "--cols", 20, "--taus", 1.5, "--trials", 1,
              "--out-csv", "out.csv", "--out-json", "out.json"],
             "tau must be in (0, 1), got 1.5"),
            (["bench", "rank-sweep", "--rows", 20, "--cols", 20, "--trials", 0,
              "--out-csv", "out.csv", "--out-json", "out.json"],
             "n_trials must be >= 1, got 0"),
            (["bench", "rank-sweep", "--rows", 20, "--cols", 20, "--ranks", "1,0", "--trials", 1,
              "--out-csv", "out.csv", "--out-json", "out.json"],
             "ranks must be >= 1, got [1, 0]"),
            (["bench", "rank-sweep", "--rows", 20, "--cols", 20, "--taus", "0.5,0.5", "--trials", 1,
              "--out-csv", "out.csv", "--out-json", "out.json"],
             "taus must not repeat, got [0.5, 0.5]"),
            (["bench", "rank-sweep", "--rows", 20, "--cols", 20, "--ranks", "1,1", "--trials", 1,
              "--out-csv", "out.csv", "--out-json", "out.json"],
             "ranks must not repeat, got [1, 1]"),
            (["bench", "rank-sweep", "--rows", 20, "--cols", 20, "--algorithms", "lbfgs,lbfgs",
              "--trials", 1, "--out-csv", "out.csv", "--out-json", "out.json"],
             "algorithms must not repeat, got ['lbfgs', 'lbfgs']"),
            (["bench", "rank-sweep", "--rows", 20, "--cols", 20, "--algorithms", "lbfgs,foo",
              "--trials", 1, "--out-csv", "out.csv", "--out-json", "out.json"],
             "algorithm must be one of ('bfgs', 'lbfgs', 'cg'), got 'foo'"),
            (["bench", "resilience", "--input", "X.csv", "--rank", 0,
              "--out-loss-csv", "out.csv", "--out-mad-csv", "out2.csv"],
             "k must be >= 1"),
            (["expectiles", "--input", "X.csv", "--taus", 2, "--out", "out.csv"],
             "tau must be in (0, 1), got 2.0"),
            (["fit", "--input", "X.csv", "--restarts", 3, "--orient-pivot", 999,
              "--output", "out.json"],
             "orient_pivot 999 out of range for 30 rows"),
            (["fit", "--input", "X.csv", "--rank", 2, "--orient-pivot", 0, "--output", "out.json"],
             "orient_pivot applies only to k = 1, got k = 2"),
            (["tau-sweep", "--input", "X.csv", "--orient-pivot", -1, "--output-dir", "out"],
             "orient_pivot -1 out of range for 30 rows"),
            (["tau-sweep", "--input", "X.csv", "--taus", "0.5,1.5", "--output-dir", "out"],
             "tau must be in (0, 1), got 1.5"),
            (["simulate", "--rows", 5, "--cols", 5, "--sigma", "inf", "--out", "out.csv"],
             "sigma must be finite and >= 0, got inf"),
            (["tau-sweep", "--input", "X.csv", "--taus", "0.1,0.1000001", "--output-dir", "out"],
             "taus 0.1 and 0.1000001 both write model_tau0.1.json"),
            (["tau-sweep", "--input", "X.csv", "--taus", "0.5,0.1,0.5", "--output-dir", "out"],
             "taus 0.5 and 0.5 both write model_tau0.5.json"),
            (["fit", "--input", "X.csv", "--grad-tol", "inf", "--output", "out.json"],
             "grad_tol must be finite and positive"),
        ],
        ids=["tau-sweep", "simulate", "compare-algos", "rank-sweep", "rank-sweep-trials",
             "rank-sweep-ranks", "rank-sweep-repeated-taus", "rank-sweep-repeated-ranks",
             "rank-sweep-repeated-algorithms", "rank-sweep-algorithms", "resilience",
             "expectiles", "fit-pivot-range", "fit-pivot-rank-2", "tau-sweep-pivot-range",
             "tau-sweep-tau", "simulate-sigma-inf", "tau-sweep-colliding-taus",
             "tau-sweep-repeated-taus", "fit-grad-tol-inf"],
    )
    def test_bad_option_value_is_one(self, sim_csv, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        before = set(tmp_path.iterdir())
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err == f"Error: {message}\n"
        assert set(tmp_path.iterdir()) == before

    # An option that does not parse (click's own checks, and the package's list
    # parsers, which raise click.UsageError) gets click's usage text. Click words
    # its own messages differently across versions, so only the package's are exact.
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fit", "--no-such-flag"], None),
            (["frobnicate"], None),
            (["tau-sweep", "--input", "X.csv", "--taus", "x", "--output-dir", "out"],
             "expected comma-separated floats, got 'x'"),
            (["bench", "rank-sweep", "--rows", 20, "--cols", 20, "--ranks", 1.5, "--trials", 1,
              "--out-csv", "out.csv", "--out-json", "out.json"],
             "expected comma-separated ints, got '1.5'"),
            (["ingest", "--input", "X.csv", "--output", "out.csv", "--labels", "labels.csv"], None),
            (["bench", "rank-sweep", "--rows", 20, "--cols", 20, "--tau", 0.5, "--trials", 1,
              "--out-csv", "out.csv", "--out-json", "out.json"], None),
        ],
        ids=["unknown-option", "unknown-command", "tau-sweep-taus", "rank-sweep-ranks",
             "ingest-output", "rank-sweep-tau"],
    )
    def test_malformed_option_is_one(self, sim_csv, tmp_path, monkeypatch, capsys, argv,
                                     message):
        monkeypatch.chdir(tmp_path)
        before = set(tmp_path.iterdir())
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("Usage: ")
        assert err.splitlines()[-1].startswith("Error: ")
        if message is not None:
            assert err.splitlines()[-1] == f"Error: {message}"
        assert set(tmp_path.iterdir()) == before

    @pytest.mark.parametrize(
        "option, bad_text",
        [
            ("--model", lambda m: with_normalization(m, std=0.0)),
            ("--warm-start", lambda m: json.dumps(
                {**m, "normalization": {k: v for k, v in m["normalization"].items()
                                        if k != "std"}})),
            ("--warm-start", lambda m: "{not json"),
            ("--model", lambda m: json.dumps({k: v for k, v in m.items() if k != "p"})),
            ("--warm-start", lambda m: json.dumps({**m, "u": m["u"][:-1]})),
            ("--model", lambda m: json.dumps({**m, "normalization": None})),
            ("--model", lambda m: json.dumps({**m, "u": [NAN] + m["u"][1:]})),
            ("--warm-start", lambda m: json.dumps({**m, "u": [NAN] + m["u"][1:]})),
            ("--model", lambda m: with_normalization(
                m, row_means=[NAN] + m["normalization"]["row_means"][1:])),
            ("--model", lambda m: json.dumps({**m, "n": -1})),
            ("--model", lambda m: with_normalization(
                m, col_means=m["normalization"]["col_means"][:-1])),
            ("--warm-start", lambda m: json.dumps({**m, "k": 2, "u": m["u"] * 2, "v": m["v"] * 2})),
            ("--warm-start", lambda m: json.dumps({**m, "p": m["p"] - 1, "c": m["c"][:-1],
                                                   "v": m["v"][:-1]})),
            ("--model", lambda m: json.dumps({**m, "k": 2, "u": m["u"] * 2, "v": m["v"] * 2})),
            ("--model", lambda m: json.dumps({**m, "n": m["n"] + 0.9})),
            ("--model", lambda m: json.dumps({**m, "k": True})),
            ("--warm-start", lambda m: json.dumps({**m, "p": str(m["p"])})),
            ("--warm-start", lambda m: with_normalization(
                m, row_means=[m["normalization"]["row_means"]])),
            ("--model", lambda m: with_normalization(m, row_means=[0.0], col_means=[0.0, 0.0])),
            ("--model", lambda m: json.dumps({**m, "tau": None})),
            ("--warm-start", lambda m: json.dumps({**m, "normalization": None})),
            ("--model", lambda m: json.dumps({**m, "tau": 7})),
            ("--model", lambda m: json.dumps({**m, "tau": True})),
            ("--warm-start", lambda m: json.dumps({**m, "tau": 0})),
            ("--model", lambda m: json.dumps({**m, "tau": "0.5"})),
            ("--model", lambda m: with_normalization(m, std=True)),
            ("--warm-start", lambda m: with_normalization(m, mean="3")),
            ("--model", lambda m: json.dumps({**m, "r": [str(x) for x in m["r"]]})),
            ("--warm-start", lambda m: json.dumps({**m, "u": [x > 0 for x in m["u"]]})),
            ("--model", lambda m: json.dumps({**m, "u": [[x] for x in m["u"]]})),
            ("--model", lambda m: json.dumps({**m, "tau": 10**400})),
            ("--warm-start", lambda m: with_normalization(m, mean=10**400)),
            ("--model", lambda m: json.dumps({**m, "r": [10**400] + m["r"][1:]})),
        ],
        ids=["std-zero", "std-missing", "not-json", "model-without-p", "warm-start-short-u",
             "model-without-normalization", "model-nan-u", "warm-start-nan-u", "nan-row-mean",
             "model-n-negative", "normalization-col-means-short", "warm-start-rank-2",
             "warm-start-one-column-short", "model-rank-2", "model-n-fractional",
             "model-k-true", "warm-start-p-string", "normalization-row-means-nested",
             "normalization-one-row-mean", "model-tau-null", "warm-start-without-normalization",
             "model-tau-7", "model-tau-true", "warm-start-tau-0", "model-tau-string",
             "model-std-true", "warm-start-mean-string", "model-r-strings",
             "warm-start-u-booleans", "model-u-nested", "model-tau-huge",
             "warm-start-mean-huge", "model-r-huge"],
    )
    def test_malformed_json_is_two_naming_file(self, sim_csv, tmp_path, capsys, option, bad_text):
        model_path = tmp_path / "model.json"
        assert run(["fit", "--input", sim_csv, "--seed", 1, "--max-iters", 20,
                    "--output", model_path]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(bad_text(json.loads(model_path.read_text())))
        out = tmp_path / "out"
        if option == "--model":
            argv = ["band-curves", "--model", bad, "--out", out]
        else:
            argv = ["fit", "--input", sim_csv, option, bad, "--output", out]
        capsys.readouterr()
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")
        assert not out.exists()

    def test_default_pivot_is_rank_one_only(self, tmp_path):
        x_csv = tmp_path / "X288.csv"
        assert run(["simulate", "--rows", 288, "--cols", 8, "--true-rank", 1,
                    "--seed", 4, "--out", x_csv]) == 0
        for rank, pivot in ((1, 72), (2, None)):
            model_path = tmp_path / f"model{rank}.json"
            assert run(["fit", "--input", x_csv, "--rank", rank, "--max-iters", 5,
                        "--output", model_path]) == 0
            assert read_manifest(model_path)["config"]["orient_pivot"] == pivot
            sweep_dir = tmp_path / f"sweep{rank}"
            assert run(["tau-sweep", "--input", x_csv, "--rank", rank, "--taus", "0.5",
                        "--max-iters", 5, "--output-dir", sweep_dir]) == 0
            assert read_manifest(sweep_dir / "sweep_summary.csv")["config"]["orient_pivot"] == pivot

    @pytest.mark.parametrize("command", ["fit", "expectiles", "icc", "ingest", "warm-start"])
    def test_non_utf8_input_is_two_naming_file(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"1,2\n3,\xff\n")
        good = tmp_path / "good.csv"
        good.write_text("1,2\n3,4\n")
        out = tmp_path / "out"
        argv = {
            "fit": ["fit", "--input", bad, "--output", out],
            "warm-start": ["fit", "--input", good, "--warm-start", bad, "--output", out],
            "expectiles": ["expectiles", "--input", bad, "--out", out],
            "icc": ["icc", "--input", bad, "--out", out],
            "ingest": ["ingest", "--input", bad, "--out", out, "--labels", tmp_path / "l.csv"],
        }[command]
        capsys.readouterr()
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: not UTF-8 text: ")
        assert not out.exists()


class TestByteOrderMark:
    # Spreadsheet "CSV UTF-8" exports start with a byte-order mark; every input
    # reads as the same file without it.
    @pytest.mark.parametrize("command", ["icc", "expectiles", "ingest", "band-curves"])
    def test_leading_mark_is_skipped(self, sim_csv, tmp_path, command):
        if command == "band-curves":
            model_path = tmp_path / "model.json"
            assert run(["fit", "--input", sim_csv, "--max-iters", 20, "--output", model_path]) == 0
            text = model_path.read_text()
        elif command == "ingest":
            write_records(tmp_path / "hr.csv")
            text = (tmp_path / "hr.csv").read_text()
        else:
            text = {"icc": "a,1\na,2\nb,5\nb,6\n", "expectiles": "1,2\n3,nan\n"}[command]
        outputs = []
        for name, prefix in (("plain", ""), ("bom", "\ufeff")):
            out = tmp_path / name
            out.mkdir()
            source = out / "input"
            source.write_text(prefix + text, encoding="utf-8")
            argv = {
                "icc": ["icc", "--input", source, "--out", out / "out"],
                "expectiles": ["expectiles", "--input", source, "--out", out / "out"],
                "ingest": ["ingest", "--input", source, "--out", out / "out",
                           "--labels", out / "labels.csv"],
                "band-curves": ["band-curves", "--model", source, "--out", out / "out"],
            }[command]
            assert run(argv) == 0
            outputs.append((out / "out").read_bytes())
        assert outputs[0] == outputs[1]
        if command == "icc":
            assert json.loads(outputs[1])["icc"] == 0.9411764705882353


def test_readme_cli_examples_name_only_options_that_exist():
    # Click rejects an option a command does not declare before it acts on --help.
    lines = iter((Path(__file__).parents[1] / "README.md").read_text().splitlines())
    commands = []
    for line in lines:
        if line.startswith("    expectile-mf "):
            while line.endswith("\\"):
                line = line[:-1] + next(lines)
            commands.append(shlex.split(line)[1:])
    assert len(commands) >= 10
    for argv in commands:
        assert main([*argv, "--help"]) == 0, argv
