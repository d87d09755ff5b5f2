import json

import numpy as np
import pytest

from expectile_mf import (
    MaskedMatrix,
    load_model_json,
    loss_and_gradient,
    read_matrix_csv,
    write_matrix_csv,
)
from expectile_mf.cli import main


def run(argv):
    return main([str(a) for a in argv])


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
        assert report["final_loss"] >= 0.0
        assert report["status"] in ("grad_tolerance_met", "max_iters", "line_search_failure")

    def test_model_json_reevaluates_to_reported_loss(self, sim_csv, tmp_path):
        model_path = tmp_path / "model.json"
        run(["fit", "--input", sim_csv, "--tau", 0.3, "--rank", 1,
             "--seed", 1, "--output", model_path])
        report = json.loads((tmp_path / "model.report.json").read_text())
        model, tau, info = load_model_json(model_path)
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


class TestTauSweep:
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


class TestIngestCommand:
    def test_end_to_end(self, tmp_path):
        records = tmp_path / "hr.csv"
        rows = ["person_id,timestamp,bpm"]
        rng = np.random.default_rng(0)
        for day in (1, 2):
            for seg in range(0, 288, 2):
                h, m = divmod(seg * 5, 60)
                rows.append(f"p1,2016-04-{day:02d}T{h:02d}:{m:02d}:30,{60 + rng.integers(0, 40)}")
        records.write_text("\n".join(rows) + "\n")
        out = tmp_path / "matrix.csv"
        labels = tmp_path / "labels.csv"
        code = run(["ingest", "--input", records, "--output", out,
                    "--labels", labels, "--max-missing", 0.7])
        assert code == 0
        x = read_matrix_csv(out)
        assert x.n_rows == 288 and x.n_cols == 2
        assert (tmp_path / "matrix.normalization.json").exists()
        label_lines = labels.read_text().splitlines()
        assert label_lines[0] == "column_index,person_id,date"
        assert len(label_lines) == 3


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
        doc = json.loads(out_json.read_text())
        assert len(doc["summary"]) == 3
        assert doc["max_loss_spread"] >= 0.0

    def test_resilience_tiny(self, tmp_path, sim_csv):
        from expectile_mf import normalize

        xn, _ = normalize(read_matrix_csv(sim_csv))
        norm_csv = tmp_path / "Xn.csv"
        write_matrix_csv(xn, norm_csv)
        out_loss = tmp_path / "loss.csv"
        out_mad = tmp_path / "mad.csv"
        code = run(["bench", "resilience", "--input", norm_csv, "--trials", 2,
                    "--tau", 0.5, "--rank", 1, "--grad-tol", 1e-7,
                    "--max-iters", 500, "--seed", 4,
                    "--out-loss-csv", out_loss, "--out-mad-csv", out_mad])
        assert code == 0
        assert len(out_loss.read_text().splitlines()) == 3

    def test_rank_sweep_tiny(self, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        out_json = tmp_path / "sweep.json"
        code = run(["bench", "rank-sweep", "--rows", 24, "--cols", 20,
                    "--true-rank", 1, "--ranks", "1,2", "--tau", "0.5",
                    "--algorithms", "lbfgs", "--trials", 2, "--seed", 5,
                    "--out-csv", out_csv, "--out-json", out_json])
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "trial,tau,rank,algorithm,loss,iterations,seconds"
        assert len(lines) == 1 + 2 * 2


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert run(["fit", "--no-such-flag"]) == 1

    def test_unknown_subcommand_is_one(self):
        assert run(["frobnicate"]) == 1

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

    def test_overflowing_std_is_two(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1e308,-1e308\n1e308,-1e308\n")
        assert run(["fit", "--input", bad, "--output", tmp_path / "model.json"]) == 2

    def test_warm_start_with_restarts_is_one(self, sim_csv, tmp_path):
        first = tmp_path / "m1.json"
        assert run(["fit", "--input", sim_csv, "--seed", 1, "--output", first]) == 0
        code = run(["fit", "--input", sim_csv, "--warm-start", first, "--restarts", 4,
                    "--output", tmp_path / "m2.json"])
        assert code == 1
        assert not (tmp_path / "m2.json").exists()

    def test_parse_error_is_two(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3,oops\n")
        out = tmp_path / "curves.csv"
        assert run(["expectiles", "--input", bad, "--out", out]) == 2
