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


class TestTauSweep:
    @pytest.mark.parametrize("taus", ["0.1,0.1000001", "0.5,0.1,0.5"])
    def test_colliding_output_names_are_one(self, sim_csv, tmp_path, capsys, taus):
        out_dir = tmp_path / "sweep"
        capsys.readouterr()
        assert run(["tau-sweep", "--input", sim_csv, "--taus", taus,
                    "--output-dir", out_dir]) == 1
        assert "both write model_tau" in capsys.readouterr().err
        assert not out_dir.exists()

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

    @pytest.mark.parametrize("text, n_groups", [("", 0), ("a,1\na,2\n", 1)],
                             ids=["empty", "one-group"])
    def test_fewer_than_two_groups_is_two(self, tmp_path, capsys, text, n_groups):
        data = tmp_path / "grouped.csv"
        data.write_text(text)
        out = tmp_path / "icc.json"
        assert run(["icc", "--input", data, "--out", out]) == 2
        assert f"{data}: need at least 2 distinct groups, got {n_groups}" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_value_is_two_naming_line(self, tmp_path, capsys, cell):
        data = tmp_path / "grouped.csv"
        data.write_text(f"a,1\nb,{cell}\na,2\nb,3\n")
        out = tmp_path / "icc.json"
        assert run(["icc", "--input", data, "--out", out]) == 2
        assert f"line 2: non-finite value {float(cell)!r}" in capsys.readouterr().err
        assert not out.exists()


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

    # Each config type (SimulationSpec, FitConfig, OptimizeOptions, Tau), and
    # fit's pivot range check, rejects a bad option value with ValueError,
    # which main reports as a usage error before any output is written.
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
            (["bench", "rank-sweep", "--rows", 20, "--cols", 20, "--tau", 1.5, "--trials", 1,
              "--out-csv", "out.csv", "--out-json", "out.json"],
             "tau must be in (0, 1), got 1.5"),
            (["bench", "rank-sweep", "--rows", 20, "--cols", 20, "--trials", 0,
              "--out-csv", "out.csv", "--out-json", "out.json"],
             "n_trials must be >= 1, got 0"),
            (["bench", "rank-sweep", "--rows", 20, "--cols", 20, "--ranks", "1,0", "--trials", 1,
              "--out-csv", "out.csv", "--out-json", "out.json"],
             "ranks must be >= 1, got [1, 0]"),
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
        ],
        ids=["tau-sweep", "simulate", "compare-algos", "rank-sweep", "rank-sweep-trials",
             "rank-sweep-ranks", "resilience", "expectiles",
             "fit-pivot-range", "fit-pivot-rank-2", "tau-sweep-pivot-range"],
    )
    def test_bad_option_value_is_one(self, sim_csv, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        before = set(tmp_path.iterdir())
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err == f"Error: {message}\n"
        assert set(tmp_path.iterdir()) == before

    @pytest.mark.parametrize(
        "option, bad_text",
        [
            ("--normalization", lambda m: json.dumps({**m["normalization"], "std": 0.0})),
            ("--normalization",
             lambda m: json.dumps({k: v for k, v in m["normalization"].items() if k != "std"})),
            ("--normalization", lambda m: "{not json"),
            ("--model", lambda m: json.dumps({k: v for k, v in m.items() if k != "p"})),
            ("--warm-start", lambda m: json.dumps({**m, "u": m["u"][:-1]})),
            ("--model", lambda m: json.dumps({**m, "normalization": None})),
        ],
        ids=["std-zero", "std-missing", "not-json", "model-without-p", "warm-start-short-u",
             "model-without-normalization"],
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
            manifest = json.loads((tmp_path / f"model{rank}.json.manifest.json").read_text())
            assert manifest["config"]["orient_pivot"] == pivot

    @pytest.mark.parametrize("command", ["fit", "expectiles", "icc", "ingest"])
    def test_non_utf8_input_is_two_naming_file(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"1,2\n3,\xff\n")
        out = tmp_path / "out"
        argv = {
            "fit": ["fit", "--input", bad, "--output", out],
            "expectiles": ["expectiles", "--input", bad, "--out", out],
            "icc": ["icc", "--input", bad, "--out", out],
            "ingest": ["ingest", "--input", bad, "--output", out, "--labels", tmp_path / "l.csv"],
        }[command]
        capsys.readouterr()
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: not UTF-8 text: ")
        assert not out.exists()

    def test_parse_error_is_two(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3,oops\n")
        out = tmp_path / "curves.csv"
        assert run(["expectiles", "--input", bad, "--out", out]) == 2
