import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import depdist
import depdist.models as m
from depdist.cli import main
from depdist.models import Model
from depdist.sampling import read_sample_csv
from depdist.treebank import DepTree, to_conllu


def chain(n):
    return DepTree((0,) + tuple(range(1, n)))


def write_corpus(path, trees):
    path.write_text(to_conllu(trees))


@pytest.fixture
def toy_corpus(tmp_path):
    """Two tiny single-language collections plus a manifest."""
    trees = [
        chain(3), chain(3),
        DepTree((2, 0, 2)),
        DepTree((0, 1, 1, 3)),
        DepTree((2, 0, 2, 2, 4, 5)),
        chain(6),
        DepTree((0, 1, 2, 2, 4, 4, 6, 6)),
    ] * 3
    corpus = tmp_path / "toy.conllu"
    write_corpus(corpus, trees)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("toy.conllu\tTOY\tTestish\n")
    return manifest


class TestExtract:
    def test_summary_and_sample_files(self, toy_corpus, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["extract", "--manifest", str(toy_corpus),
                     "--out", str(out)])
        assert code == 0
        with open(out / "summary.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 1
        assert rows[0]["language"] == "Testish"
        assert int(rows[0]["sentences"]) == 21
        sample_files = sorted(p.name for p in (out / "samples").iterdir())
        assert "TOY_Testish_mixed.csv" in sample_files
        assert "TOY_Testish_n3.csv" in sample_files

    def test_two_chains_sample_content(self, tmp_path):
        corpus = tmp_path / "chains.conllu"
        write_corpus(corpus, [chain(3), chain(3)])
        manifest = tmp_path / "m.txt"
        manifest.write_text("chains.conllu\tC\tL\n")
        out = tmp_path / "out"
        assert main(["extract", "--manifest", str(manifest),
                     "--out", str(out)]) == 0
        sample, _ = read_sample_csv(out / "samples" / "C_L_mixed.csv")
        assert sample.freq == {1: 4}

    def test_empty_manifest_is_usage_error(self, tmp_path):
        manifest = tmp_path / "empty.txt"
        manifest.write_text("\n")
        with pytest.raises(SystemExit) as err:
            main(["extract", "--manifest", str(manifest),
                  "--out", str(tmp_path / "o")])
        assert err.value.code == 2

    def test_missing_corpus_is_ingestion_error(self, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_text("nowhere.conllu\tC\tL\n")
        code = main(["extract", "--manifest", str(manifest),
                     "--out", str(tmp_path / "o")])
        assert code == 3
        with open(tmp_path / "o" / "ingestion_errors.csv") as handle:
            assert len(list(csv.DictReader(handle))) == 1

    def test_partial_failure_still_succeeds(self, tmp_path):
        corpus = tmp_path / "ok.conllu"
        write_corpus(corpus, [chain(4), chain(5)])
        manifest = tmp_path / "m.txt"
        manifest.write_text("ok.conllu\tC\tL\nmissing.conllu\tC\tM\n")
        out = tmp_path / "o"
        code = main(["extract", "--manifest", str(manifest),
                     "--out", str(out)])
        assert code == 0  # one entry failed, one succeeded
        assert (out / "ingestion_errors.csv").exists()
        assert (out / "summary.csv").exists()


class TestFitSelect:
    def test_tables_written(self, toy_corpus, tmp_path):
        out = tmp_path / "out"
        code = main(["fit-select", "--manifest", str(toy_corpus),
                     "--out", str(out), "--threshold", "1,2"])
        assert code == 0
        for name in ("mixed_fits", "mixed_best", "fixed_fits",
                     "fixed_best_matrix", "threshold_scan"):
            assert (out / f"{name}.csv").exists(), name

    @pytest.mark.parametrize("thresholds", ["0", "3,2"])
    def test_bad_thresholds_are_usage_errors(self, toy_corpus, tmp_path,
                                              capsys, thresholds):
        with pytest.raises(SystemExit) as err:
            main(["fit-select", "--manifest", str(toy_corpus),
                  "--out", str(tmp_path / "o"), "--threshold", thresholds])
        assert err.value.code == 2
        message = capsys.readouterr().err
        assert "error: argument --threshold: thresholds must" in message
        assert "Traceback" not in message

    def test_chain_corpus_prefers_steep_decay(self, tmp_path):
        corpus = tmp_path / "chains.conllu"
        write_corpus(corpus, [chain(n) for n in (4, 5, 6, 7)] * 5)
        manifest = tmp_path / "m.txt"
        manifest.write_text("chains.conllu\tC\tL\n")
        out = tmp_path / "out"
        assert main(["fit-select", "--manifest", str(manifest),
                     "--mode", "mixed", "--out", str(out)]) == 0
        with open(out / "mixed_best.csv") as handle:
            row = next(csv.DictReader(handle))
        assert row["best"] in ("1", "2")  # all d = 1: geometric family wins

    def test_matrix_marks_small_lengths_excluded(self, toy_corpus, tmp_path):
        out = tmp_path / "out"
        main(["fit-select", "--manifest", str(toy_corpus), "--mode",
              "fixed", "--out", str(out)])
        with open(out / "fixed_best_matrix.csv") as handle:
            rows = {int(r["n"]): r for r in csv.DictReader(handle)}
        assert rows[3]["best"] == "excluded-min-size"  # below the n floor
        assert rows[5]["best"] == "no-sentences"
        assert rows[6]["best"] not in ("excluded-min-size", "no-sentences")

    @pytest.mark.parametrize("threshold", ["0", "1", "2"])
    def test_one_word_lengths_are_excluded_at_any_threshold(
            self, tmp_path, threshold):
        # One-word sentences carry no dependency: excluded, whatever the
        # threshold, and counted.
        corpus = tmp_path / "short.conllu"
        write_corpus(corpus, [chain(1)] * 5 + [chain(2)] * 5
                     + [DepTree((2, 0, 2, 3, 4))] * 4)
        manifest = tmp_path / "m.txt"
        manifest.write_text("short.conllu\tX\tone_and_two\n")
        out = tmp_path / "out"
        assert main(["fit-select", "--manifest", str(manifest), "--mode",
                     "fixed", "--exclude-n-below", threshold,
                     "--out", str(out)]) == 0
        with open(out / "fixed_best_matrix.csv") as handle:
            rows = {int(r["n"]): r for r in csv.DictReader(handle)}
        assert rows[1]["best"] == "excluded-min-size"
        assert rows[1]["sentences"] == "5"
        assert rows[2]["best"] == "0.0"
        assert rows[3]["best"] == "no-sentences"

    def test_deterministic_output(self, toy_corpus, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            main(["fit-select", "--manifest", str(toy_corpus),
                  "--mode", "mixed", "--out", str(out)])
            outs.append((out / "mixed_fits.csv").read_bytes())
        assert outs[0] == outs[1]


class TestOmegaCommand:
    def test_chain_corpus_fully_optimized(self, tmp_path):
        corpus = tmp_path / "chains.conllu"
        write_corpus(corpus, [chain(n) for n in (4, 5, 6)] * 4)
        manifest = tmp_path / "m.txt"
        manifest.write_text("chains.conllu\tC\tL\n")
        out = tmp_path / "out"
        assert main(["omega", "--manifest", str(manifest),
                     "--out", str(out)]) == 0
        with open(out / "omega_profile.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert rows
        assert all(float(r["mean_omega"]) == 1.0 for r in rows)

    def test_anti_minimized_three_word_corpus(self, tmp_path):
        corpus = tmp_path / "anti.conllu"
        write_corpus(corpus, [DepTree((0, 3, 1))] * 5)
        manifest = tmp_path / "m.txt"
        manifest.write_text("anti.conllu\tC\tL\n")
        out = tmp_path / "out"
        assert main(["omega", "--manifest", str(manifest),
                     "--out", str(out)]) == 0
        with open(out / "omega_profile.csv") as handle:
            row = next(csv.DictReader(handle))
        assert float(row["mean_omega"]) == -0.5

    def test_near_zero_join(self, toy_corpus, tmp_path):
        out = tmp_path / "out"
        assert main(["omega", "--manifest", str(toy_corpus),
                     "--out", str(out)]) == 0
        with open(out / "omega_best_join.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert all(r["near_zero"] in ("True", "False") for r in rows)
        assert all(r["best"] != "" for r in rows)

    def test_random_order_corpus_near_zero_and_null_best(self, tmp_path):
        # Shuffled word order: the per-length mean score sits around zero
        # and the joined table shows the shuffle null as the best model.
        import numpy as np
        from conftest import random_tree

        rng = np.random.default_rng(2026)
        corpus = tmp_path / "random.conllu"
        write_corpus(corpus, [random_tree(8, rng) for _ in range(300)])
        manifest = tmp_path / "m.txt"
        manifest.write_text("random.conllu\tC\tL\n")
        out = tmp_path / "out"
        assert main(["omega", "--manifest", str(manifest),
                     "--out", str(out)]) == 0
        with open(out / "omega_best_join.csv") as handle:
            row = next(r for r in csv.DictReader(handle) if r["n"] == "8")
        assert row["near_zero"] == "True"
        assert abs(float(row["mean_omega"])) <= 0.1
        assert row["best"] == "0.0"


class TestSampleCommand:
    def test_geometric_counts(self, tmp_path):
        out_file = tmp_path / "g.csv"
        code = main(["sample", "--model", "1", "--q", "0.2",
                     "--n-draws", "10000", "--seed", "9",
                     "--out-file", str(out_file)])
        assert code == 0
        sample, meta = read_sample_csv(out_file)
        assert sample.total == 10000
        assert meta["model"] == "1"

    def test_shuffle_null_sample(self, tmp_path):
        out_file = tmp_path / "n.csv"
        main(["sample", "--model", "0.0", "--dmax", "19",
              "--n-draws", "3000", "--out-file", str(out_file)])
        sample, meta = read_sample_csv(out_file)
        assert sample.max_d <= 19
        assert meta["model"] == "0.0"

    def test_truncated_zeta_bound(self, tmp_path):
        out_file = tmp_path / "z.csv"
        main(["sample", "--model", "5", "--gamma", "1.6", "--dmax", "19",
              "--n-draws", "5000", "--out-file", str(out_file)])
        sample, _ = read_sample_csv(out_file)
        assert sample.max_d <= 19

    def test_slow_tail_is_drawn_past_a_million(self, tmp_path):
        # q2 = 1e-6 leaves 37% of the mass beyond d = 10^6.
        from scipy.stats import binom
        out_file = tmp_path / "slow.csv"
        main(["sample", "--model", "3", "--q1", "0.5", "--q2", "1e-6",
              "--dstar", "4", "--n-draws", "10000",
              "--out-file", str(out_file)])
        sample, meta = read_sample_csv(out_file)
        assert 10**6 not in sample.freq
        assert "cutoff_overflow" not in meta
        params = m.TwoRegimeGeometricParams(0.5, 1e-6, 4)
        beyond = m.pmf(Model.TWO_REGIME_GEOMETRIC, params, 10**6 + 1) / 1e-6
        lo, hi = binom.interval(1 - 1e-6, 10000, beyond)
        assert lo <= sum(c for d, c in sample.freq.items() if d > 10**6) <= hi

    def test_missing_parameter_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["sample", "--model", "3", "--q1", "0.5",
                  "--out-file", str(tmp_path / "x.csv")])
        assert err.value.code == 2

    def test_invalid_parameter_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["sample", "--model", "1", "--q", "1.5",
                  "--out-file", str(tmp_path / "x.csv")])
        assert err.value.code == 2

    @pytest.mark.parametrize("params", [
        ["--model", "5", "--gamma", "nan", "--dmax", "10"],
        ["--model", "7", "--gamma", "inf", "--q", "0.2", "--dstar", "3",
         "--dmax", "10"],
    ], ids=["nan-gamma", "infinite-gamma"])
    def test_non_finite_parameter_is_usage_error(self, tmp_path, params):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as err:
            main(["sample", *params, "--n-draws", "100",
                  "--out-file", str(out)])
        assert err.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--n-draws", "-3"), ("--n-draws", "0"), ("--n-draws", "many")])
    def test_count_flags_must_be_positive(self, tmp_path, capsys, flag,
                                          value):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as err:
            main(["sample", "--model", "3", "--q1", "0.5", "--q2", "0.1",
                  "--dstar", "4", "--n-draws", "100", flag, value,
                  "--out-file", str(out)])
        assert err.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err
        assert not out.exists()

    def test_cutoff_flag_is_gone(self, tmp_path, capsys):
        # Every draw is exact, so there is no table cutoff to set.
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as err:
            main(["sample", "--model", "3", "--q1", "0.5", "--q2", "0.1",
                  "--dstar", "4", "--n-draws", "100", "--cutoff", "5",
                  "--out-file", str(out)])
        assert err.value.code == 2
        assert "unrecognized arguments: --cutoff 5" in capsys.readouterr().err
        assert not out.exists()

    def test_determinism(self, tmp_path):
        files = []
        for tag in ("a", "b"):
            out_file = tmp_path / f"{tag}.csv"
            main(["sample", "--model", "3", "--q1", "0.5", "--q2", "0.1",
                  "--dstar", "4", "--n-draws", "2000", "--seed", "11",
                  "--out-file", str(out_file)])
            files.append(out_file.read_bytes())
        assert files[0] == files[1]


# One admissible value per parameter field, for every samplable model.
SAMPLE_VALUES = {"q": 0.2, "q1": 0.5, "q2": 0.1, "gamma": 1.6,
                 "break_point": 4, "d_max": 19}
SAMPLABLE = [model for model in Model if model.spec.sampler is not None]


def sample_argv(model, out_file, fields):
    argv = ["sample", "--model", model.id, "--n-draws", "2000",
            "--seed", "5", "--out-file", str(out_file)]
    for name, flag in zip(model.spec.fields, model.spec.flags):
        if name in fields:
            argv += [f"--{flag}", str(SAMPLE_VALUES[name])]
    return argv


class TestSampleEveryModel:
    def test_samplable_ids(self):
        assert [model.id for model in SAMPLABLE] \
            == ["0.0", "1", "2", "3", "4", "5", "6", "7"]

    @pytest.mark.parametrize("model", SAMPLABLE, ids=lambda m: m.id)
    def test_spec_flags_draw_a_sample(self, model, tmp_path):
        out_file = tmp_path / "s.csv"
        assert main(sample_argv(model, out_file, model.spec.fields)) == 0
        sample, meta = read_sample_csv(out_file)
        assert sample.total == 2000
        assert meta["model"] == model.id
        for name in model.spec.fields:
            assert float(meta[name]) == SAMPLE_VALUES[name]
        if model.is_truncated:
            assert sample.max_d <= SAMPLE_VALUES["d_max"]

    @pytest.mark.parametrize("model", SAMPLABLE, ids=lambda m: m.id)
    def test_missing_flag_is_usage_error(self, model, tmp_path):
        argv = sample_argv(model, tmp_path / "x.csv", model.spec.fields[1:])
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2

    def test_length_mixture_cannot_be_sampled(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["sample", "--model", "0.1",
                  "--out-file", str(tmp_path / "x.csv")])
        assert err.value.code == 2


class TestValidateCommand:
    def test_full_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["validate", "--seed", "20260808", "--n-draws", "2000",
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert (out / "validation_matrix.csv").exists()
        assert (out / "validation_params.csv").exists()
        assert "Best model per generated sample" in captured.out
        # Smaller suites may miss a tolerance; exit code reflects it.
        assert code in (0, 4)

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_n_draws_must_be_positive(self, tmp_path, capsys, value):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            main(["validate", "--n-draws", value, "--out", str(out)])
        assert err.value.code == 2
        assert "argument --n-draws: " in capsys.readouterr().err
        assert not out.exists()

    def test_seed_with_out_of_range_normalizers_completes(self, tmp_path):
        # The fits of this suite probe parameters whose two-regime
        # normalizers leave the double range; they are rejected, and the
        # run ends with a verdict instead of an exception.
        code = main(["validate", "--seed", "2", "--out", str(tmp_path)])
        assert code in (0, 4)

    def test_aic_matrix_holds_the_criterion_it_selects_by(self, tmp_path):
        # Each row's best is its smallest AIC, ties broken by K and then
        # by ensemble order (on this suite sample 2's BIC and AIC winners
        # differ).
        main(["validate", "--criterion", "aic", "--n-draws", "3000",
              "--out", str(tmp_path)])
        with open(tmp_path / "validation_matrix.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        for row in rows:
            scored = {Model.from_id(column[len("aic_"):]): float(value)
                      for column, value in row.items()
                      if column.startswith("aic_") and value != ""}
            assert len(scored) == 8
            best = min(scored, key=lambda model: (scored[model], model.k,
                                                  model.order))
            assert row["best"] == best.id, row


@pytest.fixture
def two_regime_corpus(tmp_path):
    """Sentences of 6 to 15 words whose dependents attach to the previous
    word 60% of the time and anywhere before it otherwise: a steep head
    and a flat tail, so two-regime models win and the break-point and
    slope tables are written."""
    rng = np.random.default_rng(1)
    trees = []
    for n in rng.integers(6, 16, size=100):
        heads = [0] + [i - 1 if rng.random() < 0.6
                       else int(rng.integers(1, i))
                       for i in range(2, int(n) + 1)]
        trees.append(DepTree(tuple(heads)))
    write_corpus(tmp_path / "local.conllu", trees)
    manifest = tmp_path / "m.txt"
    manifest.write_text("local.conllu\tC\tL\n")
    return manifest


def assert_same_cell(csv_cell: str, json_value, where):
    """A CSV cell against the JSON value of the same record and key."""
    if json_value is None:
        assert csv_cell == "", where
    elif isinstance(json_value, float):
        # repr in CSV; JSON Infinity/-Infinity load as the same floats.
        assert csv_cell == repr(json_value), where
        assert float(csv_cell) == json_value or math.isnan(json_value), where
    elif isinstance(json_value, bool):
        assert csv_cell in ("True", "False"), where
        assert (csv_cell == "True") is json_value, where
    else:
        assert csv_cell == str(json_value), where


@pytest.mark.parametrize("command", ["fit-select", "validate", "omega",
                                     "extract"])
def test_csv_and_json_tables_carry_the_same_cells(command, tmp_path,
                                                  two_regime_corpus):
    argv = {
        "fit-select": ["fit-select", "--mode", "both", "--manifest",
                       str(two_regime_corpus)],
        "validate": ["validate", "--n-draws", "2000"],
        "omega": ["omega", "--manifest", str(two_regime_corpus)],
        "extract": ["extract", "--manifest", str(two_regime_corpus)],
    }[command]
    codes = {fmt: main(argv + ["--format", fmt, "--out", str(tmp_path / fmt)])
             for fmt in ("csv", "json")}
    assert codes["csv"] == codes["json"]
    tables = sorted(path.stem for path in (tmp_path / "csv").glob("*.csv"))
    assert tables == sorted(
        path.stem for path in (tmp_path / "json").glob("*.json"))
    if command == "fit-select":
        assert {"slopes", "break_point_summary_mixed",
                "break_point_summary_fixed"} <= set(tables)
    cells = 0
    for table in tables:
        with open(tmp_path / "csv" / f"{table}.csv", newline="") as handle:
            csv_rows = list(csv.DictReader(handle))
        json_rows = json.loads(
            (tmp_path / "json" / f"{table}.json").read_text())
        assert csv_rows and len(csv_rows) == len(json_rows), table
        for index, (c_row, j_row) in enumerate(zip(csv_rows, json_rows)):
            assert set(j_row) <= set(c_row), (table, index)
            for key, csv_cell in c_row.items():
                assert_same_cell(csv_cell, j_row.get(key),
                                 (table, index, key))
                cells += 1
    assert cells


def local_trees(seed, count, attach):
    """Sentences of 6 to 15 words whose dependents attach to the previous
    word with probability ``attach`` and anywhere before it otherwise."""
    rng = np.random.default_rng(seed)
    return [DepTree(tuple([0] + [i - 1 if rng.random() < attach
                                 else int(rng.integers(1, i))
                                 for i in range(2, int(n) + 1)]))
            for n in rng.integers(6, 16, size=count)]


def rows_by_corpus(directory):
    """Every table's rows, keyed by (table, collection)."""
    rows = {}
    for path in sorted(directory.glob("*.csv")):
        with open(path, newline="") as handle:
            for row in csv.DictReader(handle):
                rows.setdefault((path.stem, row["collection"]), []).append(
                    row)
    return rows


@pytest.mark.parametrize("argv", [["fit-select", "--mode", "both"],
                                  ["omega"]])
def test_corpora_fit_alone_as_together(argv, tmp_path):
    # The samples of each corpus are selected in one batch; every row a
    # corpus gets from a two-corpus run is the row it gets alone.
    lines = []
    for name, seed, attach in (("A", 1, 0.6), ("B", 2, 0.4)):
        write_corpus(tmp_path / f"{name}.conllu",
                     local_trees(seed, 80, attach))
        lines.append(f"{name}.conllu\t{name}\tL{name}\n")
        (tmp_path / f"{name}.txt").write_text(lines[-1])
    (tmp_path / "both.txt").write_text("".join(lines))
    for manifest in ("both", "A", "B"):
        assert main(argv + ["--manifest", str(tmp_path / f"{manifest}.txt"),
                            "--out", str(tmp_path / manifest)]) == 0
    together = rows_by_corpus(tmp_path / "both")
    alone = {**rows_by_corpus(tmp_path / "A"),
             **rows_by_corpus(tmp_path / "B")}
    assert together == alone
    assert {collection for _, collection in together} == {"A", "B"}


def test_each_mode_writes_its_tables_of_both(tmp_path):
    # --mode mixed and --mode fixed write, byte for byte, the tables that
    # --mode both writes for their kind; both's slopes hold each corpus's
    # mixed row and then its fixed rows.
    lines = []
    for name, seed in (("A", 1), ("B", 2)):
        write_corpus(tmp_path / f"{name}.conllu", local_trees(seed, 80, 0.6))
        lines.append(f"{name}.conllu\t{name}\tL{name}\n")
    (tmp_path / "m.txt").write_text("".join(lines))
    tables, slopes = {}, {}
    for mode in ("both", "mixed", "fixed"):
        assert main(["fit-select", "--mode", mode, "--manifest",
                     str(tmp_path / "m.txt"), "--out",
                     str(tmp_path / mode)]) == 0
        tables[mode] = written_tables(tmp_path / mode)
        with open(tmp_path / mode / "slopes.csv", newline="") as handle:
            slopes[mode] = list(csv.DictReader(handle))
    assert set(tables["mixed"]) & set(tables["fixed"]) == {Path("slopes.csv")}
    assert set(tables["mixed"]) | set(tables["fixed"]) == set(tables["both"])
    for mode in ("mixed", "fixed"):
        for name, data in tables[mode].items():
            if name != Path("slopes.csv"):
                assert data == tables["both"][name], (mode, name)
    ordered = []
    for name in ("A", "B"):
        own = [[row for row in slopes[mode] if row["collection"] == name]
               for mode in ("mixed", "fixed")]
        assert [row["length"] for row in own[0]] == ["mixed"] and own[1]
        ordered += own[0] + own[1]
    assert slopes["both"] == ordered


def run_fresh(argv):
    """Run ``main(argv)`` in a fresh interpreter on this checkout; return
    its exit code and the ``scipy`` modules it loaded."""
    src = str(Path(depdist.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = ("import json, sys\n"
             "from depdist.cli import main\n"
             "code = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
             "print(json.dumps([code, sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy')]))")
    result = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                            capture_output=True, text=True, check=True)
    return json.loads(result.stdout.splitlines()[-1])


def written_tables(directory):
    return {path.relative_to(directory): path.read_bytes()
            for path in directory.rglob("*") if path.is_file()}


@pytest.mark.parametrize("first, second", [
    (["validate", "--criterion", "aic"], ["validate"]),
    (["fit-select", "--threshold", "5"], ["fit-select"]),
])
def test_back_to_back_calls_match_fresh_processes(first, second,
                                                  two_regime_corpus,
                                                  tmp_path):
    # The parser is built once per process; no option of one call, nor a
    # default it hands out, reaches the next call.
    extra = (["--n-draws", "2000"] if first[0] == "validate"
             else ["--manifest", str(two_regime_corpus)])
    codes = []
    for where, run in (("here", main), ("fresh", lambda a: run_fresh(a)[0])):
        for index, argv in enumerate((first, second)):
            codes.append(run(argv + extra + [
                "--out", str(tmp_path / where / str(index))]))
    assert codes[:2] == codes[2:]
    for index in ("0", "1"):
        assert written_tables(tmp_path / "here" / index) == \
            written_tables(tmp_path / "fresh" / index)
    # The second call ran with its own defaults.
    assert written_tables(tmp_path / "here" / "0") != \
        written_tables(tmp_path / "here" / "1")


def test_import_leaves_scipy_unloaded():
    # scipy.optimize and scipy.special take most of the command line's
    # start-up time: the fits load the optimizer's kernel at their first
    # search and the chi-square test its p-value at its first call.
    assert run_fresh([]) == [0, []]


def test_commands_that_fit_nothing_leave_scipy_unloaded(toy_corpus,
                                                         two_regime_corpus,
                                                         tmp_path):
    assert run_fresh(["extract", "--manifest", str(toy_corpus),
                      "--out", str(tmp_path / "extract")]) == [0, []]
    assert run_fresh(["sample", "--model", "3", "--q1", "0.5", "--q2", "0.1",
                      "--dstar", "4", "--n-draws", "100", "--out-file",
                      str(tmp_path / "s.csv")]) == [0, []]
    # fit-select loads the optimizer at its first two-regime search, which
    # needs three distinct distances: no sample of this corpus has them, so
    # the one-regime rows fit it alone.  Its tables are those that main
    # writes in this process.
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    code, loaded = run_fresh(["fit-select", "--manifest", str(toy_corpus),
                              "--out", str(fresh)])
    assert code == 0 and "scipy.optimize" not in loaded
    assert main(["fit-select", "--manifest", str(toy_corpus),
                 "--out", str(here)]) == 0
    tables = sorted(p.relative_to(here) for p in here.rglob("*")
                    if p.is_file())
    assert tables == sorted(p.relative_to(fresh) for p in fresh.rglob("*")
                            if p.is_file())
    for table in tables:
        assert (fresh / table).read_bytes() == (here / table).read_bytes()
    # The two-regime searches load scipy's L-BFGS-B extension module alone:
    # neither the scipy package nor scipy.optimize is imported.
    code, loaded = run_fresh(["fit-select", "--manifest",
                              str(two_regime_corpus), "--out",
                              str(tmp_path / "two-regime")])
    assert [code, loaded] == [0, ["scipy.optimize._lbfgsb"]]


@pytest.mark.parametrize("argv", [
    ["extract", "--manifest", "manifest.txt", "--out", "out"],
    ["fit-select", "--manifest", "manifest.txt", "--out", "out"],
    ["omega", "--manifest", "manifest.txt", "--out", "out"],
    ["validate", "--n-draws", "200", "--out", "out"],
    ["sample", "--model", "1", "--q", "0.5", "--n-draws", "10",
     "--out-file", "out"],
])
def test_commands_use_no_locale_encoding(argv, tmp_path, monkeypatch):
    # Every file the package reads or writes is UTF-8: opening one in the
    # locale's encoding raises EncodingWarning, an error under these flags.
    (tmp_path / "c.conllu").write_text(
        to_conllu([DepTree((2, 0, 2, 3, 2))]), encoding="utf-8")
    (tmp_path / "manifest.txt").write_text("c.conllu\tC\tL\n",
                                           encoding="utf-8")
    src = str(Path(depdist.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    strict = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding",
         "-W", "error::EncodingWarning", "-m", "depdist.cli",
         *argv[:-1], "strict"],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert "EncodingWarning" not in strict.stderr
    monkeypatch.chdir(tmp_path)
    assert strict.returncode == run_cli(argv)


@pytest.mark.parametrize("argv", [
    ["extract", "--criterion", "aic"],
    ["extract", "--threshold", "1,2"],
    ["extract", "--min-distinct-d", "3"],
    ["extract", "--exclude-n-below", "4"],
    ["extract", "--seed", "1"],
    ["omega", "--mode", "fixed"],
    ["omega", "--threshold", "1,2"],
    ["omega", "--seed", "1"],
    ["fit-select", "--seed", "1"],
    ["fit-select", "--min-distinct-d", "2"],
    ["omega", "--min-distinct-d", "2"],
])
def test_options_a_command_does_not_read_are_usage_errors(
        argv, toy_corpus, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv + ["--manifest", str(toy_corpus),
                     "--out", str(tmp_path / "o")])
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def conllu_line(token_id, head, columns=10):
    fields = [str(token_id), "w", "w", "X", "_", "_", str(head), "dep", "_",
              "_"]
    return "\t".join(fields[:columns]) + "\n"


VALID_CONLLU = to_conllu([chain(4), DepTree((2, 0, 2, 2, 4)), chain(6)] * 2)

# Malformed CoNLL-U bodies (bytes, written as they are).
MALFORMED_CONLLU = {
    "binary": bytes(range(256)) * 4,
    "nul bytes": b"\x00" * 64 + VALID_CONLLU.encode(),
    "latin-1 text": "# text = caf\xe9\n".encode("latin-1")
                    + VALID_CONLLU.encode(),
    "cyclic heads": (conllu_line(1, 2) + conllu_line(2, 3)
                     + conllu_line(3, 1) + "\n").encode() + VALID_CONLLU.encode(),
    "head out of range": (conllu_line(1, 0) + conllu_line(2, 9)
                          + "\n").encode() + VALID_CONLLU.encode(),
    "negative head": (conllu_line(1, 0) + conllu_line(2, -1)
                      + "\n").encode(),
    "non-integer head": (conllu_line(1, 0) + conllu_line(2, "x")
                         + "\n").encode(),
    "self head": (conllu_line(1, 0) + conllu_line(2, 2) + "\n").encode(),
    "two roots": (conllu_line(1, 0) + conllu_line(2, 0) + "\n").encode(),
    "multiword range": (conllu_line("1-2", "_") + conllu_line(1, 0)
                        + conllu_line(2, 1) + conllu_line(3, 2)
                        + "\n").encode(),
    "empty node": (conllu_line(1, 0) + conllu_line("1.1", "_")
                   + conllu_line(2, 1) + conllu_line(3, 1) + "\n").encode(),
    "bad token id": (conllu_line("one", 0) + "\n").encode(),
    "duplicate token id": (conllu_line(1, 0) + conllu_line(1, 1)
                           + "\n").encode(),
    "missing columns": (conllu_line(1, 0, columns=6)
                        + conllu_line(2, 1, columns=3) + "\n").encode(),
    "only comments": b"# sent_id = 1\n# text = nothing\n\n",
    "empty file": b"",
    "single words": (conllu_line(1, 0) + "\n").encode() * 5,
}

# Malformed manifests, next to a valid corpus named ok.conllu.
MALFORMED_MANIFESTS = {
    "binary": bytes(range(256)),
    "latin-1 text": "ok.conllu\tC\tFran\xe7ais\n".encode("latin-1"),
    "missing columns": b"ok.conllu\n",
    "extra columns": b"ok.conllu\tC\tL\tX\n",
    "directory as corpus": b".\tC\tL\n",
    "missing corpus": b"nowhere.conllu\tC\tL\n",
    "comments only": b"# nothing here\n",
}


def mutants(seed, count=4):
    """Valid CoNLL-U with a few heads rewritten (even seeds) or a few bytes
    overwritten, deleted or duplicated (odd seeds)."""
    rng = np.random.default_rng(seed)
    if seed % 2 == 0:
        lines = VALID_CONLLU.splitlines(keepends=True)
        tokens = [i for i, line in enumerate(lines) if "\t" in line]
        for at in rng.choice(tokens, size=count, replace=False):
            fields = lines[at].split("\t")
            fields[6] = str(int(rng.integers(-1, 8)))
            lines[at] = "\t".join(fields)
        return "".join(lines).encode()
    data = bytearray(VALID_CONLLU.encode())
    for _ in range(count):
        at = int(rng.integers(len(data)))
        action = rng.integers(3)
        if action == 0:
            data[at] = int(rng.integers(256))
        elif action == 1:
            del data[at]
        else:
            data[at:at] = data[at:at + int(rng.integers(1, 40))]
    return bytes(data)


def run_cli(argv):
    """Exit code of ``main``; any exception other than SystemExit fails."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestMalformedInput:
    """A CLI fuzz guard: malformed corpora and manifests end in an exit code
    of the documented set, never in an uncaught exception."""

    COMMANDS = ("extract", "fit-select", "omega")

    @staticmethod
    def run_all(manifest, out):
        for command in TestMalformedInput.COMMANDS:
            code = run_cli([command, "--manifest", str(manifest),
                            "--out", str(out / command)])
            assert code in (0, 2, 3, 4), command

    @pytest.mark.parametrize("case", sorted(MALFORMED_CONLLU))
    def test_malformed_conllu(self, case, tmp_path):
        (tmp_path / "bad.conllu").write_bytes(MALFORMED_CONLLU[case])
        (tmp_path / "ok.conllu").write_text(VALID_CONLLU)
        alone = tmp_path / "alone.txt"
        alone.write_text("bad.conllu\tC\tBad\n")
        mixed = tmp_path / "mixed.txt"
        mixed.write_text("bad.conllu\tC\tBad\nok.conllu\tC\tOk\n")
        self.run_all(alone, tmp_path / "alone")
        self.run_all(mixed, tmp_path / "mixed")

    @pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
    def test_malformed_manifest(self, case, tmp_path):
        (tmp_path / "ok.conllu").write_text(VALID_CONLLU)
        manifest = tmp_path / "manifest.txt"
        manifest.write_bytes(MALFORMED_MANIFESTS[case])
        self.run_all(manifest, tmp_path)

    @pytest.mark.parametrize("seed", range(12))
    def test_mutated_conllu(self, seed, tmp_path):
        (tmp_path / "bad.conllu").write_bytes(mutants(seed))
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("bad.conllu\tC\tBad\n")
        self.run_all(manifest, tmp_path)
