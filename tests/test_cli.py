import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import depdist
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

    def test_csv_json_numeric_identity(self, toy_corpus, tmp_path):
        out_csv = tmp_path / "csv"
        out_json = tmp_path / "json"
        main(["fit-select", "--manifest", str(toy_corpus), "--mode",
              "mixed", "--out", str(out_csv), "--format", "csv"])
        main(["fit-select", "--manifest", str(toy_corpus), "--mode",
              "mixed", "--out", str(out_json), "--format", "json"])
        with open(out_csv / "mixed_fits.csv") as handle:
            csv_rows = list(csv.DictReader(handle))
        json_rows = json.loads((out_json / "mixed_fits.json").read_text())
        assert len(csv_rows) == len(json_rows)
        for c_row, j_row in zip(csv_rows, json_rows):
            for key, j_val in j_row.items():
                c_val = c_row[key]
                if isinstance(j_val, float):
                    assert float(c_val) == j_val, key
                elif j_val is None:
                    assert c_val == ""
                else:
                    assert c_val == str(j_val)

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

    def test_seed_with_out_of_range_normalizers_completes(self, tmp_path):
        # The fits of this suite probe parameters whose two-regime
        # normalizers leave the double range; they are rejected, and the
        # run ends with a verdict instead of an exception.
        code = main(["validate", "--seed", "2", "--out", str(tmp_path)])
        assert code in (0, 4)


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats alone about doubles the command line's start-up time;
    # the chi-square test takes its p-value from scipy.special instead.
    src = str(Path(depdist.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = ("import sys, depdist.cli; print(sorted("
             "m for m in sys.modules if m.startswith('scipy.stats')))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


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
