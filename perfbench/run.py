"""Benchmark of the depdist command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads drive ``fit-select``,
``omega``, ``validate`` and ``extract`` through ``depdist.cli.main`` on
inputs generated from the seed; see ``perfbench/README.md`` for why each
exists.  The workload runs in its own fresh interpreter (``worker.py``)
with BLAS pinned to one thread, in a closed loop with one client.

With ``--trace 0`` the end-to-end metrics are measured; with ``--trace 1``
one untraced and one traced pass give the per-layer metrics.  Every
output is checked; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

# One BLAS thread, set before numpy loads, in this process and its children.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import probe  # noqa: E402

WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 3
WORKER_TIMEOUT_S = 150

# fit-select inputs cycle through this many corpora, each with a reference
# recorded at the seed commit (record_reference.py).
FIT_VARIANTS = 16
FIT_LANGUAGES = (
    dataclasses.replace(gen.LANGUAGES[0], shape=None),
    dataclasses.replace(gen.LANGUAGES[1], shape=None),
)
FIT_SENTENCES = 200
# Samples of one or two sentences crash models 4 and 7 at the seed commit
# (README, "Known limits"); no fit fails on any variant with this floor.
FIT_MIN_PER_LENGTH = 3
OMEGA_LANGUAGE = dataclasses.replace(gen.LANGUAGES[0], mean_length=10.0,
                                     shape=None)
OMEGA_SENTENCES = 600
# Longer sentences cost the seed solver 0.1 to 5 s each, heavy-tailed.
OMEGA_MAX_LENGTH = 16
EXTRACT_SENTENCES = 8000
# A fixed panel: the share of seeds that crash must not be a random draw.
VALIDATION_SEEDS = (1, 2, 3, 4, 5)

END_TO_END_UNITS = {"items_per_s": "1/s", "ok_frac": "share",
                    "peak_rss_mb": "MB", "setup_s": "s"}


# ---------------------------------------------------------------------------
# Workloads: inputs, CLI invocations of one pass, and their checks
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Workload:
    units: list[list[str]]          # CLI argv of each invocation in a pass
    warmup: list[str]
    # (unit index, unit result, its output directory) -> verdict
    check: Callable[[int, dict, Path], checks.Verdict]


def write_corpora(directory: Path, corpora: dict) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    lines = []
    for language, trees in corpora.items():
        (directory / f"{language}.conllu").write_text(
            gen.to_conllu_text(trees))
        lines.append(f"{language}.conllu\t{checks.COLLECTION}\t{language}\n")
    manifest = directory / "manifest.txt"
    manifest.write_text("".join(lines))
    return manifest


def corpus_warmup(work: Path, command: list[str]) -> list[str]:
    trees = gen.corpus(np.random.default_rng(0), gen.LANGUAGES[0], 20, hi=10)
    manifest = write_corpora(work / "warmup", {"Warm": trees})
    return command + ["--manifest", str(manifest)]


def fit_select_corpora(variant: int) -> dict:
    rng = np.random.default_rng([variant, 1])
    return {lang.name: gen.corpus(rng, lang, FIT_SENTENCES,
                                  min_count=FIT_MIN_PER_LENGTH)
            for lang in FIT_LANGUAGES}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def fit_select(seed: int, work: Path) -> Workload:
    variant = seed % FIT_VARIANTS
    corpora = fit_select_corpora(variant)
    reference = load_reference()["fit-select"].get(str(variant))
    command = ["fit-select", "--mode", "both"]
    return Workload(
        units=[command + ["--manifest", str(write_corpora(work, corpora))]],
        warmup=corpus_warmup(work, command),
        check=lambda i, unit, out: checks.check_fit_select(
            unit, out, corpora, reference),
    )


def omega(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    corpora = {OMEGA_LANGUAGE.name: gen.corpus(
        rng, OMEGA_LANGUAGE, OMEGA_SENTENCES, hi=OMEGA_MAX_LENGTH)}
    return Workload(
        units=[["omega", "--manifest", str(write_corpora(work, corpora))]],
        warmup=corpus_warmup(work, ["omega"]),
        check=lambda i, unit, out: checks.check_omega(unit, out, corpora),
    )


def validate(seed: int, work: Path) -> Workload:
    # The workload seed sets the order in which the panel runs.
    k = seed % len(VALIDATION_SEEDS)
    order = VALIDATION_SEEDS[k:] + VALIDATION_SEEDS[:k]
    reference = load_reference()["validate"]
    return Workload(
        units=[["validate", "--seed", str(s)] for s in order],
        warmup=["validate", "--seed", str(order[0]), "--n-draws", "500"],
        check=lambda i, unit, out: checks.check_validate(
            unit, out, reference.get(str(order[i]))),
    )


def extract(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng([seed, 3])
    corpora = {lang.name: gen.corpus(rng, lang, EXTRACT_SENTENCES)
               for lang in gen.LANGUAGES}
    command = ["extract", "--mode", "both"]
    return Workload(
        units=[command + ["--manifest", str(write_corpora(work, corpora))]],
        warmup=corpus_warmup(work, command),
        check=lambda i, unit, out: checks.check_extract(unit, out, corpora),
    )


WORKLOADS = {"fit-select": fit_select, "omega": omega, "validate": validate,
             "extract": extract}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def worker_env() -> dict:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    return env


def measure_setup(env: dict) -> tuple[float, float]:
    """Median time of a fresh interpreter importing ``depdist.cli``.

    Returns the median scaled to the probe's reference speed by the mean
    of the probes run before, between and after the imports, and the
    unscaled median.
    """
    times, probes = [], [probe.probe()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import depdist.cli"], env=env,
                       cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
        probes.append(probe.probe())
    raw = statistics.median(times)
    return raw * probe.REFERENCE_S / statistics.mean(probes), raw


def run_worker(workload: Workload, work: Path, seconds: int, trace: bool,
               spans: Path, env: dict) -> dict:
    spec = {"units": workload.units, "warmup": workload.warmup,
            "seconds": seconds, "trace": trace, "out": str(work / "out"),
            "result": str(work / "result.json"), "spans": str(spans)}
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                   env=env, cwd=ROOT, check=True, timeout=WORKER_TIMEOUT_S)
    return json.loads((work / "result.json").read_text())


def environment() -> dict:
    import scipy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "blas": BLAS_ENV}


def describe_failure(unit: dict) -> str:
    argv = " ".join(a for a in unit["argv"][:-2]   # without --out DIR
                    if not a.startswith(str(ROOT)))
    return (f"{argv}: exit {unit['code']}"
            + (f", {unit['error_class']}: {unit['error']}"
               if unit["error_class"] else ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "depdist" / "cli.py").is_file():
        print(f"error: no depdist sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        env = worker_env()
        setup_s, raw_setup_s = (None, None) if args.trace \
            else measure_setup(env)
        result = run_worker(workload, work, args.seconds, bool(args.trace),
                            RESULTS / f"{tag}-spans.jsonl", env)

        attempted = ok = 0
        rates, raw_rates, mismatches, failures = [], [], {}, {}
        for number, done in enumerate(result["passes"], start=1):
            pass_ok = pass_attempted = 0
            for i, unit in enumerate(done["units"]):
                verdict = workload.check(i, unit, Path(done["out"]) / f"u{i}")
                pass_attempted += verdict.attempted
                pass_ok += verdict.ok
                for mismatch in verdict.mismatches:
                    mismatches[mismatch] = mismatches.get(mismatch, 0) + 1
                if not checks.completed(unit):
                    failure = describe_failure(unit)
                    failures[failure] = failures.get(failure, 0) + 1
            attempted += pass_attempted
            ok += pass_ok
            raw_rates.append(pass_ok / done["wall"])
            rates.append(raw_rates[-1] * done["probe_s"] / probe.REFERENCE_S)
            print(f"pass {number}: {pass_ok}/{pass_attempted} items ok "
                  f"in {done['wall']:.3f} s, probe {done['probe_s']:.3f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = result["metrics"]
        units = {}
        for note in result["notes"]:
            print(f"note: {note}")
    else:
        metrics = {"items_per_s": statistics.median(rates),
                   "ok_frac": ok / attempted,
                   "peak_rss_mb": result["peak_rss_mb"],
                   "setup_s": setup_s}
        units = END_TO_END_UNITS
        print(f"unscaled: items_per_s {statistics.median(raw_rates):.6g} 1/s, "
              f"setup_s {raw_setup_s:.6g} s")
    report = {name: {"value": value, "unit": units.get(name, unit_of(name))}
              for name, value in metrics.items()}
    for failure, count in sorted(failures.items()):
        print(f"failed: {failure} (x{count})")
    for mismatch, count in mismatches.items():
        print(f"MISMATCH: {mismatch} (x{count})")
    env_record = environment()
    print("environment: " + json.dumps(env_record))
    for name, entry in report.items():
        print(f"metric {name} = {entry['value']:.6g} {entry['unit']}")
    line = {"correct": not mismatches, "attempted": attempted,
            "failed": attempted - ok, "metrics": report}
    (RESULTS / f"{tag}.json").write_text(json.dumps(
        {**line, "environment": env_record, "failures": failures,
         "mismatches": mismatches}, indent=1))
    print(f"correct: {str(not mismatches).lower()}; "
          f"run took {time.perf_counter() - started:.1f} s")
    print(json.dumps(line))
    return 0


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_frac"):
        return "share"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
