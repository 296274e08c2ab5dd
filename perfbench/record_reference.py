"""Record the correctness reference of fit-select and validate.

    python3 perfbench/record_reference.py

Run once, from the root of a checkout at the commit whose results are the
reference, to rewrite ``perfbench/reference.json``.  It holds, for every
fit-select corpus variant, the best model and each model's log-likelihood
per (language, length), and for every validation seed of the panel that
completes, the best model per artificial sample.  Later commits must
select the same models and may not fit any log-likelihood more than
``checks.LL_TOLERANCE`` below the reference.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS and puts the benchmark's modules on sys.path

sys.path.insert(0, str(run.ROOT / "src"))

import checks  # noqa: E402
from worker import invoke  # noqa: E402


def main() -> None:
    reference: dict = {"fit-select": {}, "validate": {}}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        work = Path(tmp)
        for variant in range(run.FIT_VARIANTS):
            corpora = run.fit_select_corpora(variant)
            manifest = run.write_corpora(work / f"v{variant}", corpora)
            out = work / f"v{variant}" / "out"
            unit = invoke(["fit-select", "--mode", "both", "--manifest",
                           str(manifest), "--out", str(out)])
            if not checks.completed(unit):
                sys.exit(f"variant {variant} failed: {unit}")
            tables = checks.fit_tables(out)
            reference["fit-select"][str(variant)] = {
                language: {length: entry for (lang, length), entry
                           in tables.items() if lang == language}
                for language in corpora}
            print(f"fit-select variant {variant}: {len(tables)} samples",
                  flush=True)
        for seed in run.VALIDATION_SEEDS:
            out = work / f"validate{seed}"
            unit = invoke(["validate", "--seed", str(seed), "--out", str(out)])
            print(f"validate seed {seed}: exit {unit['code']} "
                  f"{unit['error_class'] or ''}", flush=True)
            if checks.completed(unit):
                reference["validate"][str(seed)] = checks.validation_best(out)
    run.REFERENCE.write_text(json.dumps(reference, indent=0) + "\n")


if __name__ == "__main__":
    main()
