"""One workload process: CLI passes in a closed loop, one client.

``run.py`` starts this file in a fresh interpreter with BLAS pinned to one
thread, so the peak RSS it reports belongs to this workload alone:

    python3 perfbench/worker.py SPEC.json

The spec names the CLI invocations of one pass (``units``), a small
warm-up invocation, the measuring window and whether to trace.  Each pass
runs every unit once through ``depdist.cli.main`` and the next pass starts
only after it completes.  Untraced, passes repeat while the next one is
expected to end inside the window.  Traced, one untraced pass is followed
by one traced pass over the same inputs.  The speed probe (``probe.py``)
runs before, between and after the CLI invocations of a pass, and its
mean time is stored with the pass.  The result goes to the spec's
``result`` path as JSON.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import probe  # noqa: E402
import tracer as tracer_mod  # noqa: E402


def invoke(argv: list[str]) -> dict:
    """Run one CLI invocation in-process; classify how it ended.

    An exception escaping ``main`` is what a shell user sees as a
    traceback and exit code 1.  ``parser.error`` raises SystemExit(2)
    while handling the domain error, which stays on ``__context__``.
    """
    from depdist import cli

    error = None
    start = time.perf_counter()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
            error = exc.__context__
        except Exception as exc:  # the benchmark records every crash
            code, error = 1, exc
    wall = time.perf_counter() - start
    return {
        "argv": argv,
        "code": code,
        "error_class": type(error).__name__ if error else None,
        "error": str(error) if error else None,
        "wall": wall,
    }


def run_pass(units: list[list[str]], out_dir: Path) -> dict:
    """Every unit once; the speed probe runs before, between and after."""
    probes = [probe.probe()]
    results = []
    for i, argv in enumerate(units):
        results.append(invoke(argv + ["--out", str(out_dir / f"u{i}")]))
        probes.append(probe.probe())
    return {"wall": sum(unit["wall"] for unit in results),
            "probe_s": sum(probes) / len(probes), "out": str(out_dir),
            "units": results}


def scaled_wall(done: dict) -> float:
    """Pass wall time at the probe's reference speed."""
    return done["wall"] * probe.REFERENCE_S / done["probe_s"]


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    out = Path(spec["out"])
    units = spec["units"]
    invoke(spec["warmup"] + ["--out", str(out / "warmup")])

    result: dict = {"passes": []}
    if not spec["trace"]:
        window = spec["seconds"]
        start = time.perf_counter()
        while True:
            done = run_pass(units, out / f"p{len(result['passes'])}")
            result["passes"].append(done)
            if time.perf_counter() - start + done["wall"] > window:
                break
    else:
        plain = run_pass(units, out / "p0")
        tracer = tracer_mod.Tracer()
        tracer.pass_id = 1
        tracer.install()
        try:
            traced = run_pass(units, out / "p1")
        finally:
            tracer.uninstall()
        result["passes"] = [plain, traced]
        result["metrics"], result["notes"] = tracer_mod.layer_metrics(
            tracer, traced["wall"], scaled_wall(traced) / scaled_wall(plain))
        Path(spec["spans"]).write_text("".join(
            json.dumps(dict(zip(("name", "start", "end", "parent", "pass"),
                                record))) + "\n"
            for record in tracer.spans))
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
