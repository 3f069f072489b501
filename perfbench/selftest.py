"""Self-test of the benchmark on reduced inputs.

    python3 perfbench/selftest.py        (from the repository root)

For every workload it runs one small pass and checks that
  1. the printed metric names and units match BENCHMARK.json, untraced
     (end_to_end) and traced (per_layer), every listed metric included;
  2. a deliberately corrupted output is counted as failed and marks the
     run incorrect;
and finally that run.py refuses, without printing a result, in a
directory holding only BENCHMARK.json and the benchmark's own files.
Exit code 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from inputs import WORKLOADS  # noqa: E402

# Per-layer counters that must be non-zero on the workload that exercises them.
EXERCISED = {
    "ti-band": ("photophysics.samples_evaluated", "photophysics.samples_kept",
                "photophysics.initialization_time.calls"),
    "trace-export": ("dataio.bytes_written", "photophysics.evolve.self_s"),
    "strain-analyze": ("strainmap.tiles", "strainmap.tiles_skipped", "strainmap.lsq.nfev",
                       "dataio.bytes_read"),
    "analysis-mix": ("ramsey.fit.nfev", "sensitivity.objective_evals",
                     "charge.decompose_to_psi.self_s"),
}


def run(root: Path, workload: str, *extra: str):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--small", *extra],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc, result


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    problems = []

    def expect(ok, message):
        if not ok:
            problems.append(message)
        print(("ok   " if ok else "FAIL ") + message, flush=True)

    for workload in WORKLOADS:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            proc, result = run(root, workload, "--trace", trace)
            if result is None:
                expect(False, f"{workload} --trace {trace} exits 0 ({proc.stderr.strip()})")
                continue
            listed = {m["name"]: m["unit"] for m in spec[key]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(printed == listed, f"{workload} --trace {trace}: metrics match {key}")
            expect(result["correct"] and result["attempted"] >= 1,
                   f"{workload} --trace {trace}: correct, {result['attempted']} attempted")
            if trace == "1":
                zero = [m for m in EXERCISED[workload] if not result["metrics"][m]["value"]]
                expect(not zero, f"{workload} traced: layer counters non-zero {zero or ''}")
                absent = result["metrics"]["trace.absent"]["value"]
                expect(absent == 0, f"{workload} traced: {absent} traced names absent")
        proc, result = run(root, workload, "--corrupt")
        expect(result is not None and result["failed"] >= 1 and not result["correct"],
               f"{workload}: corrupted output counted in fail_frac "
               f"({result and result['failed']} failed)")

    bare = root / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bare / HERE.name / "run.py"), "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           f"bare checkout refused with exit {proc.returncode} and no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
