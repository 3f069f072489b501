"""Paired before/after runs of one benchmark workload, summarized in a
BENCH_<label>.json at the repository root.

    python3 tools/bench_compare.py --base REV --workload W --pairs N --label L
        [--first-seed 1] [--held-out SEED]

Run from the repository root. The base and the change, HEAD (uncommitted
edits are not measured), are checked out as two detached `git worktree`s
in one temporary directory, at paths of equal length, and both are
byte-compiled: strain-analyze `peak_rss_mb` has read 8 % apart between
checkouts whose paths differ in length, and `setup_s` 11 % apart when
only one side had bytecode. Pair i runs `perfbench/run.py --workload W
--seed S --seconds T` once in each checkout, with T the change's
BENCHMARK.json `run_seconds`, at seed S = first-seed + i, the base first
on even pairs and the change first on odd ones, and reads the JSON
result on the last line of its output. A held-out seed runs one more
pair, recorded apart from the summary. The worktrees are removed at the
end.

For each end-to-end metric of BENCHMARK.json the summary holds both
medians, the base's interquartile range, the pairs in which the change
was better, and `unresolved`: whether the medians differ by no more than
the base's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def summarize(pairs, better: str) -> dict:
    """The summary of one metric over (base, change) pairs of readings;
    better is "lower" or "higher"."""
    base = [b for b, _ in pairs]
    change = [c for _, c in pairs]
    if len(base) > 1:
        q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive")
    else:
        q1 = q3 = base[0]
    base_median, change_median = statistics.median(base), statistics.median(change)
    sign = 1.0 if better == "lower" else -1.0
    return {
        "better": better,
        "base_median": base_median,
        "change_median": change_median,
        "base_iqr": q3 - q1,
        "pairs": len(pairs),
        "change_better": sum(sign * (c - b) < 0 for b, c in pairs),
        "unresolved": abs(change_median - base_median) <= q3 - q1,
    }


def _git(*args, cwd=None) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in a checkout: its metric values, failed command
    count and correctness."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench/run.py failed in {checkout} at seed {seed} "
                           f"(exit {proc.returncode}): {proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return {**values, "failed": result["failed"], "attempted": result["attempted"],
            "correct": result["correct"]}


def _pair(sides: dict, workload: str, seed: int, seconds: float, base_first: bool) -> dict:
    order = ("base", "change") if base_first else ("change", "base")
    runs = {side: _run(sides[side], workload, seed, seconds) for side in order}
    print(f"seed {seed}: " + ", ".join(
        f"{side} {runs[side]}" for side in ("base", "change")), file=sys.stderr)
    return {"seed": seed, "first": order[0], **runs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--label", required=True, help="names the output, BENCH_<label>.json")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--held-out", type=int, default=None, help="seed of one more pair")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    root = Path(_git("rev-parse", "--show-toplevel"))
    revs = {"base": _git("rev-parse", args.base, cwd=root),
            "change": _git("rev-parse", "HEAD", cwd=root)}
    spec = json.loads(_git("show", f"{revs['change']}:BENCHMARK.json", cwd=root))
    seconds = spec["run_seconds"]
    scratch = Path(tempfile.mkdtemp(prefix="bench_compare_"))
    # "base" and "head": equal lengths, so equal checkout paths
    sides = {"base": scratch / "base", "change": scratch / "head"}
    try:
        for side, path in sides.items():
            _git("worktree", "add", "--detach", str(path), revs[side], cwd=root)
            subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                           cwd=path, check=True, capture_output=True)
        seeds = range(args.first_seed, args.first_seed + args.pairs)
        runs = [_pair(sides, args.workload, seed, seconds, i % 2 == 0)
                for i, seed in enumerate(seeds)]
        held_out = None
        if args.held_out is not None:
            held_out = _pair(sides, args.workload, args.held_out, seconds,
                             args.pairs % 2 == 0)
    finally:
        for path in sides.values():
            if path.exists():
                subprocess.run(["git", "worktree", "remove", "--force", str(path)], cwd=root,
                               capture_output=True)
        _git("worktree", "prune", cwd=root)
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = {
        m["name"]: summarize([(r["base"][m["name"]], r["change"][m["name"]]) for r in runs],
                             m["better"])
        for m in spec["end_to_end"]
    }
    report = {
        "workload": args.workload,
        "base": revs["base"],
        "change": revs["change"],
        # the measured program, whatever commit holds it: `git rev-parse REV:src`
        "src_trees": {side: _git("rev-parse", f"{rev}:src", cwd=root)
                      for side, rev in revs.items()},
        "seconds": seconds,
        "seeds": list(seeds),
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "metrics": metrics,
        "held_out": held_out,
        "runs": runs,
    }
    out = root / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    for name, m in metrics.items():
        print(f"{args.workload}/{name}: {m['base_median']:.6g} -> {m['change_median']:.6g} "
              f"(base IQR {m['base_iqr']:.3g}, change better in {m['change_better']}/"
              f"{m['pairs']}{', unresolved' if m['unresolved'] else ''})")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
