"""nvsk end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Workloads (see inputs.py for why each):

    ti-band         photophysics ti-band: the decimated t_I path
    trace-export    photophysics simulate at seven intensities: full-resolution
                    traces and the CSV write path
    strain-analyze  strain analyze on 1024^2 maps: tile histogram fits and the
                    CSV read path
    analysis-mix    105 short ramsey/sensitivity/dephasing/charge commands

Each run generates its inputs from the seed (untimed), times set-up in fresh
interpreters, then runs whole passes of the workload's commands in one fresh
process, a closed loop with one client and the libraries' default threads.
The timed phase is a fixed number of passes, ceil(S / SECONDS_PER_PASS) (see
inputs.py), so the same seed attempts the same commands on every run. Every
output is checked. With --trace 1 the passes alternate untraced and traced,
and the per-layer metrics come from the traced ones. The last line of stdout
is the JSON result; lines before it name each metric as <workload>/<metric>
with unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from checks import KNOWN_DEFECT_KINDS  # noqa: E402

SETUP_PROBES = 2  # fresh interpreters timed to "ready", besides the worker
WORKER_TIMEOUT_S = 150
REFERENCE = HERE / "reference.json"

END_TO_END = {
    "wall_s": "s",
    "cmd_p50_s": "s",
    "cmd_p90_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_SELF_S = (
    "photophysics.ti_band", "photophysics.initialization_time", "photophysics.evolve",
    "photophysics.contrast_trace", "photophysics.lowpass", "strainmap.partition_sweep",
    "strainmap.histogram_fwhm", "dataio.emit_csv", "dataio.load_strain_map",
    "dataio.write_manifest", "dataio.sha256_file", "ramsey.fit",
    "sensitivity.volume_normalized_sensitivity", "sensitivity.optimal_nitrogen",
    "charge.decompose_to_psi", "config.parse_config",
)
_CALLS = {
    "photophysics.initialization_time.calls": "photophysics.initialization_time",
    "strainmap.histogram_fwhm.calls": "strainmap.histogram_fwhm",
    "strainmap.lsq.calls": "strainmap.least_squares",
    "ramsey.fit.calls": "ramsey.fit",
    "cli.main.calls": "cli.main",
}
_COUNTS = {
    "photophysics.samples_evaluated": "count",
    "photophysics.samples_kept": "count",
    "strainmap.lsq.nfev": "count",
    "strainmap.tiles": "count",
    "strainmap.tiles_skipped": "count",
    "dataio.bytes_written": "bytes",
    "dataio.bytes_read": "bytes",
    "ramsey.fit.nfev": "count",
}
_MODULES = ("photophysics", "strainmap", "dataio", "ramsey", "sensitivity", "charge",
            "config", "dephasing", "cli")
PER_LAYER = {
    **{f"{name}.self_s": "s" for name in _SELF_S},
    **{name: "count" for name in _CALLS},
    **_COUNTS,
    "photophysics.kept_ratio": "ratio",
    "strainmap.fit_yield": "ratio",
    "dataio.write_mb_per_s": "MB/s",
    "sensitivity.objective_evals": "count",
    **{f"{m}.self_s": "s" for m in _MODULES},
    **{f"{m}.share": "ratio" for m in _MODULES},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.absent": "count",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def time_to_ready(cmd, cwd, log):
    """Start a fresh interpreter; return (process, seconds until 'ready')."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=log, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start (exit {proc.returncode}); see {log.name}")
    return proc, ready


def median(values):
    return float(np.median(values)) if len(values) else float("nan")


def end_to_end(result, setup):
    """Wall and CPU time are totals over the timed phase's fixed set of
    passes, so costly commands (slow Ramsey fits, say) average out over the
    whole run; command latencies pool every untraced command of the run, so
    a percentile falls inside a cluster of like commands rather than on one
    command of one pass."""
    untraced = [p for p in result["passes"] if not p["traced"]]
    latencies = [r["latency"] for r in result["records"] if not r["traced"]]
    timed = f"timed phase, {len(untraced)} passes of {len(latencies)} commands"
    n_cmds = f"n={len(latencies)} commands"
    return {
        "wall_s": (sum(p["wall"] for p in untraced), timed),
        "cmd_p50_s": (median(latencies), n_cmds),
        "cmd_p90_s": (float(np.percentile(latencies, 90)), n_cmds),
        "cpu_s": (sum(p["cpu"] for p in untraced), timed),
        "setup_s": (median(setup), f"median of {len(setup)} fresh interpreters"),
        "peak_rss_mb": (result["peak_rss_mb"], "worker high-water RSS"),
    }


def per_layer(result):
    tr = result["trace"]
    n = max(tr["passes"], 1)
    spans, counts = tr["self"], tr["counts"]
    note = f"per traced pass, {tr['passes']} passes"

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0) / n

    values = {f"{name}.self_s": self_s(name) for name in _SELF_S}
    values.update({k: spans.get(v, {}).get("calls", 0) / n for k, v in _CALLS.items()})
    values.update({k: counts.get(k, 0) / n for k in _COUNTS})
    evaluated = counts.get("photophysics.samples_evaluated", 0)
    values["photophysics.kept_ratio"] = (
        counts.get("photophysics.samples_kept", 0) / evaluated if evaluated else 0.0)
    tiles = counts.get("strainmap.tiles", 0)
    values["strainmap.fit_yield"] = (
        (tiles - counts.get("strainmap.tiles_skipped", 0)) / tiles if tiles else 0.0)
    write_s = sum(self_s(f"dataio.{f}") for f in ("emit_csv", "emit_json", "write_manifest"))
    values["dataio.write_mb_per_s"] = (
        values["dataio.bytes_written"] / 1e6 / write_s if write_s else 0.0)
    values["sensitivity.objective_evals"] = sum(
        counts.get(f"sensitivity.{f}", 0) for f in ("ramsey_sensitivity", "simplified_metric")
    ) / n
    traced = [p["wall"] for p in result["passes"] if p["traced"]]
    untraced = [p["wall"] for p in result["passes"] if not p["traced"]]
    wall = sum(traced) / n
    for m in _MODULES:
        values[f"{m}.self_s"] = sum(
            v["self_s"] for k, v in spans.items() if k.split(".")[0] == m) / n
        values[f"{m}.share"] = values[f"{m}.self_s"] / wall
    values["trace.wall_s"] = wall
    values["trace.untraced_wall_s"] = sum(untraced) / max(len(untraced), 1)
    values["trace.overhead_s"] = wall - values["trace.untraced_wall_s"]
    values["trace.spans"] = tr["spans"] / n
    values["trace.absent"] = len(tr["absent"])
    return {k: (v, note) for k, v in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="reduced inputs (self-test)")
    ap.add_argument("--corrupt", action="store_true",
                    help="corrupt one output on purpose (self-test)")
    ap.add_argument("--record-reference", action="store_true",
                    help=f"store this commit's outputs for the default seed in {REFERENCE.name}")
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "nvsk" / "cli.py").is_file():
        return fail(f"no nvsk sources under {src}; run from the repository root")
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail("BENCHMARK.json not found; run from the repository root")
    spec = json.loads(spec_path.read_text())
    if args.record_reference and (args.seed != inputs.DEFAULT_SEED or args.small):
        return fail("the reference is recorded for the default seed at full size only")

    work = root / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = inputs.make_plan(args.workload, args.seed, args.small, work)
    plan["src"] = str(src)
    if args.seed == inputs.DEFAULT_SEED and not args.small and not args.record_reference:
        plan["reference"] = json.loads(REFERENCE.read_text()).get(args.workload, {})
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))

    worker = [sys.executable, str(HERE / "worker.py"), str(plan_path)]
    mode = "record" if args.record_reference else "run"
    run_args = ["--mode", mode, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.corrupt:
        run_args.append("--corrupt")
    proc = None
    with open(work / "worker.log", "w") as log:
        try:
            setup = []
            for _ in range(SETUP_PROBES):
                proc, ready = time_to_ready(worker + ["--mode", "probe"], root, log)
                proc.wait(timeout=60)
                setup.append(ready)
            proc, ready = time_to_ready(worker + run_args, root, log)
            setup.append(ready)
            proc.stdout.close()
            rc = proc.wait(timeout=WORKER_TIMEOUT_S)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait()
            return fail(str(exc))
    if rc != 0:
        return fail(f"worker exited {rc}; see {work / 'worker.log'}")
    result = json.loads((work / "result.json").read_text())

    if args.record_reference:
        stored = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        stored[args.workload] = result["reference"]
        REFERENCE.write_text(json.dumps(stored, sort_keys=True) + "\n")
        print(f"perfbench: recorded {len(result['reference'])} outputs for {args.workload}")

    records = result["records"]
    failures = [r for r in records if r["reason"]]
    unexplained = [r for r in failures if r["kind"] not in KNOWN_DEFECT_KINDS]
    if args.trace:
        metrics, declared = per_layer(result), PER_LAYER
        wanted = spec["per_layer"]
    else:
        metrics, declared = end_to_end(result, setup), END_TO_END
        wanted = spec["end_to_end"]

    w = args.workload
    last = [r for r in records if r["pass"] == len(result["passes"]) - 1]
    meta = dict(result["meta"])
    meta.update(
        workload=w, seed=args.seed, seconds=args.seconds, trace=args.trace,
        passes=len(result["passes"]), commands_per_pass=len(last),
        rows_written_per_pass=sum(r.get("rows", 0) for r in last),
        bytes_written_per_pass=sum(r.get("bytes", 0) for r in last),
        tiles_per_pass=sum(r.get("tiles", 0) for r in last),
        tiles_skipped_per_pass=sum(r.get("skipped", 0) for r in last),
        setup_samples_s=setup,
    )
    print("meta: " + json.dumps(meta))
    out = {}
    for entry in wanted:
        name = entry["name"]
        if name not in metrics or declared[name] != entry["unit"]:
            return fail(f"BENCHMARK.json metric {name} [{entry['unit']}] is not produced")
        value, note = metrics[name]
        out[name] = {"value": value, "unit": entry["unit"]}
        print(f"{w}/{name} = {value:.6g} {entry['unit']}  ({note})")
    print(f"{w}/fail_frac = {len(failures) / len(records):.4g} fraction  "
          f"({len(failures)} of {len(records)} commands failed, "
          f"{len(unexplained)} outside known defects)")
    for r in failures[:10]:
        print(f"failed: pass {r['pass']} {r['key']}: {r['reason']}")
    print(json.dumps({
        "correct": not unexplained,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
