"""One fresh process per workload run: import nvsk, warm up, then run whole
passes of CLI commands in a closed loop with one client.

    python3 worker.py PLAN.json --mode probe|run|record [--seconds S]
                      [--trace 0|1] [--corrupt]

It prints `ready` once imports and the warm-up commands are done (the
parent times fresh start to this line as set-up), then times every command
through nvsk.cli.main(argv), checks each output between commands, outside
the timed span, and writes result.json next to the plan.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

MAX_TIMED_S = 100.0  # stop starting passes after this, to end within the run limit


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)  # all threads of the process
    return ru.ru_utime + ru.ru_stime


def blas_threads():
    """OpenBLAS's own thread count, read from the loaded library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def host_probe() -> float:
    """Fixed pure-Python plus numpy work, for judging host-speed drift.

    Recorded only; it never normalises a metric. It runs after the
    warm-up commands, so nvsk's imports and BLAS threads are warm.
    """
    import numpy as np

    def work():
        total = 0
        for i in range(500_000):
            total += i * i
        a = np.random.default_rng(0).standard_normal((200, 200))
        for _ in range(20):
            a = np.tanh(a @ a)
        np.sort(np.random.default_rng(1).standard_normal(1_000_000))

    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def corrupt(path: Path) -> None:
    """Change one number in an output, as a deliberately wrong result."""
    if path.suffix == ".json":
        payload = json.loads(path.read_text())

        def bump(obj):
            items = obj.items() if isinstance(obj, dict) else enumerate(obj)
            for k, v in items:
                if isinstance(v, float):
                    obj[k] = v * 1.5 + 1.0
                    return True
                if isinstance(v, (dict, list)) and bump(v):
                    return True
            return False

        bump(payload)
        path.write_text(json.dumps(payload, indent=2) + "\n")
    else:
        lines = path.read_text().splitlines()
        cells = lines[-1].split(",")
        cells[-1] = repr(float(cells[-1]) * 1.5 + 1.0)
        lines[-1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("plan")
    ap.add_argument("--mode", choices=("probe", "run", "record"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args()
    plan_path = Path(args.plan)
    plan = json.loads(plan_path.read_text())
    sys.path.insert(0, plan["src"])

    import nvsk.cli as cli

    for argv in plan["warmup"]:
        if cli.main(argv) != 0:
            print(f"perfbench: warm-up command failed: {' '.join(argv)}", file=sys.stderr)
            return 3
    print("ready", flush=True)
    if args.mode == "probe":
        return 0

    import checks
    from tracer import Tracer

    probe_start = host_probe()
    variants = plan["variants"]
    reference = plan.get("reference", {})
    record = args.mode == "record"
    trace = bool(args.trace)
    per_variant = 2 if trace else 1  # trace mode pairs untraced/traced passes
    # A fixed number of passes, so the same seed always attempts the same
    # commands; in trace mode half of them are traced.
    rounds = math.ceil(args.seconds / plan["seconds_per_pass"] / per_variant)
    n_passes = per_variant * max(1, rounds)
    if record:  # the first two pass variants
        n_passes = min(len(variants), 2)
    # corrupt: the first pass that repeats an earlier one, so its outputs
    # have something to match
    corrupt_pass = len(variants) * per_variant if args.corrupt else -1
    n_passes = max(n_passes, corrupt_pass + 1)
    tracer = Tracer() if trace else None
    seen = {}
    records, passes = [], []
    start = time.perf_counter()
    p = 0
    truncated = False
    while p < n_passes:
        if time.perf_counter() - start > MAX_TIMED_S:  # a host far slower than nominal
            truncated = True
            break
        traced = trace and p % 2 == 1
        variant = (p // per_variant) % len(variants)
        if traced:
            tracer.install()
        wall = cpu = 0.0
        for n, cmd in enumerate(variants[variant]):
            if traced:
                tracer.command += 1
            cpu0 = _cpu_seconds()
            t0 = time.perf_counter()
            try:
                rc = cli.main(cmd["argv"])
            except Exception as exc:  # a traceback is a failed command, not a crash
                rc = f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            used = _cpu_seconds() - cpu0
            wall += latency
            cpu += used
            if p == corrupt_pass and n == 0:
                corrupt(Path(cmd["out"]))
            if rc != 0:
                reason, digest, sizes = f"exit {rc}", None, {}
            else:
                expected = seen.get(cmd["key"], reference.get(cmd["key"], {}).get("digest"))
                reason, digest, sizes = checks.check_output(cmd, expected)
                if reason is None:
                    seen.setdefault(cmd["key"], digest)
            records.append({
                "pass": p, "key": cmd["key"], "kind": cmd["kind"], "latency": latency,
                "cpu": used, "traced": traced, "reason": reason, **sizes,
            })
        if traced:
            tracer.uninstall()
        passes.append({"wall": wall, "cpu": cpu, "traced": traced})
        p += 1
    probe_end = host_probe()

    import numpy
    import scipy

    result = {
        "records": records,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "meta": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "blas_threads": blas_threads(),
            "host_probe_s": [probe_start, probe_end],
            "truncated": truncated,
        },
    }
    if record:
        failed = {r["key"]: r["reason"] for r in records if r["reason"]}
        result["reference"] = {
            key: {"digest": seen[key]} if key not in failed else {"failed": failed[key]}
            for key in dict.fromkeys(r["key"] for r in records)
        }
    if trace:
        traced_passes = sum(1 for q in passes if q["traced"])
        result["trace"] = {
            "passes": traced_passes,
            "self": tracer.self_times(),
            "counts": dict(tracer.counts),
            "absent": tracer.absent,
            "spans": len(tracer.spans),
        }
        tracer.write(plan_path.parent / "spans.json")
    (plan_path.parent / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
