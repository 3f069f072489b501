"""Seeded input generators and the command plan of every workload.

Everything here is owned by the benchmark: maps, spectra, tables, configs
and Ramsey parameters are drawn with numpy from the seed alone, without
calling nvsk, so editing nvsk cannot change what the benchmark feeds it.
Generation runs before any timing starts.

Each workload is a list of pass *variants*; a pass is one closed-loop
sequence of CLI commands, and the timed phase repeats whole passes,
cycling through the variants. Seeds change parameter values, never the
number or size of the commands; the Ramsey signals of analysis-mix do not
depend on the seed at all (see _mix_pass).

The number of passes is fixed by --seconds (see SECONDS_PER_PASS), never
by a clock, so a given seed and --seconds attempt exactly the same
commands on every run and every host, and meet the same known defects.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
WORKLOADS = ("ti-band", "trace-export", "strain-analyze", "analysis-mix")

# ti-band: one `ti-band` command per pass. The grid starts where the
# weakest-pumped trace (s = 1e-3 at the upper saturation intensity) holds
# 3.7 M samples and is stored decimated with stride 2, so the decimated
# path does the work. The acceptance grid 1e-3:1e1:log:40 takes 26-52 s per
# command on a 2-vCPU Xeon, longer than a whole run.
TI_GRID = (3e-3, 10.0, 10)
# trace-export: full-resolution traces at I_sat = 3 mW/um^2, from 1.13 M
# rows at 0.01 mW/um^2 to ~1e4 rows at 10. The three shortest traces run
# three times per pass, so the median command falls inside a cluster of
# nine samples rather than on a single 0.15 s trace that host noise moves
# by +-25 % from pass to pass.
TRACE_INTENSITIES = (0.01, 1.0, 0.03, 3.0, 0.1, 10.0, 0.3, 1.0, 3.0, 10.0, 1.0, 3.0, 10.0)
TRACE_ISAT = 3.0
# strain-analyze: 1024^2 maps at 3 um pitch, five sensor sizes.
MAP_SHAPE = (1024, 1024)
MAP_PITCH_UM = 3.0
STRAIN_SIZES = "96:1536:log:5"
STRAIN_OTHER_RATE = "0.05"
NAN_BLOCK = (slice(0, 300), slice(0, 200))  # masked region of the two-region map
# analysis-mix: rounds of seven interleaved short commands; each pass
# variant has its own parameters, so the median over passes sees many.
MIX_ROUNDS = 15
MIX_VARIANTS = 8
RAMSEY_DETUNING_MHZ = (0.2, 1.5)
RAMSEY_T2_US = (5.0, 20.0)
RAMSEY_AMPLITUDE = 0.02
RAMSEY_NOISE = 0.02 * RAMSEY_AMPLITUDE
# Sweeps as long as optimal-n, so the median command lands inside one
# cluster of similar latencies instead of on the edge between two.
SWEEP_GRID = "0.001:10:log:8"

# The timed phase runs ceil(seconds / SECONDS_PER_PASS) passes: at
# --seconds 20, 6 ti-band, 3 trace-export, 3 strain-analyze and 5
# analysis-mix passes, 20-25 s of commands on a shared 2-vCPU Xeon
# (Python 3.11, numpy 2.4). Longer runs would not be steadier there: the
# host's speed drifts by 10-30 % over minutes, and cutting the same runs
# down to their first pass or two leaves their spread from seed to seed
# about where it is.
SECONDS_PER_PASS = {"ti-band": 3.4, "trace-export": 7.0, "strain-analyze": 7.0,
                    "analysis-mix": 4.0}

# Reduced sizes for the self-test: same commands, far less work.
SMALL = {
    "ti_grid": (0.3, 10.0, 3),
    "trace_intensities": (3.0, 10.0),
    "map_shape": (256, 256),
    "strain_sizes": "48:192:log:3",
    "mix_rounds": 2,
}


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed, *tag.encode()])


def _fmt(x: float) -> str:
    return repr(float(x))


def write_config(path: Path, sections: dict) -> str:
    lines = []
    for section, items in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {_fmt(value)}" for key, value in items.items())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def photophysics_config(path: Path, seed: int) -> str:
    """Five-level rates with a seeded radiative rate.

    The sample count of a trace, t_end / dt, does not depend on
    gamma_rad, so the seed moves results but not cost.
    """
    gamma = 0.67 * (1.0 + _rng(seed, "gamma").uniform(-0.03, 0.03))
    return write_config(path, {"photophysics": {"gamma_rad_per_us": gamma}})


def sample_config(path: Path, rng: np.random.Generator) -> str:
    ns0 = rng.uniform(0.5, 25.0)
    return write_config(
        path,
        {
            "sample": {
                "ns0_as_grown_ppm": ns0,
                "c13_ppm": rng.uniform(50.0, 200.0),
                "nv_total_ppm": ns0 * rng.uniform(0.1, 0.4),
                "psi": rng.uniform(0.15, 0.8),
            },
            "metric": {"c13_ppm": rng.uniform(20.0, 120.0)},
        },
    )


def intensity_table(path: Path, rng: np.random.Generator) -> str:
    """Five operating points from 1e-3 to 10 mW/um^2, seeded shapes."""
    intensities = np.logspace(-3, 1, 5)
    contrast = rng.uniform(0.012, 0.02) * np.linspace(1.0, rng.uniform(0.3, 0.9), 5)
    psi = rng.uniform(0.2, 0.8) * np.linspace(1.0, rng.uniform(0.3, 0.9), 5)
    overhead = 1.2e4 * (intensities / 1e-3) ** -0.8 * rng.uniform(0.8, 1.2, 5)
    rows = ["intensity_mw_um2,contrast,psi,overhead_us"]
    rows += [",".join(_fmt(v) for v in r) for r in zip(intensities, contrast, psi, overhead)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


WAVELENGTHS_NM = np.arange(550.0, 801.0, 1.0)


def _band(center, width):
    return 1000.0 * np.exp(-0.5 * ((WAVELENGTHS_NM - center) / width) ** 2)


def write_spectrum(path: Path, counts) -> str:
    rows = ["wavelength_nm,counts"]
    rows += [f"{_fmt(w)},{_fmt(c)}" for w, c in zip(WAVELENGTHS_NM, counts)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


def spectra(work: Path, rng: np.random.Generator, tag: str):
    """Measured spectrum as an exact mixture of two basis bands.

    All three share one grid, so the decomposition has an exact answer:
    psi = w_minus / (w_minus + 2.5 w_zero).
    """
    minus = _band(rng.uniform(690.0, 710.0), rng.uniform(45.0, 65.0))
    zero = _band(rng.uniform(630.0, 650.0), rng.uniform(35.0, 50.0))
    w_minus, w_zero = rng.uniform(0.2, 1.0, 2)
    paths = (
        write_spectrum(work / f"{tag}_measured.csv", w_minus * minus + w_zero * zero),
        write_spectrum(work / f"{tag}_minus.csv", minus),
        write_spectrum(work / f"{tag}_zero.csv", zero),
    )
    return paths, w_minus / (w_minus + 2.5 * w_zero)


def write_strain_map(path: Path, values: np.ndarray) -> str:
    """nvsk's strain-map format: numeric CSV grid (kHz) + JSON sidecar."""
    np.savetxt(path, values, delimiter=",", fmt="%.9g", newline="\n")
    sidecar = {"pixel_pitch_um": MAP_PITCH_UM, "orientation": "nv1", "units": "kHz"}
    path.with_suffix(".json").write_text(json.dumps(sidecar, indent=2) + "\n")
    return str(path)


def cauchy_map(rng: np.random.Generator, shape, scale_khz=10.0) -> np.ndarray:
    """Stationary map: i.i.d. Lorentzian shifts, FWHM 2*scale at any size."""
    return scale_khz * rng.standard_cauchy(size=shape)


def two_region_map(rng: np.random.Generator, shape, scale_khz=10.0, hot_khz=60.0):
    """Quiet background with a broad, graded hot square in one corner,
    plus a NaN-masked block so partition_sweep takes its tile-skip path."""
    values = cauchy_map(rng, shape, scale_khz)
    h, w = shape
    hh, hw = h // 4, w // 4
    ramp = np.linspace(0.0, 4.0 * hot_khz, hw)
    values[h - hh :, w - hw :] = hot_khz * rng.standard_cauchy(size=(hh, hw)) + ramp
    rows, cols = NAN_BLOCK
    values[rows.start * h // 1024 : rows.stop * h // 1024,
           cols.start * w // 1024 : cols.stop * w // 1024] = np.nan
    return values


def _cmd(key, kind, argv, out, **check):
    return {"key": key, "kind": kind, "argv": argv, "out": out, "check": check}


def _ti_grid(lo, hi, n):
    return f"{lo:g}:{hi:g}:log:{n}", np.logspace(math.log10(lo), math.log10(hi), n).tolist()


def plan_ti_band(work, seed, small):
    cfg = photophysics_config(work / "photophysics.cfg", seed)
    spec, grid = _ti_grid(*(SMALL["ti_grid"] if small else TI_GRID))
    out = str(work / "out" / "ti_band.csv")
    cmd = _cmd("ti-band", "ti-band",
               ["photophysics", "ti-band", "--grid", spec, "--config", cfg, "--out", out],
               out, grid=grid)
    warm = ["photophysics", "ti-band", "--grid", "1:10:log:2", "--config", cfg,
            "--out", str(work / "out" / "warm.csv")]
    return {"variants": [[cmd]], "warmup": [warm]}


def plan_trace_export(work, seed, small):
    cfg = photophysics_config(work / "photophysics.cfg", seed)
    commands = []
    for intensity in SMALL["trace_intensities"] if small else TRACE_INTENSITIES:
        out = str(work / "out" / f"trace_{intensity:g}.csv")
        commands.append(_cmd(
            f"simulate/{intensity:g}", "simulate",
            ["photophysics", "simulate", "--intensity", f"{intensity:g}",
             "--isat", f"{TRACE_ISAT:g}", "--config", cfg, "--out", out],
            out))
    warm = ["photophysics", "simulate", "--intensity", "10", "--isat", "3",
            "--t-end", "5", "--config", cfg, "--out", str(work / "out" / "warm.csv")]
    return {"variants": [commands], "warmup": [warm]}


def plan_strain_analyze(work, seed, small):
    shape = SMALL["map_shape"] if small else MAP_SHAPE
    sizes = SMALL["strain_sizes"] if small else STRAIN_SIZES
    rng = _rng(seed, "strain")
    maps = {
        "stationary": write_strain_map(work / "stationary.csv", cauchy_map(rng, shape)),
        "two-region": write_strain_map(work / "two_region.csv", two_region_map(rng, shape)),
    }
    warm_map = write_strain_map(work / "warm_map.csv", cauchy_map(_rng(0, "warm"), (128, 128)))

    def analyze(name, offset):
        out = str(work / "out" / f"{name}_{offset}.json")
        return _cmd(
            f"strain/{name}/{offset}", "strain",
            ["strain", "analyze", maps[name], "--sizes", sizes,
             "--other-rate-per-us", STRAIN_OTHER_RATE, "--tile-offset", str(offset),
             "--out", out],
            out, stationary=name == "stationary", offset=offset, shape=list(shape),
            pitch_um=MAP_PITCH_UM,
            nan_block=None if name == "stationary" else
            [[s.start * shape[0] // 1024, s.stop * shape[0] // 1024] for s in NAN_BLOCK])

    # Both variants hold one offset-0 and one offset-16 command, so they
    # cost the same; together they cover every map/offset pair.
    variants = [
        [analyze("stationary", 0), analyze("two-region", 16)],
        [analyze("stationary", 16), analyze("two-region", 0)],
    ]
    warm = ["strain", "analyze", warm_map, "--sizes", "60:192:log:3",
            "--other-rate-per-us", STRAIN_OTHER_RATE, "--out", str(work / "out" / "warm.json")]
    return {"variants": variants, "warmup": [warm]}


def _mix_pass(work, rng, rounds, v):
    """One analysis-mix pass: `rounds` rounds of seven interleaved commands,
    with parameters drawn afresh for pass variant v."""
    cfgs = [sample_config(work / f"sample_{v}_{i}.cfg", rng) for i in range(rounds)]
    tables = [intensity_table(work / f"table_{v}_{i}.csv", rng) for i in range(rounds)]
    out = work / "out"

    # Ramsey (T2*, detuning) pairs: one per equal slice of each range, so
    # every pass covers both ranges, the a/2 defect region included. Fit
    # cost swings 2x with the pairs and, through the least-squares
    # iteration count, up to 100x with the noise draw (7 ms to 2.4 s per
    # fit, slowest above a/2), so the Ramsey signals -- pairs and noise --
    # depend on the pass variant only, and every run meets the same fits
    # and the same known-defect failures. The seed draws every other input.
    design = _rng(v, "ramsey-design")

    def strata(lo, hi):
        return lo + (hi - lo) * (design.permutation(rounds) + design.uniform(size=rounds)) / rounds

    t2s, detunings = strata(*RAMSEY_T2_US), strata(*RAMSEY_DETUNING_MHZ)
    synth_seeds = design.integers(1 << 31, size=rounds)
    commands = []
    for i in range(rounds):
        j = (i + 1) % rounds
        protocol = "sq" if i % 2 == 0 else "dq"
        t2, detuning = t2s[i], detunings[i]
        p = 2.0 if i % 4 == 3 else 1.0
        tag = f"{v}_{i}"
        signal = str(out / f"ramsey_{tag}.csv")
        (measured, minus, zero), psi = spectra(work, rng, f"spectrum_{tag}")
        commands += [
            _cmd(f"ramsey-synth/{tag}", "ramsey-synth",
                 ["ramsey", "synth", "--t2", _fmt(t2), "--p", _fmt(p),
                  "--detuning", _fmt(detuning), "--amplitude", _fmt(RAMSEY_AMPLITUDE),
                  "--noise-sigma", _fmt(RAMSEY_NOISE), "--seed", str(synth_seeds[i]),
                  "--out", signal],
                 signal, rows=len(np.arange(0.06, 3.0 * t2 + 0.03, 0.06))),
            _cmd(f"ramsey-fit/{tag}", "ramsey-fit",
                 ["ramsey", "fit", signal, "--out", str(out / f"fit_{tag}.json")],
                 str(out / f"fit_{tag}.json"), t2=t2, p=p, detuning=detuning),
            _cmd(f"sweep/{tag}", "sweep",
                 ["sensitivity", "sweep", "--sample", cfgs[i], "--table", tables[i],
                  "--protocol", protocol, "--grid", SWEEP_GRID,
                  "--out", str(out / f"sweep_{tag}.csv")],
                 str(out / f"sweep_{tag}.csv"), rows=int(SWEEP_GRID.rsplit(":", 1)[1])),
            _cmd(f"compare/{tag}", "compare",
                 ["sensitivity", "compare", "--sample-a", cfgs[i], "--table-a", tables[i],
                  "--sample-b", cfgs[j], "--table-b", tables[j], "--protocol", protocol,
                  "--out", str(out / f"compare_{tag}.csv")],
                 str(out / f"compare_{tag}.csv"), rows=25),
            _cmd(f"optimal-n/{tag}", "optimal-n",
                 ["sensitivity", "optimal-n", "--to-grid", "0.1:100:log:12",
                  "--config", cfgs[i], "--out", str(out / f"optimal_n_{tag}.csv")],
                 str(out / f"optimal_n_{tag}.csv"), rows=12),
            _cmd(f"dephasing/{tag}", "dephasing",
                 ["dephasing", "--config", cfgs[i],
                  "--strain-fwhm-khz", _fmt(rng.uniform(5.0, 40.0)),
                  "--out", str(out / f"dephasing_{tag}.json")],
                 str(out / f"dephasing_{tag}.json")),
            _cmd(f"charge/{tag}", "charge",
                 ["charge", "decompose", "--measured", measured, "--basis-minus", minus,
                  "--basis-zero", zero, "--intensity", _fmt(rng.uniform(0.01, 0.3)),
                  "--out", str(out / f"charge_{tag}.json")],
                 str(out / f"charge_{tag}.json"), psi=psi),
        ]
    return commands


def plan_analysis_mix(work, seed, small):
    rounds = SMALL["mix_rounds"] if small else MIX_ROUNDS
    rng = _rng(seed, "mix")
    variants = [_mix_pass(work, rng, rounds, v) for v in range(MIX_VARIANTS)]
    cfg, table = str(work / "sample_0_0.cfg"), str(work / "table_0_0.csv")
    spectrum = str(work / "spectrum_0_0")
    warm = str(work / "out" / "warm")
    warmup = [
        ["ramsey", "synth", "--t2", "10", "--detuning", "0.4", "--out", warm + "_r.csv"],
        ["ramsey", "fit", warm + "_r.csv", "--out", warm + "_f.json"],
        ["sensitivity", "sweep", "--sample", cfg, "--table", table,
         "--grid", "0.01:1:log:2", "--out", warm + "_s.csv"],
        ["sensitivity", "compare", "--sample-a", cfg, "--table-a", table,
         "--sample-b", cfg, "--table-b", table, "--grid", "0.01:1:log:2",
         "--out", warm + "_c.csv"],
        ["sensitivity", "optimal-n", "--to-grid", "1:10:log:2", "--out", warm + "_n.csv"],
        ["dephasing", "--config", cfg, "--out", warm + "_d.json"],
        ["charge", "decompose", "--measured", spectrum + "_measured.csv",
         "--basis-minus", spectrum + "_minus.csv", "--basis-zero", spectrum + "_zero.csv",
         "--out", warm + "_q.json"],
    ]
    return {"variants": variants, "warmup": warmup}


PLANS = {
    "ti-band": plan_ti_band,
    "trace-export": plan_trace_export,
    "strain-analyze": plan_strain_analyze,
    "analysis-mix": plan_analysis_mix,
}


def make_plan(workload: str, seed: int, small: bool, work: Path) -> dict:
    (work / "out").mkdir(parents=True, exist_ok=True)
    plan = PLANS[workload](work, seed, small)
    plan.update(workload=workload, seed=seed, small=small,
                seconds_per_pass=SECONDS_PER_PASS[workload])
    return plan
