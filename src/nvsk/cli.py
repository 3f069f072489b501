"""Command-line front end: `nvsk <module> <verb>`.

Each command computes its result and returns it with the configuration it
resolved; main() writes that result as plot-ready CSV/JSON plus a manifest
sidecar. Figure rendering is left to the caller's plotting stack. Exit
codes: 0 success, 1 input validation error, 2 computation failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys

import numpy as np

from . import __version__, charge, dataio, photophysics, ramsey, strainmap
from .config import ResolvedConfig, default_config, parse_config
from .core import MAX_TRACE_SAMPLES, capped_count, finite, positive
from .dephasing import dq_t2star, spin_bath_budget, strain_rate_from_fwhm
from .errors import NvskError, ValidationError
from .sensitivity import optimal_nitrogen, volume_normalized_sensitivity


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are validation errors (exit 1)
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _log_grid(start: float, stop: float, count: int) -> np.ndarray:
    """count log-spaced points whose first and last are start and stop
    exactly (logspace alone can miss either by an ulp)."""
    grid = np.logspace(math.log10(start), math.log10(stop), count)
    grid[0], grid[-1] = start, stop
    return grid


def parse_grid(spec: str, default_count: int = 25) -> np.ndarray:
    """Grid syntax: start:stop:log[:count] or start:stop:lin[:count]."""
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ValidationError(
            f"grid must be start:stop:log|lin[:count], got {spec!r}"
        )
    try:
        start, stop = float(parts[0]), float(parts[1])
    except ValueError:
        raise ValidationError(f"bad grid endpoints in {spec!r}") from None
    start, stop = finite("grid start", start), finite("grid stop", stop)
    scale = parts[2]
    count = default_count
    if len(parts) == 4:
        try:
            count = int(parts[3])
        except ValueError:
            raise ValidationError(f"bad grid count in {spec!r}") from None
    if count < 2:
        raise ValidationError(f"grid needs >= 2 points, got {count}")
    capped_count("grid", count, MAX_TRACE_SAMPLES, "points")
    if scale == "log":
        if start <= 0 or stop <= start:
            raise ValidationError(f"log grid needs 0 < start < stop, got {spec!r}")
        return _log_grid(start, stop, count)
    if scale == "lin":
        if stop <= start:
            raise ValidationError(f"grid needs start < stop, got {spec!r}")
        return np.linspace(start, stop, count)
    raise ValidationError(f"grid scale must be 'log' or 'lin', got {scale!r}")


def parenthesis_format(value: float, sigma: float, unit: str = "") -> str:
    """Compact uncertainty notation, e.g. 17.7(4)."""
    if sigma <= 0 or not math.isfinite(sigma):
        return f"{value:g}{unit}"
    exponent = math.floor(math.log10(sigma))
    digit = round(sigma / 10**exponent)
    if digit == 10:
        digit = 1
        exponent += 1
    decimals = max(0, -exponent)
    return f"{value:.{decimals}f}({digit}){unit}"


def _load_config(path) -> ResolvedConfig:
    return parse_config(path) if path else default_config()


def _write(args, result, config: dict) -> None:
    """Write a command's result to --out with its manifest sidecar: a list
    of (header, values) columns as CSV, a StrainMap as a CSV grid with its
    JSON sidecar, a dict as JSON. A dict without --out is printed to stdout
    instead, with no manifest.

    The manifest records the argv main() parsed, the resolved config, the
    --seed of commands that take one, and the hashes of the input files
    named by the command's `inputs` arguments.
    """
    if isinstance(result, dict) and not args.out:
        print(dataio.format_json(result))
        return
    manifest = dataio.RunManifest(
        command=list(args.argv), config=config, seed=getattr(args, "seed", None)
    )
    for label in args.inputs:
        if getattr(args, label, None):
            manifest.add_input(label, getattr(args, label))
    if isinstance(result, dict):
        dataio.emit_json(result, args.out)
    elif isinstance(result, strainmap.StrainMap):
        dataio.save_strain_map(result, args.out)
    else:
        dataio.emit_csv(result, args.out)
    dataio.write_manifest(args.out, manifest)


# --- dephasing ---


def cmd_dephasing(args):
    cfg = _load_config(args.config)
    sample = cfg.sample()
    budget = spin_bath_budget(sample, cfg.bath_coefficients())
    strain_rate = 0.0
    if args.strain_fwhm_khz is not None:
        strain_rate = strain_rate_from_fwhm(args.strain_fwhm_khz)
    full = dataclasses.replace(
        budget, rate_strain=strain_rate, rate_bias=cfg.bias_rate_per_us
    )
    result = {"units": {"rates": "1/us", "t2": "us"}}
    result.update(full.as_dict())
    result["t2_star_sq_us"] = full.t2_star_total
    result["t2_star_dq_us"] = dq_t2star(full)
    return result, cfg.as_dict()


# --- sensitivity ---


def _sweep_rows(sample, table, grid, protocol, cfg):
    rows = []
    for intensity in grid:
        rows.append(
            volume_normalized_sensitivity(
                sample,
                table,
                intensity,
                protocol,
                constants=cfg.constants(),
                coeffs=cfg.bath_coefficients(),
                photon_model=cfg.photon_model(),
                readout_window_us=cfg.readout_window_us,
                bias_rate_per_us=cfg.bias_rate_per_us,
            )
        )
    return rows


def cmd_sensitivity_sweep(args):
    cfg = _load_config(args.sample)
    sample = cfg.sample()
    table = dataio.ingest_intensity_table(args.table)
    if args.grid:
        grid = parse_grid(args.grid)
    else:
        grid = _log_grid(*table.intensity_range, 25)
    rows = _sweep_rows(sample, table, grid, args.protocol, cfg)
    columns = [
        ("intensity_mw_um2", [r.intensity for r in rows]),
        ("tau_opt_us", [r.tau for r in rows]),
        ("eta_g_sqrt_us_cm3", [r.eta for r in rows]),
    ]
    return columns, cfg.as_dict()


def cmd_sensitivity_optimal_n(args):
    cfg = _load_config(args.config)
    grid = parse_grid(args.to_grid)
    n_opt = [
        optimal_nitrogen(t_o, cfg.metric_config()).concentration for t_o in grid
    ]
    return [("t_overhead_us", grid), ("n_opt_ppm", n_opt)], cfg.as_dict()


def cmd_sensitivity_compare(args):
    cfg_a = _load_config(args.sample_a)
    cfg_b = _load_config(args.sample_b)
    table_a = dataio.ingest_intensity_table(args.table_a)
    table_b = dataio.ingest_intensity_table(args.table_b)
    if args.grid:
        grid = parse_grid(args.grid)
    else:
        lo = max(table_a.intensity_range[0], table_b.intensity_range[0])
        hi = min(table_a.intensity_range[1], table_b.intensity_range[1])
        if not hi > lo:
            raise ValidationError("tables share no overlapping intensity range")
        grid = _log_grid(lo, hi, 25)
    rows_a = _sweep_rows(cfg_a.sample(), table_a, grid, args.protocol, cfg_a)
    rows_b = _sweep_rows(cfg_b.sample(), table_b, grid, args.protocol, cfg_b)
    ratios = [a.eta / b.eta for a, b in zip(rows_a, rows_b)]
    columns = [("intensity_mw_um2", grid), ("eta_ratio_a_over_b", ratios)]
    return columns, {"a": cfg_a.as_dict(), "b": cfg_b.as_dict()}


# --- photophysics ---


def cmd_photophysics_simulate(args):
    cfg = _load_config(args.config)
    params = cfg.five_level_params()
    s = photophysics.saturation_parameter(args.intensity, args.isat)
    dt = photophysics.max_stable_dt(params, s) if args.dt is None else args.dt
    t_end = (
        photophysics.default_trace_window(params, s) if args.t_end is None else args.t_end
    )
    trajectory = photophysics.evolve(
        params, s, photophysics.GROUND_MS0, t_end=t_end, dt=dt
    )
    trace = photophysics.lowpass(photophysics.pl_rate(trajectory))
    curve = photophysics.contrast_trace(
        params, args.intensity, args.isat, t_end=t_end, dt=dt
    )
    columns = [
        ("t_us", trace.times),
        ("pl_rate_per_us", trace.values),
        ("contrast", curve.contrast),
    ]
    return columns, cfg.as_dict()


def cmd_photophysics_ti_band(args):
    cfg = _load_config(args.config)
    params = cfg.five_level_params()
    grid = parse_grid(args.grid, default_count=40)
    band = photophysics.ti_band(params, grid)
    columns = [
        ("intensity_mw_um2", band.intensities),
        ("t_i_lower_us", band.lower),
        ("t_i_upper_us", band.upper),
    ]
    return columns, cfg.as_dict()


# --- ramsey ---


def cmd_ramsey_synth(args):
    cfg = _load_config(args.config)
    model = ramsey.RamseyModel(
        t2_star=args.t2,
        p=args.p,
        detuning=args.detuning,
        hyperfine_splitting=args.splitting,
        n_hyperfine=args.lines,
        amplitude=args.amplitude,
        baseline=args.baseline,
    )
    dtau = positive("--dtau", args.dtau, "us")
    tau_end = positive("--tau-end", 3.0 * args.t2 if args.tau_end is None else args.tau_end, "us")
    capped_count(
        "grid", tau_end / dtau + 1, MAX_TRACE_SAMPLES, "points",
        "pass a larger --dtau or a shorter --tau-end",
    )
    tau = np.arange(dtau, tau_end + 0.5 * dtau, dtau)
    signal = ramsey.synthesize(model, tau, noise_sigma=args.noise_sigma, seed=args.seed)
    return [("tau_us", tau), ("contrast", signal)], cfg.as_dict()


def cmd_ramsey_fit(args):
    cfg = _load_config(args.config)
    _, columns = dataio.read_columns(args.signal, ("tau_us", "contrast"))
    result = ramsey.fit(columns["tau_us"], columns["contrast"], n_hyperfine=args.lines)
    payload = result.as_dict()
    payload["t2_star_formatted"] = parenthesis_format(
        result.t2_star, result.t2_star_sigma, " us"
    )
    return payload, cfg.as_dict()


# --- strain ---


def cmd_strain_analyze(args):
    cfg = _load_config(args.config)
    strain_map = dataio.load_strain_map(args.map)
    sizes = parse_grid(args.sizes, default_count=12)
    if args.other_rate_per_us is not None:
        other_rate = args.other_rate_per_us
    elif args.config:
        other_rate = (
            spin_bath_budget(cfg.sample(), cfg.bath_coefficients()).bath_rate
            + cfg.bias_rate_per_us
        )
    else:
        other_rate = 0.0
    full_fit = strainmap.histogram_fwhm(
        strainmap.mean_subtracted(strain_map.valid_values), args.bin_width_khz
    )
    stats = strainmap.partition_sweep(
        strain_map,
        sizes,
        tile_offset=(args.tile_offset, args.tile_offset),
        bin_width_khz=args.bin_width_khz,
    )
    scaling = strainmap.scaling_metric(stats, other_rate)
    result = {
        "full_map": full_fit.as_dict(),
        "other_rate_per_us": other_rate,
        "partitions": [s.as_dict() for s in stats],
        "scaling": scaling.as_dict(),
    }
    return result, cfg.as_dict()


def cmd_strain_synth(args):
    try:
        shape = tuple(int(x) for x in args.shape.split("x"))
    except ValueError:
        shape = ()
    if len(shape) != 2 or min(shape) <= 0:
        raise ValidationError(f"--shape must be ROWSxCOLS, got {args.shape!r}")
    config = _load_config(args.config).as_dict()
    if args.model == "stationary":
        strain_map = strainmap.synth_stationary(
            shape, args.pitch_um, args.scale_khz, seed=args.seed
        )
    else:
        strain_map = strainmap.synth_two_region(
            shape,
            args.pitch_um,
            args.scale_khz,
            hot_scale_khz=args.hot_scale_khz,
            seed=args.seed,
        )
    return strain_map, config


# --- charge ---


def cmd_charge_decompose(args):
    config = _load_config(args.config).as_dict()
    measured = dataio.load_spectrum(args.measured)
    basis_minus = dataio.load_spectrum(args.basis_minus)
    basis_zero = dataio.load_spectrum(args.basis_zero)
    result = charge.decompose_to_psi(
        measured,
        basis_minus,
        basis_zero,
        brightness_ratio=args.brightness_ratio,
        intensity_mw_um2=args.intensity,
    )
    return result.as_dict(), config


# --- wiring ---


@functools.lru_cache(maxsize=None)
def build_parser() -> _Parser:
    """The `nvsk` argument parser, built once per process: parsing leaves
    no state in it, so main() parses every argv on the same parser."""
    parser = _Parser(prog="nvsk", description=__doc__)
    parser.add_argument("--version", action="version", version=f"nvsk {__version__}")
    parser.set_defaults(inputs=("config",))  # arguments naming hashed input files
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dephasing", help="T2* budget for a sample config")
    p.add_argument("--config", required=True)
    p.add_argument("--strain-fwhm-khz", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_dephasing)

    sens = sub.add_parser("sensitivity", help="sensitivity sweeps and comparisons")
    sens_sub = sens.add_subparsers(dest="verb", required=True)

    p = sens_sub.add_parser("sweep")
    p.add_argument("--sample", "--config", dest="sample", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--protocol", choices=("sq", "dq"), default="sq")
    p.add_argument("--grid", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sensitivity_sweep, inputs=("sample", "table"))

    p = sens_sub.add_parser("optimal-n")
    p.add_argument("--to-grid", required=True, help="overhead grid, e.g. 0.1:100:log")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sensitivity_optimal_n)

    p = sens_sub.add_parser("compare")
    p.add_argument("--sample-a", required=True)
    p.add_argument("--table-a", required=True)
    p.add_argument("--sample-b", required=True)
    p.add_argument("--table-b", required=True)
    p.add_argument("--protocol", choices=("sq", "dq"), default="sq")
    p.add_argument("--grid", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(
        func=cmd_sensitivity_compare, inputs=("sample_a", "table_a", "sample_b", "table_b")
    )

    photo = sub.add_parser("photophysics", help="five-level model simulations")
    photo_sub = photo.add_subparsers(dest="verb", required=True)

    p = photo_sub.add_parser("simulate")
    p.add_argument("--intensity", type=float, required=True, help="mW/um^2")
    p.add_argument("--isat", type=float, required=True, help="mW/um^2")
    p.add_argument("--t-end", type=float, default=None, help="us")
    p.add_argument("--dt", type=float, default=None, help="us")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_photophysics_simulate)

    p = photo_sub.add_parser("ti-band")
    p.add_argument("--grid", required=True, help="e.g. 1e-3:1e1:log:40")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_photophysics_ti_band)

    rams = sub.add_parser("ramsey", help="free-induction synthesis and fitting")
    rams_sub = rams.add_subparsers(dest="verb", required=True)

    p = rams_sub.add_parser("synth")
    p.add_argument("--t2", type=float, required=True, help="us")
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--detuning", type=float, required=True, help="MHz")
    p.add_argument("--splitting", type=float, default=ramsey.DEFAULT_HYPERFINE_MHZ)
    p.add_argument("--lines", type=int, default=3)
    p.add_argument("--amplitude", type=float, default=0.02)
    p.add_argument("--baseline", type=float, default=0.0)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--tau-end", type=float, default=None, help="us; default 3*T2")
    p.add_argument("--dtau", type=float, default=0.06, help="us")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ramsey_synth)

    p = rams_sub.add_parser("fit")
    p.add_argument("signal", help="CSV with tau_us, contrast")
    p.add_argument("--lines", type=int, default=3)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ramsey_fit, inputs=("config", "signal"))

    strain = sub.add_parser("strain", help="strain-map statistics")
    strain_sub = strain.add_subparsers(dest="verb", required=True)

    p = strain_sub.add_parser("analyze")
    p.add_argument("map", help="CSV grid with JSON sidecar")
    p.add_argument("--sizes", required=True, help="e.g. 30:3000:log:12 (um)")
    p.add_argument("--tile-offset", type=int, default=0, help="pixels")
    p.add_argument("--bin-width-khz", type=float, default=None)
    p.add_argument("--other-rate-per-us", type=float, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_strain_analyze, inputs=("config", "map"))

    p = strain_sub.add_parser("synth")
    p.add_argument("--model", choices=("stationary", "two-region"), required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--shape", default="512x512")
    p.add_argument("--pitch-um", type=float, default=6.0)
    p.add_argument("--scale-khz", type=float, default=10.0)
    p.add_argument("--hot-scale-khz", type=float, default=60.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_strain_synth)

    chg = sub.add_parser("charge", help="charge-state decomposition")
    chg_sub = chg.add_subparsers(dest="verb", required=True)

    p = chg_sub.add_parser("decompose")
    p.add_argument("--measured", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--basis-minus", required=True)
    p.add_argument("--basis-zero", required=True)
    p.add_argument("--brightness-ratio", type=float, default=charge.DEFAULT_BRIGHTNESS_RATIO)
    p.add_argument("--intensity", type=float, default=None, help="mW/um^2")
    p.add_argument("--out", default=None)
    p.set_defaults(
        func=cmd_charge_decompose, inputs=("config", "measured", "basis_minus", "basis_zero")
    )

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.argv = argv
        _write(args, *args.func(args))
        return 0
    except ValidationError as exc:
        print(f"nvsk: {exc}", file=sys.stderr)
        return 1
    except NvskError as exc:
        print(f"nvsk: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
