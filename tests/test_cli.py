import contextlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import nvsk
from nvsk import dataio, strainmap
from nvsk.cli import build_parser, main, parenthesis_format, parse_grid
from nvsk.core import MAX_TRACE_SAMPLES
from nvsk.errors import ValidationError
from synthdata import HIGH_N_ROWS, LOW_N_ROWS, table_rows_to_csv_text

SAMPLE_CFG = """\
[sample]
ns0_as_grown_ppm = 0.8
c13_ppm = 108
nv_total_ppm = 0.39
psi = 0.2
"""

HIGH_CFG = """\
[sample]
ns0_as_grown_ppm = 20.8
c13_ppm = 108
nv_total_ppm = 3.8
psi = 0.78
"""


@pytest.fixture
def sample_cfg(tmp_path):
    path = tmp_path / "sample.cfg"
    path.write_text(SAMPLE_CFG)
    return str(path)


def test_parse_grid():
    g = parse_grid("1e-3:1e1:log:5")
    assert len(g) == 5
    assert g[0] == pytest.approx(1e-3)
    assert g[-1] == pytest.approx(1e1)
    lin = parse_grid("0:10:lin:11")
    assert np.allclose(lin, np.arange(11.0))
    assert len(parse_grid("0.1:100:log")) == 25  # default count
    with pytest.raises(ValidationError):
        parse_grid("5:1:log:4")
    with pytest.raises(ValidationError):
        parse_grid("1:10:cubic:4")
    # logspace alone misses 284 of these 989 endpoints by an ulp
    ends = [round(0.01 * k, 2) for k in range(11, 1000)]
    for start, stop in zip(ends, ends[1:]):
        g = parse_grid(f"{start}:{stop}:log:5")
        assert (g[0], g[-1]) == (start, stop)


# a table whose first intensity logspace does not reproduce
EDGE_ROWS = [(0.12, 0.014, 0.16, 2.6e2), (0.2, 0.012, 0.14, 1.0e2), (0.3, 0.011, 0.12, 5.0e1)]


@pytest.mark.parametrize("grid", [[], ["--grid", "0.12:0.3:log:5"]])
def test_log_grid_reaches_the_table_endpoints(tmp_path, sample_cfg, grid):
    table = tmp_path / "edge.csv"
    table.write_text(table_rows_to_csv_text(EDGE_ROWS))
    runs = {
        "curve.csv": ["sensitivity", "sweep", "--sample", sample_cfg, "--table", str(table)],
        "ratio.csv": ["sensitivity", "compare", "--sample-a", sample_cfg,
                      "--table-a", str(table), "--sample-b", sample_cfg,
                      "--table-b", str(table)],
    }
    for name, argv in runs.items():
        out = tmp_path / name
        assert main(argv + grid + ["--out", str(out)]) == 0
        rows = out.read_text().strip().split("\n")[1:]
        assert len(rows) == (5 if grid else 25)
        assert (float(rows[0].split(",")[0]), float(rows[-1].split(",")[0])) == (0.12, 0.3)


def test_parenthesis_format():
    assert parenthesis_format(17.73, 0.42) == "17.7(4)"
    assert parenthesis_format(8.6, 0.5, " us") == "8.6(5) us"
    assert parenthesis_format(103.0, 12.0) == "103(1)"


def test_dephasing_command(sample_cfg, tmp_path, capsys):
    assert main(["dephasing", "--config", sample_cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 19.0 <= payload["t2_star_total_us"] <= 21.0
    assert payload["t2_star_dq_us"] == pytest.approx(
        payload["t2_star_total_us"] / 2.0, rel=1e-6
    )

    out = tmp_path / "budget.json"
    assert main(["dephasing", "--config", sample_cfg, "--out", str(out)]) == 0
    saved = json.loads(out.read_text())
    assert saved["t2_star_total_us"] == pytest.approx(
        payload["t2_star_total_us"], rel=1e-8
    )
    manifest = json.loads((tmp_path / "budget.json.manifest.json").read_text())
    assert manifest["config"]["sample"]["psi"] == 0.2


def test_dephasing_with_strain(sample_cfg, capsys):
    assert main(["dephasing", "--config", sample_cfg, "--strain-fwhm-khz", "31"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["t2_strain_us"] == pytest.approx(10.27, abs=0.01)
    assert payload["t2_star_total_us"] < 19.0


def test_ramsey_synth_fit_roundtrip(tmp_path, capsys):
    sig = tmp_path / "sig.csv"
    assert (
        main(
            [
                "ramsey", "synth", "--t2", "17.7", "--detuning", "0.4",
                "--noise-sigma", "0.0004", "--seed", "1", "--out", str(sig),
            ]
        )
        == 0
    )
    fit_out = tmp_path / "fit.json"
    assert main(["ramsey", "fit", str(sig), "--out", str(fit_out)]) == 0
    payload = json.loads(fit_out.read_text())
    assert payload["t2_star_us"] == pytest.approx(17.7, rel=0.05)
    assert "(" in payload["t2_star_formatted"]
    manifest = json.loads((tmp_path / "fit.json.manifest.json").read_text())
    assert "signal" in manifest["inputs"]


def test_ramsey_synth_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["ramsey", "synth", "--t2", "8.6", "--detuning", "0.4",
            "--noise-sigma", "0.0004", "--seed", "9"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_strain_synth_analyze(tmp_path, capsys):
    map_path = tmp_path / "map.csv"
    assert (
        main(
            [
                "strain", "synth", "--model", "stationary", "--shape", "256x256",
                "--pitch-um", "6", "--scale-khz", "10", "--seed", "5",
                "--out", str(map_path),
            ]
        )
        == 0
    )
    assert (tmp_path / "map.json").is_file()
    out = tmp_path / "stats.json"
    assert (
        main(
            [
                "strain", "analyze", str(map_path), "--sizes", "192:1536:log:4",
                "--other-rate-per-us", "0.05", "--out", str(out),
            ]
        )
        == 0
    )
    payload = json.loads(out.read_text())
    assert payload["scaling"]["exponent"] == pytest.approx(-1.0, abs=0.1)
    assert payload["full_map"]["fwhm_khz"] == pytest.approx(20.0, rel=0.1)
    assert len(payload["partitions"]) == 4


def test_strain_analyze_uses_config_bath_rate(sample_cfg, tmp_path):
    map_path = tmp_path / "map.csv"
    main(["strain", "synth", "--model", "two-region", "--shape", "256x256",
          "--pitch-um", "6", "--seed", "2", "--out", str(map_path)])
    out = tmp_path / "stats.json"
    assert (
        main(
            ["strain", "analyze", str(map_path), "--sizes", "768:1536:log:3",
             "--config", sample_cfg, "--out", str(out)]
        )
        == 0
    )
    payload = json.loads(out.read_text())
    assert payload["other_rate_per_us"] == pytest.approx(1.0 / 20.34, rel=0.01)


def charge_argv(tmp_path, basis_minus_wavelengths=None):
    """`charge decompose` arguments for spectra mixed 1:1 from two bases;
    the NV- basis file may be written on other wavelengths."""
    wl = np.linspace(560.0, 850.0, 300)
    bm = 0.6 * np.exp(-0.5 * ((wl - 637) / 6) ** 2) + np.exp(-0.5 * ((wl - 700) / 45) ** 2)
    b0 = 0.5 * np.exp(-0.5 * ((wl - 575) / 5) ** 2) + np.exp(-0.5 * ((wl - 620) / 35) ** 2)
    y = 0.5 * bm + 0.5 * b0

    def save(name, counts, wavelengths=wl):
        path = tmp_path / name
        lines = ["wavelength_nm,counts"] + [f"{w},{c}" for w, c in zip(wavelengths, counts)]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    if basis_minus_wavelengths is None:
        basis_minus_wavelengths = wl
    return [
        "charge", "decompose",
        "--measured", save("m.csv", y),
        "--basis-minus", save("bm.csv", bm, basis_minus_wavelengths),
        "--basis-zero", save("b0.csv", b0),
        "--intensity", "0.05",
    ]


def test_charge_decompose_command(tmp_path, capsys):
    out = tmp_path / "psi.json"
    assert main(charge_argv(tmp_path) + ["--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["psi"] == pytest.approx(1.0 / 3.5, rel=1e-6)
    assert payload["outside_validated_regime"] is False


def test_sensitivity_optimal_n_curve(tmp_path):
    out = tmp_path / "fig1b.csv"
    assert (
        main(["sensitivity", "optimal-n", "--to-grid", "1:1000:log:7", "--out", str(out)])
        == 0
    )
    rows = out.read_text().strip().split("\n")
    assert rows[0] == "t_overhead_us,n_opt_ppm"
    values = [float(r.split(",")[1]) for r in rows[1:]]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(values, values[1:]))


def test_sensitivity_sweep_and_compare(tmp_path, sample_cfg):
    high_cfg = tmp_path / "high.cfg"
    high_cfg.write_text(HIGH_CFG)
    low_table = tmp_path / "low.csv"
    low_table.write_text(table_rows_to_csv_text(LOW_N_ROWS))
    high_table = tmp_path / "high.csv"
    high_table.write_text(table_rows_to_csv_text(HIGH_N_ROWS))

    sweep_out = tmp_path / "curve.csv"
    assert (
        main(
            ["sensitivity", "sweep", "--sample", sample_cfg, "--table", str(low_table),
             "--protocol", "sq", "--grid", "1e-3:1e1:log:7", "--out", str(sweep_out)]
        )
        == 0
    )
    lines = sweep_out.read_text().strip().split("\n")
    assert lines[0] == "intensity_mw_um2,tau_opt_us,eta_g_sqrt_us_cm3"
    assert len(lines) == 8

    cmp_out = tmp_path / "ratio.csv"
    assert (
        main(
            ["sensitivity", "compare",
             "--sample-a", sample_cfg, "--table-a", str(low_table),
             "--sample-b", str(high_cfg), "--table-b", str(high_table),
             "--grid", "1e-3:1e1:log:9", "--out", str(cmp_out)]
        )
        == 0
    )
    rows = cmp_out.read_text().strip().split("\n")[1:]
    ratios = [float(r.split(",")[1]) for r in rows]
    assert ratios[0] < 1.0 < ratios[-1]


def test_compare_uses_each_sample_config(tmp_path, sample_cfg):
    fast_bath = tmp_path / "fast_bath.cfg"
    fast_bath.write_text(SAMPLE_CFG + "\n[bath]\na_ns0_per_us_ppm = 0.5\n")
    table = tmp_path / "low.csv"
    table.write_text(table_rows_to_csv_text(LOW_N_ROWS))
    grid = ["--grid", "1e-3:1e1:log:5"]

    def column(path, index):
        rows = path.read_text().strip().split("\n")[1:]
        return np.array([float(r.split(",")[index]) for r in rows])

    etas = []
    for cfg in (str(fast_bath), sample_cfg):
        out = tmp_path / "sweep.csv"
        argv = ["sensitivity", "sweep", "--sample", cfg, "--table", str(table)]
        assert main(argv + grid + ["--out", str(out)]) == 0
        etas.append(column(out, 2))
    out = tmp_path / "ratio.csv"
    argv = ["sensitivity", "compare", "--sample-a", str(fast_bath), "--table-a",
            str(table), "--sample-b", sample_cfg, "--table-b", str(table)]
    assert main(argv + grid + ["--out", str(out)]) == 0
    assert column(out, 1) == pytest.approx(etas[0] / etas[1], rel=1e-7)


def test_manifest_records_the_argv_given_to_main(tmp_path, sample_cfg):
    table = tmp_path / "low.csv"
    table.write_text(table_rows_to_csv_text(LOW_N_ROWS))
    runs = {
        "budget.json": ["dephasing", "--config", sample_cfg],
        "curve.csv": ["sensitivity", "sweep", "--sample", sample_cfg, "--table",
                      str(table), "--protocol", "sq", "--grid", "1e-3:1e1:log:3"],
        "ratio.csv": ["sensitivity", "compare", "--sample-a", sample_cfg,
                      "--table-a", str(table), "--sample-b", sample_cfg,
                      "--table-b", str(table), "--grid", "1e-3:1e1:log:3"],
    }
    for name, argv in runs.items():
        argv = argv + ["--out", str(tmp_path / name)]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
        assert manifest["command"] == argv
    assert set(manifest["inputs"]) == {"sample_a", "table_a", "sample_b", "table_b"}


def _regeneration_inputs(tmp_path):
    """Every input file the commands below read, in tmp_path; the strain map
    and Ramsey signal come from the synth commands at fixed seeds."""
    (tmp_path / "s.cfg").write_text(SAMPLE_CFG)
    (tmp_path / "low.csv").write_text(table_rows_to_csv_text(LOW_N_ROWS))
    charge_argv(tmp_path)
    assert main(["strain", "synth", "--model", "stationary", "--shape", "128x128",
                 "--seed", "3", "--out", str(tmp_path / "in_map.csv")]) == 0
    assert main(["ramsey", "synth", "--t2", "10", "--detuning", "1.3", "--seed", "1",
                 "--noise-sigma", "4e-4", "--out", str(tmp_path / "in_signal.csv")]) == 0


@pytest.mark.parametrize(
    "argv, artifacts, inputs",
    [
        (["dephasing", "--config", "s.cfg", "--out", "budget.json"], ["budget.json"],
         {"config"}),
        (["sensitivity", "sweep", "--sample", "s.cfg", "--table", "low.csv",
          "--grid", "1e-3:1e1:log:3", "--out", "curve.csv"], ["curve.csv"],
         {"sample", "table"}),
        (["sensitivity", "optimal-n", "--to-grid", "0.1:100:log:4", "--config", "s.cfg",
          "--out", "n.csv"], ["n.csv"], {"config"}),
        (["sensitivity", "compare", "--sample-a", "s.cfg", "--table-a", "low.csv",
          "--sample-b", "s.cfg", "--table-b", "low.csv", "--grid", "1e-3:1e1:log:3",
          "--out", "ratio.csv"], ["ratio.csv"],
         {"sample_a", "table_a", "sample_b", "table_b"}),
        (["photophysics", "simulate", "--intensity", "10", "--isat", "3", "--t-end", "5",
          "--config", "s.cfg", "--out", "trace.csv"], ["trace.csv"], {"config"}),
        (["photophysics", "ti-band", "--grid", "1:10:log:2", "--config", "s.cfg",
          "--out", "band.csv"], ["band.csv"], {"config"}),
        (["ramsey", "synth", "--t2", "8.6", "--detuning", "0.4", "--noise-sigma", "4e-4",
          "--seed", "9", "--out", "signal.csv"], ["signal.csv"], set()),
        (["ramsey", "fit", "in_signal.csv", "--out", "fit.json"], ["fit.json"], {"signal"}),
        (["strain", "synth", "--model", "stationary", "--shape", "64x48", "--seed", "5",
          "--out", "map.csv"], ["map.csv", "map.json"], set()),
        (["strain", "analyze", "in_map.csv", "--sizes", "96:384:log:3", "--config", "s.cfg",
          "--out", "stats.json"], ["stats.json"], {"config", "map"}),
        (["charge", "decompose", "--measured", "m.csv", "--basis-minus", "bm.csv",
          "--basis-zero", "b0.csv", "--out", "psi.json"], ["psi.json"],
         {"measured", "basis_minus", "basis_zero"}),
    ],
    ids=["dephasing", "sensitivity-sweep", "sensitivity-optimal-n", "sensitivity-compare",
         "photophysics-simulate", "photophysics-ti-band", "ramsey-synth", "ramsey-fit",
         "strain-synth", "strain-analyze", "charge-decompose"],
)
def test_manifest_command_regenerates_the_artifact(
    tmp_path, monkeypatch, argv, artifacts, inputs
):
    monkeypatch.chdir(tmp_path)
    _regeneration_inputs(tmp_path)
    assert main(argv) == 0
    written = {name: (tmp_path / name).read_bytes() for name in artifacts}
    sidecar = tmp_path / f"{artifacts[0]}.manifest.json"
    manifest = json.loads(sidecar.read_text())
    assert set(manifest["inputs"]) == inputs
    assert manifest["seed"] == (int(argv[argv.index("--seed") + 1])
                                if "--seed" in argv else None)
    for name in [*artifacts, sidecar.name]:
        (tmp_path / name).unlink()
    assert main(manifest["command"]) == 0
    assert {name: (tmp_path / name).read_bytes() for name in artifacts} == written
    again = json.loads(sidecar.read_text())
    assert again["inputs"] == manifest["inputs"]
    assert (again["command"], again["seed"]) == (manifest["command"], manifest["seed"])


def test_photophysics_simulate(tmp_path):
    out = tmp_path / "trace.csv"
    assert (
        main(
            ["photophysics", "simulate", "--intensity", "1.0", "--isat", "2.0",
             "--out", str(out)]
        )
        == 0
    )
    header, *rows = out.read_text().strip().split("\n")
    assert header == "t_us,pl_rate_per_us,contrast"
    last = rows[-1].split(",")
    assert float(last[1]) > 0.0
    assert float(last[2]) == pytest.approx(1.0, abs=0.01)


def test_photophysics_ti_band_command(tmp_path):
    out = tmp_path / "band.csv"
    assert (
        main(["photophysics", "ti-band", "--grid", "0.1:10:log:4", "--out", str(out)])
        == 0
    )
    header, *rows = out.read_text().strip().split("\n")
    assert header == "intensity_mw_um2,t_i_lower_us,t_i_upper_us"
    for row in rows:
        _, lo, hi = (float(x) for x in row.split(","))
        assert 0 < lo <= hi


def test_strain_bin_widths_fit_or_refuse_without_warnings(tmp_path, capsys):
    # warnings are errors here, so an overflow inside the solver fails the test
    map_path = tmp_path / "map.csv"
    assert main(["strain", "synth", "--model", "stationary", "--shape", "256x256",
                 "--seed", "3", "--out", str(map_path)]) == 0
    outcomes = set()
    for width in 10.0 ** np.arange(-3, 301, 3):
        rc = main(["strain", "analyze", str(map_path), "--sizes", "768:1536:log:3",
                   "--bin-width-khz", repr(float(width)), "--out", str(tmp_path / "s.json")])
        err = capsys.readouterr().err
        if rc:
            assert rc in (1, 2) and err.startswith("nvsk: ") and err.count("\n") == 1
        outcomes.add(rc)
    assert outcomes == {0, 1, 2}


def test_strain_bin_width_below_the_fwhm_bound_fits_a_flat_block(tmp_path, capsys):
    # a flat 64^2 block has a zero interquartile range, so with a 1e-13 kHz
    # width its tiles would start the fit below the 1e-12 kHz FWHM bound;
    # the rest of the map is as narrow, so no histogram reaches the bin cap
    map_path = tmp_path / "map.csv"
    assert main(["strain", "synth", "--model", "stationary", "--shape", "128x128",
                 "--seed", "3", "--scale-khz", "1e-13", "--out", str(map_path)]) == 0
    values = dataio.load_strain_map(map_path).values
    values[:64, :64] = 0.0
    dataio.save_strain_map(strainmap.StrainMap(values=values, pixel_pitch_um=6.0), map_path)
    capsys.readouterr()
    rc = main(["strain", "analyze", str(map_path), "--sizes", "96:384:log:3",
               "--bin-width-khz", "1e-13", "--out", str(tmp_path / "s.json")])
    err = capsys.readouterr().err
    assert rc == 0
    assert "Traceback" not in err and err.count("nvsk:") <= 1
    assert len(json.loads((tmp_path / "s.json").read_text())["partitions"]) == 3


def test_weak_radiative_rate_ti_band(tmp_path):
    cfg = tmp_path / "weak.cfg"
    cfg.write_text("[photophysics]\ngamma_rad_per_us = 0.05\n")
    out = tmp_path / "band.csv"
    argv = ["photophysics", "ti-band", "--grid", "1:10:log:2", "--config", str(cfg)]
    assert main(argv + ["--out", str(out)]) == 0
    assert len(out.read_text().strip().split("\n")) == 3


def test_repeated_main_calls_share_one_parser_without_leaking_state(
    tmp_path, sample_cfg, capsys
):
    assert build_parser() is build_parser()
    assert main(["sensitivity", "sweep"]) == 1
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("nvsk ")
    table = tmp_path / "low.csv"
    table.write_text(table_rows_to_csv_text(LOW_N_ROWS))
    sweep = ["sensitivity", "sweep", "--sample", sample_cfg, "--table", str(table)]
    runs = {
        "grid.csv": (sweep + ["--grid", "1e-3:1e1:log:3"], 3),
        "default.csv": (sweep, 25),  # --grid of the previous call must not stick
    }
    for name, (argv, n_rows) in runs.items():
        argv = argv + ["--out", str(tmp_path / name)]
        assert main(argv) == 0
        assert len((tmp_path / name).read_text().strip().split("\n")) == n_rows + 1
        manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
        assert manifest["command"] == argv


# --- the refusal contract ---


def _usage_lines(argv) -> list:
    """The usage lines argparse prints before it refuses argv; none if argv parses."""
    with contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            build_parser().parse_args(argv)
        except ValidationError:
            return err.getvalue().splitlines()
    return []


def _files_beside_out(argv) -> set:
    return set(Path(argv[argv.index("--out") + 1]).parent.iterdir()) if "--out" in argv else set()


def assert_refused(argv, code, message):
    """Run main(argv) and assert the contract every refusal keeps: exit
    code `code`; a last stderr line "nvsk: " + message, or for a message
    ending in "…", one that starts with "nvsk: " and the rest of it; before
    it, only the usage lines argparse prints for a usage error, and only
    for one; no traceback; nothing on stdout; and no file, output or
    manifest, new beside --out."""
    before = _files_beside_out(argv)
    with (contextlib.redirect_stdout(io.StringIO()) as out,
          contextlib.redirect_stderr(io.StringIO()) as err):
        rc = main(argv)
    *earlier, last = err.getvalue().splitlines() or [""]
    assert (rc, out.getvalue(), "Traceback" in err.getvalue()) == (code, "", False)
    assert earlier == _usage_lines(argv)
    expected = "nvsk: " + message
    assert last.startswith(expected[:-1]) if message.endswith("…") else last == expected, last
    assert _files_beside_out(argv) == before


# --- input files, each built in tmp by its INPUTS placeholder ---


def _write(path, data):
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data)
    return path


def _synth(tmp, name, argv):
    """The file a synth command (argv, a string) writes as --out tmp/name."""
    assert main([*argv.split(), "--out", str(tmp / name)]) == 0
    return tmp / name


def _saved_map(tmp, values, pitch):
    dataio.save_strain_map(strainmap.StrainMap(values=values, pixel_pitch_um=pitch), tmp / "o.csv")
    return tmp / "o.csv"


def _cauchy_map(tmp, clip):
    """A 128^2 map of 1e306 x Cauchy shifts whose finite pixels' mean
    overflows; with clip, the shifts that overflow are +-1e308, not inf."""
    with np.errstate(over="ignore"):
        values = 1e306 * np.random.default_rng(3).standard_cauchy((128, 128))
    return _saved_map(tmp, np.clip(values, -1e308, 1e308) if clip else values, 6.0)


def _far_center_map(tmp):
    """A 4x32 map of 2.2e306 kHz shifts but one of -1.79e308: that one less
    the finite mean overflows, and the 127 left sit 1.4e306 above it."""
    values = np.full((4, 32), 2.2e306)
    values[0, 0] = -1.79e308
    return _saved_map(tmp, values, 1.0)


def _sidecar_map(tmp, grid, sidecar):
    _write(tmp / "grid.json", sidecar)
    return _write(tmp / "grid.csv", grid)


def _spectra(tmp, nan_wavelength):
    """The directory of charge_argv's spectra m.csv, bm.csv and b0.csv;
    with nan_wavelength, one wavelength of bm.csv is nan."""
    wl = np.linspace(560.0, 850.0, 300)
    if nan_wavelength:
        wl[100] = np.nan
    charge_argv(tmp, wl)
    return tmp


def _edit_row(row, column, value):
    def edit(lines):
        cells = lines[row].split(",")
        cells[column] = value
        lines[row] = ",".join(cells)
        return lines

    return edit


# line edits of a noisy Ramsey record, each a function of its lines
SIGNAL_EDITS = {
    "negative-tau": _edit_row(1, 0, "-0.06"),
    "negative-tau-inside": _edit_row(40, 0, "-3"),
    "inf-tau": _edit_row(7, 0, "inf"),
    "nan-contrast": _edit_row(5, 1, "nan"),
    "inf-contrast": _edit_row(5, 1, "inf"),
    "text-contrast": _edit_row(5, 1, "abc"),
    "reversed-rows": lambda lines: lines[:1] + lines[:0:-1],
    "constant-tau": lambda lines: lines[:1] + [lines[1]] * 20,
    "every-row-twice": lambda lines: lines[:1] + [r for r in lines[1:] for _ in (0, 1)],
    "short-row": lambda lines: lines[:5] + ["0.3"] + lines[6:],
    "empty-file": lambda lines: [],
    "no-tau-column": _edit_row(0, 0, "tau"),
    "zero-first-tau": lambda lines: lines[:1] + ["0,0.02"] + lines[1:],
    "repeated-tau": lambda lines: lines[:3] + lines[2:],
    "blank-line": lambda lines: lines[:10] + [""] + lines[10:],
}


def _edited_signal(tmp, edit):
    sig = _synth(tmp, "sig.csv", "ramsey synth --t2 10 --detuning 0.4 --noise-sigma 0.0004 "
                 "--seed 1")
    return _write(sig, "".join(line + "\n" for line in edit(sig.read_text().splitlines())))


_ONES = "1,1,1,1,1,1,1,1\n" * 8
_PITCH_1 = '{"units": "kHz", "pixel_pitch_um": 1.0}'
# A text or bytes input is written to a file named by its placeholder; any
# other is a function of tmp that writes its file there and returns its path.
INPUTS = {
    "cfg": SAMPLE_CFG,
    "psi_cfg": SAMPLE_CFG.replace("psi = 0.2", "psi = 1.3"),
    "tiny_bath_cfg": SAMPLE_CFG + "[bath]\na_ns0_per_us_ppm = 1e-300\na_c13_per_ms_ppm = 0\n"
    "a_nv_par_per_us_ppm = 0\na_nv_nonpar_per_us_ppm = 0\n",
    "overhead_cfg": "[metric]\nt_overhead_us = 5\n",
    "a_ns0_cfg": "[bath]\na_ns0_per_us_ppm = 1e308\n",
    "c13_cfg": "[metric]\nc13_ppm = 1e308\n",
    "isat_cfg": "[photophysics]\ni_sat_lower_mw_um2 = 1e-310\n",
    "huge_gamma_cfg": "[photophysics]\ngamma_rad_per_us = 1e308\n",
    "tiny_gamma_cfg": "[photophysics]\ngamma_rad_per_us = 5e-324\n",
    "bare_key_cfg": "[sample]\npsi\n",
    "latin1_cfg": "[sample]\n# café\n".encode("latin-1"),
    "table": table_rows_to_csv_text(LOW_N_ROWS),
    # 20-30 mW/um^2, above the 1e-3-10 of "table"
    "far_table": table_rows_to_csv_text([(20.0, 0.014, 0.16, 2.6e2), (30.0, 0.012, 0.14, 1e2)]),
    "map": lambda tmp: _synth(tmp, "map.csv", "strain synth --model stationary --shape 128x128 "
                              "--seed 3"),
    "tiny_pitch_map": lambda tmp: _synth(tmp, "p.csv", "strain synth --model stationary "
                                         "--shape 64x64 --pitch-um 1e-310"),
    # 90 % of 1e70 kHz: near the 1e69 kHz median shift, 0.5 kHz bins all have width 0
    "zero_width_map": lambda tmp: _saved_map(
        tmp, np.where(np.random.default_rng(1).random((128, 128)) < 0.9, 1e70, 0.0), 6.0),
    "far_center_map": _far_center_map,
    "cauchy_map": lambda tmp: _cauchy_map(tmp, clip=False),
    "clipped_cauchy_map": lambda tmp: _cauchy_map(tmp, clip=True),
    "no_pitch_map": lambda tmp: _sidecar_map(tmp, _ONES, '{"units": "kHz"}'),
    "text_pitch_map": lambda tmp: _sidecar_map(
        tmp, _ONES, '{"units": "kHz", "pixel_pitch_um": "six"}'),
    "cut_sidecar_map": lambda tmp: _sidecar_map(tmp, _ONES, "[1"),
    "list_sidecar_map": lambda tmp: _sidecar_map(tmp, _ONES, "[1]"),
    "empty_map": lambda tmp: _sidecar_map(tmp, "", _PITCH_1),
    "blank_map": lambda tmp: _sidecar_map(tmp, "\n\n", _PITCH_1),
    "text_map": lambda tmp: _sidecar_map(tmp, "1,2\n3,x\n", _PITCH_1),
    "mhz_map": lambda tmp: _sidecar_map(tmp, _ONES, '{"units": "MHz", "pixel_pitch_um": 1.0}'),
    "nv9_map": lambda tmp: _sidecar_map(
        tmp, _ONES, '{"units": "kHz", "pixel_pitch_um": 1.0, "orientation": "nv9"}'),
    "signal": lambda tmp: _synth(tmp, "signal.csv", "ramsey synth --t2 10 --detuning 1.3 "
                                 "--seed 1 --noise-sigma 4e-4"),
    # a 0.9 ns record, whose T2* seed lies below the fit's bounds
    "short_signal": lambda tmp: _synth(tmp, "short.csv", "ramsey synth --t2 0.0003 --detuning "
                                       "20000 --splitting 2160 --dtau 0.00001 --tau-end 0.0009"),
    "spectra": lambda tmp: _spectra(tmp, nan_wavelength=False),
    "nan_spectra": lambda tmp: _spectra(tmp, nan_wavelength=True),
    "two_row_spectrum": "wavelength_nm,counts\n600,1\n700,1\n",
    # 10 nm steps that meet the other spectra's 560-850 nm only at 840 and 850 nm
    "far_basis": "wavelength_nm,counts\n840,1\n850,1\n860,1\n870,1\n",
    **{f"signal-{name}": lambda tmp, edit=edit: _edited_signal(tmp, edit)
       for name, edit in SIGNAL_EDITS.items()},
}


class _Inputs(dict):
    """Paths of INPUTS by placeholder, as strings, each built in tmp on
    first use; "tmp" is tmp itself."""

    def __init__(self, tmp):
        super().__init__(tmp=str(tmp))
        self.tmp = tmp

    def __missing__(self, name):
        build = INPUTS[name]
        path = build(self.tmp) if callable(build) else _write(self.tmp / name, build)
        self[name] = str(path)
        return self[name]


# --- the refusal table ---

_OUT = "--out {tmp}/out.csv"
_SIM = "photophysics simulate --intensity 1 --isat 2"
_RSYN = "ramsey synth --t2 10 --detuning 0.4"
_CHARGE = ("charge decompose --measured {spectra}/m.csv --basis-minus {spectra}/bm.csv "
           "--basis-zero {spectra}/b0.csv --intensity")
_TWO_SAMPLES = "us is shorter than one step dt = 0.00746269 us; a trace needs at least two samples"
# Each key names the test its rows run under, so that every case keeps its
# test id. A row is (id, argv, code, message); argv is split on spaces, and
# argv and message take INPUTS placeholders. A key whose one row has the
# id None is a test of that row alone.
REFUSALS = {
    "test_refusal_contract": [
        ("simulate-count-in-g-form", f"photophysics simulate --intensity 1e300 --isat 3 {_OUT}",
         1, "time grid (t_end 30 us at dt 4.47761e-302 us) must be at most 5,000,000 samples, "
         "got 6.7e+302; pass a shorter t_end, or use ti_band for this regime"),
        ("ramsey-synth-count-in-g-form", f"ramsey synth --t2 10 --detuning 1 --dtau 1e-300 {_OUT}",
         1, "grid must be at most 5,000,000 points, got 3e+301; pass a larger --dtau or a "
         "shorter --tau-end"),
        ("bin-width-beyond-the-bin-cap",
         f"strain analyze {{map}} --sizes 96:384:log:3 --bin-width-khz 1e-300 {_OUT}", 1,
         "bin width 1e-300 kHz needs 8.15832e+302 bins to span the 815.832 kHz histogram "
         "range; a histogram holds at most 200,000"),
        ("zero-width-bins",
         f"strain analyze {{zero_width_map}} --sizes 96:384:log:3 --bin-width-khz 0.5 {_OUT}", 1,
         "bin width 0.5 kHz is finer than doubles resolve near the 1.01e+69 kHz median shift"),
        ("center-beyond-the-solver-range",
         f"strain analyze {{far_center_map}} --sizes 4:8:log:3 --bin-width-khz 0.5 {_OUT}", 1,
         "bin width 0.5 kHz is finer than doubles resolve near the 1.42e+306 kHz median shift"),
        ("clipped-shifts-whose-mean-overflows",
         f"strain analyze {{clipped_cauchy_map}} --sizes 96:384:log:3 {_OUT}", 1,
         "strain shifts overflow: the mean of 16,384 valid pixels is not finite"),
        *((f"{command}-lin-grid-whose-span-overflows", f"{argv}=-1e308:1e308:lin:3 {_OUT}", 1,
           "lin grid needs a finite stop - start, got '-1e308:1e308:lin:3'")
          for command, argv in [("optimal-n", "sensitivity optimal-n --to-grid"),
                                ("ti-band", "photophysics ti-band --grid"),
                                ("strain-analyze", "strain analyze {map} --sizes")]),
        ("grid-without-a-scale", f"sensitivity optimal-n --to-grid 0.1:100 {_OUT}", 1,
         "grid must be start:stop:log|lin[:count], got '0.1:100'"),
        ("grid-endpoint-not-a-number", f"photophysics ti-band --grid a:10:log {_OUT}", 1,
         "bad grid endpoints in 'a:10:log'"),
        ("grid-count-not-a-number",
         f"sensitivity sweep --sample {{cfg}} --table {{table}} --grid 1e-3:1:log:x {_OUT}", 1,
         "bad grid count in '1e-3:1:log:x'"),
        ("grid-of-one-point", f"strain analyze {{map}} --sizes 96:384:log:1 {_OUT}", 1,
         "grid needs >= 2 points, got 1"),
        ("lin-grid-reversed", f"sensitivity optimal-n --to-grid 5:1:lin:3 {_OUT}", 1,
         "grid needs start < stop, got '5:1:lin:3'"),
        ("ramsey-synth-grid-end-overflows", f"{_RSYN} --tau-end 1.7e308 --dtau 1e308 {_OUT}", 1,
         "--tau-end 1.7e+308 us plus half of --dtau 1e+308 us overflows"),
        ("ramsey-synth-grid-of-one-point", f"{_RSYN} --tau-end 0.06 {_OUT}", 1,
         "tau grid must be a 1-D array with >= 2 points"),
        ("tables-sharing-no-range", "sensitivity compare --sample-a {cfg} --table-a {table} "
         f"--sample-b {{cfg}} --table-b {{far_table}} {_OUT}", 1,
         "tables share no overlapping intensity range"),
        ("ramsey-synth-default-grid-end-overflows",
         f"ramsey synth --t2 1e308 --detuning 0.4 {_OUT}", 1,
         "the default --tau-end, 3 x --t2, overflows at --t2 1e+308 us; pass --tau-end"),
        *((f"{command}-takes-no-config", f"{argv} --config {{cfg}} {_OUT}", 1,
           "unrecognized arguments: --config {cfg}") for command, argv in [
            ("ramsey-synth", _RSYN), ("ramsey-fit", "ramsey fit {signal}"),
            ("charge-decompose", f"{_CHARGE} 0.05")]),
        ("config-key-without-a-value", "dephasing --config {bare_key_cfg}", 1,
         "{bare_key_cfg}:2: expected 'key = value', got 'psi'"),
        ("config-not-utf-8", "dephasing --config {latin1_cfg}", 1,
         "config file {latin1_cfg} is not valid UTF-8: …"),
        ("missing-map", "strain analyze {tmp}/none.csv --sizes 4:8:log:3", 1,
         "strain map not found: {tmp}/none.csv"),
        ("map-in-mhz", "strain analyze {mhz_map} --sizes 4:8:log:3", 1,
         "{tmp}/grid.json: expected units 'kHz', got 'MHz'"),
        ("map-of-an-unknown-orientation", "strain analyze {nv9_map} --sizes 4:8:log:3", 1,
         "{tmp}/grid.json: unknown orientation 'nv9'"),
        ("map-of-text", "strain analyze {text_map} --sizes 4:8:log:3", 1,
         "{text_map}: cannot parse numeric grid: …"),
        ("spectrum-of-two-samples", _CHARGE.replace("{spectra}/m.csv", "{two_row_spectrum}")
         + " 0.05", 1, "{two_row_spectrum}: spectrum needs at least 3 samples"),
        ("spectra-overlapping-in-two-samples",
         _CHARGE.replace("{spectra}/bm.csv", "{far_basis}") + " 0.05", 1,
         "overlapping wavelength range is too short"),
    ],
    "test_bad_arguments_exit_1_with_message": [
        ("argv0", f"strain synth --model stationary --shape abc {_OUT}", 1,
         "--shape must be ROWSxCOLS, got 'abc'"),
        ("argv1", f"{_RSYN} --dtau 0 {_OUT}", 1, "--dtau must be finite and > 0 us, got 0.0"),
        ("argv2", f"{_RSYN} --tau-end inf {_OUT}", 1,
         "--tau-end must be finite and > 0 us, got inf"),
        ("argv3", f"photophysics ti-band --grid 1:inf:log:3 {_OUT}", 1,
         "grid stop must be finite, got inf"),
        ("argv4", f"sensitivity optimal-n --to-grid nan:3:lin {_OUT}", 1,
         "grid start must be finite, got nan"),
        ("argv5", f"sensitivity optimal-n --to-grid 0.1:1:log:1000000000000000 {_OUT}", 1,
         "grid must be at most 5,000,000 points, got 1e+15"),
        ("argv6", f"sensitivity optimal-n --to-grid 0.1:1:lin:{MAX_TRACE_SAMPLES + 1} {_OUT}", 1,
         "grid must be at most 5,000,000 points, got 5,000,001"),
        ("argv7", f"{_RSYN} --dtau 1e-12 {_OUT}", 1, "grid must be at most 5,000,000 points, "
         "got 30,000,000,000,001; pass a larger --dtau or a shorter --tau-end"),
        ("argv8", f"{_SIM} --t-end inf {_OUT}", 1, "t_end must be finite and > 0 us, got inf"),
        ("argv9", f"{_SIM} --dt 1e-320 {_OUT}", 1, "time grid (t_end 160.197 us at dt "
         "9.99989e-321 us) must be at most 5,000,000 samples, got inf; …"),
        ("argv10", f"{_SIM} --dt nan {_OUT}", 1, "dt must be finite and > 0 us, got nan"),
        ("argv11", f"ramsey synth --t2 10 --detuning nan {_OUT}", 1,
         "detuning must be finite, got nan"),
        ("argv12", f"ramsey synth --t2 10 --detuning inf {_OUT}", 1,
         "detuning must be finite, got inf"),
        ("argv13", f"{_RSYN} --splitting inf {_OUT}", 1,
         "hyperfine_splitting must be finite and >= 0 MHz, got inf"),
        ("argv14", f"{_RSYN} --amplitude nan {_OUT}", 1, "amplitude must be finite, got nan"),
        ("argv15", f"{_RSYN} --baseline inf {_OUT}", 1, "baseline must be finite, got inf"),
        ("argv16", f"{_RSYN} --noise-sigma -1 {_OUT}", 1,
         "noise_sigma must be finite and >= 0, got -1.0"),
        ("argv17", f"{_RSYN} --noise-sigma nan {_OUT}", 1,
         "noise_sigma must be finite and >= 0, got nan"),
        ("argv18", f"strain synth --model stationary --shape 100000x100000 {_OUT}", 1,
         "map of 100000x100000 must be at most 16,777,216 pixels, got 10,000,000,000"),
        ("argv19", f"strain analyze {{map}} --sizes 96:384:log:3 --bin-width-khz 1e300 {_OUT}", 1,
         "bin width 1e+300 kHz takes the Lorentzian fit out of floating-point range"),
        ("argv20", f"photophysics ti-band --grid 1e200:1e201:log:2 {_OUT}", 1,
         "intensity 1e+200 mW/um^2 needs more than 2.31e+18 samples at full resolution"),
        ("argv21", f"{_SIM} --t-end 5 --dt 0 {_OUT}", 1, "dt must be finite and > 0 us, got 0.0"),
        ("argv22", f"{_SIM} --t-end 0 --dt 0.001 {_OUT}", 1,
         "t_end must be finite and > 0 us, got 0.0"),
        ("argv23", f"{_SIM} --t-end 1e-12 {_OUT}", 1, f"t_end = 1e-12 {_TWO_SAMPLES}"),
        ("argv24", f"{_SIM} --t-end 1e-300 {_OUT}", 1, f"t_end = 1e-300 {_TWO_SAMPLES}"),
        ("argv25", f"ramsey fit {{short_signal}} {_OUT}", 1, "T2* seed 0.000409 us lies outside "
         "the fit's bounds [0.001, 1e+07] us: tau must be in microseconds"),
        ("argv26", "strain synth --model stationary --shape 128x128 --seed 3 --scale-khz 1e306 "
         f"{_OUT}", 1, "synthetic shifts are not all finite at scale 1e+306 kHz"),
        ("argv27", "strain synth --model two-region --shape 128x128 --seed 3 --hot-scale-khz "
         f"1e308 {_OUT}", 1, "synthetic shifts are not all finite at scales 10 and 1e+308 kHz"),
        ("argv28", f"photophysics simulate --intensity 1 --isat 1e-310 {_OUT}", 1,
         "saturation parameter I/I_sat = 1/1e-310 overflows: i_sat is too small"),
        ("argv29", f"photophysics ti-band --grid 1:10:log:2 --config {{isat_cfg}} {_OUT}", 1,
         "saturation parameter I/I_sat = 1/1e-310 overflows: i_sat is too small"),
        ("argv30", f"ramsey synth --t2 1 --detuning 1 --lines 100000000 {_OUT}", 1,
         "synthetic signal (50 samples x 100,000,000 lines) must be at most 5,000,000 values, "
         "got 5,000,000,000"),
        ("argv31", f"ramsey synth --t2 10 --detuning 1e308 {_OUT}", 1, "synthetic signal is not "
         "all finite at detuning 1e+308 MHz, amplitude 0.02 and noise sigma 0"),
        ("argv32", "ramsey synth --t2 10 --detuning 1 --amplitude 1e308 --noise-sigma 1e308 "
         f"--seed 1 {_OUT}", 1, "synthetic signal is not all finite at detuning 1 MHz, "
         "amplitude 1e+308 and noise sigma 1e+308"),
    ],
    "test_usage_error_exit_code": [(None, "sensitivity sweep", 1,
                                    "the following arguments are required: --sample/--config…")],
    "test_dephasing_validation_exit_code": [(None, "dephasing --config {psi_cfg}", 1,
                                             "{psi_cfg}:5: psi must be in [0, 1], got 1.3")],
    "test_strain_synth_with_a_refused_config_writes_nothing": [
        (None, "strain synth --model stationary --shape 32x32 --seed 1 --config {psi_cfg} "
         "--out {tmp}/map.csv", 1, "unrecognized arguments: --config {psi_cfg}")],
    "test_optimal_n_refuses_the_removed_overhead_key": [
        (None, "sensitivity optimal-n --to-grid 0.1:100:log:6 --config {overhead_cfg} "
         "--out {tmp}/n.csv", 1,
         "{overhead_cfg}:2: unknown key 't_overhead_us' in section [metric]")],
    "test_optimal_n_refuses_a_metric_out_of_the_float_range": [
        (name, f"sensitivity optimal-n --to-grid 0.1:100:log:5 --config {{{name}_cfg}} "
         "--out {tmp}/x.csv", 2, f"simplified metric leaves the float range at ns0 = {ns0} "
         "ppm, t_overhead = 0.1 us") for name, ns0 in [("a_ns0", "0.01"), ("c13", "100")]],
    "test_table_outside_range_is_computation_boundary": [
        (None, "sensitivity sweep --sample {cfg} --table {table} --grid 1e-4:1:log:4 "
         "--out {tmp}/x.csv", 1,
         "intensity 0.0001 outside table range [0.001, 10]; extrapolation is not performed")],
    "test_sweep_refuses_a_sensitivity_that_underflows": [
        (None, "sensitivity sweep --sample {tiny_bath_cfg} --table {table} "
         "--grid 0.01:1:log:3 --out {tmp}/x.csv", 2,
         "sensitivity underflows to 0 at tau=1.50602e+300 us")],
    "test_photophysics_refuses_a_radiative_rate_out_of_the_float_range": [
        (f"{command}-{gamma}", f"{argv} --config {{{gamma_cfg}}} --out {{tmp}}/x.csv", 1,
         "rates gamma_rad x (s, 1 + kappa, kappa) must be finite and nonzero, got gamma_rad "
         f"{shown} 1/us at saturation parameter {s}")
        for command, argv, s in [("ti-band", "photophysics ti-band --grid 0.1:1:log:3", 0.1),
                                 ("simulate", _SIM, 0.5)]
        for gamma, gamma_cfg, shown in [("1e308", "huge_gamma_cfg", "1e+308"),
                                        ("5e-324", "tiny_gamma_cfg", "5e-324")]],
    "test_strain_analyze_refuses_a_pixel_count_beyond_the_float_range": [
        (None, "strain analyze {tiny_pitch_map} --sizes 96:384:log:3 --out {tmp}/s.json", 1,
         "tile size 96 um at pixel pitch 1e-310 um must span a finite pixel count, got inf")],
    "test_strain_analyze_gives_a_huge_pixel_count_in_g_form": [
        (None, "strain analyze {map} --sizes 96:1e300:log:3 --out {tmp}/s.json", 1,
         "tile size 9.79796e+150 um (1.63299e+150 px) exceeds the map extent")],
    "test_strain_analyze_refuses_shifts_whose_mean_overflows": [
        (None, "strain analyze {cauchy_map} --sizes 96:384:log:3 --out {tmp}/s.json", 1,
         "strain shifts overflow: the mean of 16,326 valid pixels is not finite")],
    "test_bad_strain_sidecar_exit_1_with_message": [
        ('{"units": "kHz"}', "strain analyze {no_pitch_map} --sizes 10:40:log:3", 1,
         "{tmp}/grid.json: pixel_pitch_um must be a number, got None"),
        ('{"units": "kHz", "pixel_pitch_um": "six"}', "strain analyze {text_pitch_map} "
         "--sizes 10:40:log:3", 1, "{tmp}/grid.json: pixel_pitch_um must be a number, got 'six'"),
        ("[1", "strain analyze {cut_sidecar_map} --sizes 10:40:log:3", 1,
         "{tmp}/grid.json: not valid JSON: …"),
        ("[1]", "strain analyze {list_sidecar_map} --sizes 10:40:log:3", 1,
         "{tmp}/grid.json: expected a JSON object")],
    "test_empty_strain_map_exit_1_with_one_line": [
        ("zero-bytes", "strain analyze {empty_map} --sizes 4:8:log:3", 1,
         "{empty_map}: no data rows"),
        ("blank-lines", "strain analyze {blank_map} --sizes 4:8:log:3", 1,
         "{blank_map}: no data rows")],
    "test_charge_decompose_refuses_a_nan_wavelength": [
        (None, _CHARGE.replace("{spectra}", "{nan_spectra}") + " 0.05", 1,
         "{nan_spectra}/bm.csv: wavelengths must be finite")],
    "test_charge_decompose_refuses_a_bad_intensity": [
        ("nan", f"{_CHARGE} nan", 1, "intensity must be finite and >= 0 mW/um^2, got nan"),
        ("negative", f"{_CHARGE} -1", 1, "intensity must be finite and >= 0 mW/um^2, got -1.0")],
    "test_charge_decompose_refuses_an_infinite_brightness_ratio": [
        (None, f"{_CHARGE} 0.05 --brightness-ratio inf", 1,
         "brightness_ratio must be finite and > 0, got inf")],
    "test_ramsey_fit_input_boundary": [
        (name, f"ramsey fit {{signal-{name}}} --out {{tmp}}/fit.json", 1, message)
        for name, message in [
            ("negative-tau", "tau must be >= 0 and non-decreasing"),
            ("negative-tau-inside", "tau must be >= 0 and non-decreasing"),
            ("inf-tau", "tau must be finite"),
            ("nan-contrast", "signal must be finite"),
            ("inf-contrast", "signal must be finite"),
            ("text-contrast", "{tmp}/sig.csv:6: bad contrast value 'abc'"),
            ("reversed-rows", "tau must be >= 0 and non-decreasing"),
            ("constant-tau", "tau repeats too often: its median step is 0"),
            ("every-row-twice", "tau repeats too often: its median step is 0"),
            ("short-row", "{tmp}/sig.csv:6: short row: 1 of 2 cells"),
            ("empty-file", "{tmp}/sig.csv: no header row"),
            ("no-tau-column", "{tmp}/sig.csv: missing columns: tau_us"),
        ]],
    "test_ramsey_fit_refuses_fewer_than_one_line": [
        (lines, f"ramsey fit {{signal}} --lines {lines}", 1,
         f"n_hyperfine must be in [1, 8], got {lines}") for lines in ("-1", "0")],
}


def _run_row(tmp_path, argv, code, message):
    inputs = _Inputs(tmp_path)
    assert_refused([a.format_map(inputs) for a in argv.split(" ")], code,
                   message.format_map(inputs))


def _table_test(rows, run):
    """A test that calls run(tmp_path, *row) for each table row (id, *row):
    parametrized by the rows' ids, or of one row whose id is None."""
    if rows[0][0] is None:
        [(_, *row)] = rows

        def test(tmp_path):
            run(tmp_path, *row)

    else:

        @pytest.mark.parametrize("row", [pytest.param(r, id=i) for i, *r in rows])
        def test(tmp_path, row):
            run(tmp_path, *row)

    return test


for _name, _rows in REFUSALS.items():
    globals()[_name] = pytest.mark.filterwarnings("error")(_table_test(_rows, _run_row))


# --- the scipy modules each command loads ---

_NO_SCIPY = ((), ("scipy",))
# A row is (id, argv, modules, families): argv, split on spaces and taking
# INPUTS placeholders, runs in a fresh interpreter (None only imports
# nvsk.cli) and exits 0, having loaded each of modules and no module of
# families. Each key names the test its rows run under, as in REFUSALS.
SCIPY_MODULES = {
    "test_command_loads_no_scipy_module": [
        ("import", None, *_NO_SCIPY),
        ("dephasing", "dephasing --config {cfg} --out {tmp}/budget.json", *_NO_SCIPY),
        ("sensitivity-sweep", "sensitivity sweep --sample {cfg} --table {table} "
         "--grid 1e-3:1e1:log:4 --out {tmp}/curve.csv", *_NO_SCIPY),
        ("sensitivity-optimal-n",
         "sensitivity optimal-n --to-grid 0.1:100:log:5 --out {tmp}/n.csv", *_NO_SCIPY),
        ("sensitivity-compare", "sensitivity compare --sample-a {cfg} --table-a {table} "
         "--sample-b {cfg} --table-b {table} --grid 1e-3:1e1:log:4 --out {tmp}/ratio.csv",
         *_NO_SCIPY),
        ("ti-band", "photophysics ti-band --grid 1:10:log:2 --out {tmp}/band.csv", *_NO_SCIPY),
        ("ramsey-synth", f"{_RSYN} --out {{tmp}}/signal.csv", *_NO_SCIPY),
        ("strain-synth", "strain synth --model two-region --shape 64x64 --out {tmp}/map.csv",
         *_NO_SCIPY),
        ("strain-analyze", "strain analyze {map} --sizes 96:384:log:3 --out {tmp}/stats.json",
         *_NO_SCIPY),
        ("ramsey-fit", "ramsey fit {signal} --out {tmp}/fit.json", *_NO_SCIPY),
    ],
    "test_solver_commands_load_scipy_optimize_when_they_run": [
        ("charge-decompose", f"{_CHARGE} 0.05 --out {{tmp}}/psi.json", ("scipy.optimize",), ()),
    ],
    # scipy.integrate for evolve's DOP853 solver; the readout filter is numpy
    "test_simulate_imports_its_scipy_modules_when_it_runs": [
        (None, "photophysics simulate --intensity 10 --isat 3 --t-end 5 --out {tmp}/trace.csv",
         ("scipy.integrate",), ("scipy.signal",)),
    ],
}


def _run_fresh(argv):
    """Import nvsk.cli in a fresh interpreter and run main(argv) unless argv
    is None: the exit code (None when not run) and the sorted names of every
    scipy module left in sys.modules."""
    code = (
        "import json, sys\n"
        "from nvsk.cli import main\n"
        f"code = None if {argv!r} is None else main({argv!r})\n"
        "loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
        "print(json.dumps([code, loaded]))\n"
    )
    src = str(Path(nvsk.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _run_fresh_row(tmp_path, argv, modules, families):
    if argv is not None:
        inputs = _Inputs(tmp_path)
        argv = [a.format_map(inputs) for a in argv.split(" ")]
    code, loaded = _run_fresh(argv)
    assert code == (None if argv is None else 0)
    assert set(modules) <= set(loaded)
    assert not [m for m in loaded for f in families if m == f or m.startswith(f + ".")]


for _name, _rows in SCIPY_MODULES.items():
    globals()[_name] = _table_test(_rows, _run_fresh_row)


@pytest.mark.parametrize("edit", ["zero-first-tau", "repeated-tau", "blank-line"])
def test_ramsey_fit_accepts_an_edited_record(tmp_path, edit):
    sig = _edited_signal(tmp_path, SIGNAL_EDITS[edit])
    assert main(["ramsey", "fit", str(sig), "--out", str(tmp_path / "fit.json")]) == 0
    t2 = json.loads((tmp_path / "fit.json").read_text())["t2_star_us"]
    assert t2 == pytest.approx(10.0, rel=0.05)


def test_ramsey_fit_refuses_many_lines_at_once(tmp_path):
    sig = _synth(tmp_path, "sig.csv", f"{_RSYN} --splitting 0.05 --lines 50")
    start = time.perf_counter()
    assert_refused(["ramsey", "fit", str(sig), "--lines", "50"], 1,
                   "n_hyperfine must be in [1, 8], got 50")
    assert time.perf_counter() - start < 1.0


# Tracemalloc peaks of a second main(argv), after a warm call, in units of
# the command's largest float64 array. Each bound is a ceiling set at most
# about 10 % above the peak measured when it was added (in brackets).
@pytest.mark.parametrize(
    "argv, largest, arrays",
    [
        # a CSV column of 1,130,539 samples [9.01 columns]
        ("photophysics simulate --intensity 0.01 --isat 3", 1_130_539, 9.5),
        # the 1024^2 map [1.35 maps]
        ("strain synth --model stationary --shape 1024x1024 --seed 1", 1024 * 1024, 1.45),
        # the contrast buffer, 1,871,912 samples kept at 1e-3 mW/um^2 [1.64 buffers]
        ("photophysics ti-band --grid 1e-3:1e1:log:40", 1_871_912, 1.75),
    ],
    ids=["simulate", "strain-synth", "ti-band"],
)
def test_command_peak_stays_within_its_budget(tmp_path, argv, largest, arrays):
    argv = [*argv.split(), "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= arrays * 8 * largest
