import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import nvsk
from nvsk import dataio, strainmap
from nvsk.cli import build_parser, main, parenthesis_format, parse_grid
from nvsk.core import MAX_TRACE_SAMPLES
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
    from nvsk.errors import ValidationError

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


def test_dephasing_validation_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(SAMPLE_CFG.replace("psi = 0.2", "psi = 1.3"))
    assert main(["dephasing", "--config", str(bad)]) == 1
    assert "psi" in capsys.readouterr().err


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


@pytest.mark.filterwarnings("error")
def test_strain_analyze_refuses_a_pixel_count_beyond_the_float_range(tmp_path, capsys):
    # at a pitch of 1e-310 um, 96 um spans 9.6e311 px, past the largest double
    map_path = tmp_path / "m.csv"
    synth = ["strain", "synth", "--model", "stationary", "--shape", "64x64",
             "--pitch-um", "1e-310", "--out", str(map_path)]
    assert main(synth) == 0
    capsys.readouterr()
    argv = ["strain", "analyze", str(map_path), "--sizes", "96:384:log:3",
            "--out", str(tmp_path / "s.json")]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "nvsk: tile size 96 um at pixel pitch 1e-310 um must span a finite pixel count, "
        "got inf\n"
    )


def test_strain_analyze_gives_a_huge_pixel_count_in_g_form(tmp_path, capsys):
    map_path = tmp_path / "m.csv"
    synth = ["strain", "synth", "--model", "stationary", "--shape", "64x64",
             "--pitch-um", "6", "--out", str(map_path)]
    assert main(synth) == 0
    capsys.readouterr()
    argv = ["strain", "analyze", str(map_path), "--sizes", "96:1e300:log:3",
            "--out", str(tmp_path / "s.json")]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "nvsk: tile size 9.79796e+150 um (1.63299e+150 px) exceeds the map extent\n"
    )


def test_strain_synth_with_a_refused_config_writes_nothing(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(SAMPLE_CFG.replace("psi = 0.2", "psi = 1.3"))
    argv = ["strain", "synth", "--model", "stationary", "--shape", "32x32", "--seed", "1",
            "--config", str(bad), "--out", str(tmp_path / "map.csv")]
    assert main(argv) == 1
    assert "psi" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]


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


def test_charge_decompose_refuses_a_nan_wavelength(tmp_path, capsys):
    wl = np.linspace(560.0, 850.0, 300)
    wl[100] = np.nan
    assert main(charge_argv(tmp_path, wl)) == 1
    err = capsys.readouterr().err
    assert err == f"nvsk: {tmp_path / 'bm.csv'}: wavelengths must be finite\n"


@pytest.mark.parametrize(
    "value, message",
    [("nan", "intensity must be finite and >= 0 mW/um^2, got nan"),
     ("-1", "intensity must be finite and >= 0 mW/um^2, got -1.0")],
    ids=["nan", "negative"],
)
def test_charge_decompose_refuses_a_bad_intensity(tmp_path, capsys, value, message):
    argv = charge_argv(tmp_path)
    argv[-1] = value
    assert main(argv) == 1
    assert capsys.readouterr().err == f"nvsk: {message}\n"


def test_charge_decompose_refuses_an_infinite_brightness_ratio(tmp_path, capsys):
    assert main(charge_argv(tmp_path) + ["--brightness-ratio", "inf"]) == 1
    err = capsys.readouterr().err
    assert err == "nvsk: brightness_ratio must be finite and > 0, got inf\n"


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


def test_optimal_n_refuses_the_removed_overhead_key(tmp_path, capsys):
    # the overhead is the swept --to-grid axis; no config key sets it
    cfg = tmp_path / "metric.cfg"
    cfg.write_text("[metric]\nt_overhead_us = 5\n")
    out = tmp_path / "n.csv"
    argv = ["sensitivity", "optimal-n", "--to-grid", "0.1:100:log:6",
            "--config", str(cfg), "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("nvsk: ") and "unknown key 't_overhead_us'" in err[0]
    assert not out.exists()


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
          "--seed", "9", "--config", "s.cfg", "--out", "signal.csv"], ["signal.csv"],
         {"config"}),
        (["ramsey", "fit", "in_signal.csv", "--config", "s.cfg", "--out", "fit.json"],
         ["fit.json"], {"config", "signal"}),
        (["strain", "synth", "--model", "stationary", "--shape", "64x48", "--seed", "5",
          "--config", "s.cfg", "--out", "map.csv"], ["map.csv", "map.json"], {"config"}),
        (["strain", "analyze", "in_map.csv", "--sizes", "96:384:log:3", "--config", "s.cfg",
          "--out", "stats.json"], ["stats.json"], {"config", "map"}),
        (["charge", "decompose", "--measured", "m.csv", "--basis-minus", "bm.csv",
          "--basis-zero", "b0.csv", "--config", "s.cfg", "--out", "psi.json"], ["psi.json"],
         {"config", "measured", "basis_minus", "basis_zero"}),
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


def _run_fresh(argv=None):
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


@pytest.mark.parametrize(
    "argv",
    [
        None,
        ["dephasing", "--config", "{cfg}", "--out", "{tmp}/budget.json"],
        ["sensitivity", "sweep", "--sample", "{cfg}", "--table", "{table}",
         "--grid", "1e-3:1e1:log:4", "--out", "{tmp}/curve.csv"],
        ["sensitivity", "optimal-n", "--to-grid", "0.1:100:log:5", "--out", "{tmp}/n.csv"],
        ["photophysics", "ti-band", "--grid", "1:10:log:2", "--out", "{tmp}/band.csv"],
        ["strain", "synth", "--model", "two-region", "--shape", "64x64",
         "--out", "{tmp}/map.csv"],
        ["strain", "analyze", "{map}", "--sizes", "96:384:log:3",
         "--out", "{tmp}/stats.json"],
        ["ramsey", "fit", "{signal}", "--out", "{tmp}/fit.json"],
    ],
    ids=["import", "dephasing", "sensitivity-sweep", "sensitivity-optimal-n", "ti-band",
         "strain-synth", "strain-analyze", "ramsey-fit"],
)
def test_command_loads_no_scipy_module(tmp_path, sample_cfg, argv):
    table = tmp_path / "low.csv"
    table.write_text(table_rows_to_csv_text(LOW_N_ROWS))
    map_path = tmp_path / "synth_map.csv"
    if argv is not None and "{map}" in argv:
        assert main(["strain", "synth", "--model", "stationary", "--shape", "128x128",
                     "--seed", "3", "--out", str(map_path)]) == 0
    signal = tmp_path / "signal.csv"
    if argv is not None and "{signal}" in argv:
        assert main(["ramsey", "synth", "--t2", "10", "--detuning", "1.3", "--seed", "1",
                     "--noise-sigma", "4e-4", "--out", str(signal)]) == 0
    if argv is not None:
        argv = [a.format(tmp=tmp_path, cfg=sample_cfg, table=table, map=map_path,
                         signal=signal) for a in argv]
    code, loaded = _run_fresh(argv)
    assert code == (None if argv is None else 0)
    assert loaded == []


@pytest.mark.parametrize("make_argv", [charge_argv], ids=["charge-decompose"])
def test_solver_commands_load_scipy_optimize_when_they_run(tmp_path, make_argv):
    code, loaded = _run_fresh(make_argv(tmp_path))
    assert code == 0
    assert "scipy.optimize" in loaded


def test_simulate_imports_its_scipy_modules_when_it_runs(tmp_path):
    # scipy.integrate for evolve's DOP853 solver; the readout filter is numpy
    out = tmp_path / "trace.csv"
    code, loaded = _run_fresh(
        ["photophysics", "simulate", "--intensity", "10", "--isat", "3",
         "--t-end", "5", "--out", str(out)]
    )
    assert code == 0
    assert "scipy.integrate" in loaded
    assert not [m for m in loaded if m == "scipy.signal" or m.startswith("scipy.signal.")]
    assert out.read_text().startswith("t_us,pl_rate_per_us,contrast\n")


def test_table_outside_range_is_computation_boundary(tmp_path, sample_cfg, capsys):
    low_table = tmp_path / "low.csv"
    low_table.write_text(table_rows_to_csv_text(LOW_N_ROWS))
    code = main(
        ["sensitivity", "sweep", "--sample", sample_cfg, "--table", str(low_table),
         "--grid", "1e-4:1:log:4", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 1
    assert "outside table range" in capsys.readouterr().err


def test_sweep_refuses_a_sensitivity_that_underflows(tmp_path, capsys):
    # a vanishing bath puts T2* near 1e300 us, so N * tau overflows and eta
    # would print as 0 on every row
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(SAMPLE_CFG + "[bath]\na_ns0_per_us_ppm = 1e-300\na_c13_per_ms_ppm = 0\n"
                   "a_nv_par_per_us_ppm = 0\na_nv_nonpar_per_us_ppm = 0\n")
    table = tmp_path / "low.csv"
    table.write_text(table_rows_to_csv_text(LOW_N_ROWS))
    out = tmp_path / "x.csv"
    code = main(["sensitivity", "sweep", "--sample", str(cfg), "--table", str(table),
                 "--grid", "0.01:1:log:3", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("nvsk: sensitivity underflows to 0") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("gamma_rad", ["1e308", "5e-324"])
@pytest.mark.parametrize(
    "argv",
    [["photophysics", "ti-band", "--grid", "0.1:1:log:3"],
     ["photophysics", "simulate", "--intensity", "1", "--isat", "2"]],
    ids=["ti-band", "simulate"],
)
def test_photophysics_refuses_a_radiative_rate_out_of_the_float_range(
    tmp_path, capsys, gamma_rad, argv
):
    # 1e308 overflowed the rate matrix into numpy's eigvals, 5e-324 left it
    # singular for the steady-state solve: both ended in a LinAlgError
    cfg = tmp_path / "g.cfg"
    cfg.write_text(f"[photophysics]\ngamma_rad_per_us = {gamma_rad}\n")
    out = tmp_path / "x.csv"
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("nvsk: rates gamma_rad x") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "line", ["[bath]\na_ns0_per_us_ppm = 1e308", "[metric]\nc13_ppm = 1e308"], ids=["a_ns0", "c13"]
)
def test_optimal_n_refuses_a_metric_out_of_the_float_range(tmp_path, capsys, line):
    # n * T2*^2 underflows to 0: the command printed numpy warnings and exited 0
    cfg = tmp_path / "m.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "x.csv"
    argv = ["sensitivity", "optimal-n", "--to-grid", "0.1:100:log:5", "--config", str(cfg)]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("nvsk: simplified metric leaves the float range")
    assert err.count("\n") == 1
    assert not out.exists()


def test_usage_error_exit_code(capsys):
    assert main(["sensitivity", "sweep"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["strain", "synth", "--model", "stationary", "--shape", "abc"],
        ["ramsey", "synth", "--t2", "10", "--detuning", "0.4", "--dtau", "0"],
        ["ramsey", "synth", "--t2", "10", "--detuning", "0.4", "--tau-end", "inf"],
        ["photophysics", "ti-band", "--grid", "1:inf:log:3"],
        ["sensitivity", "optimal-n", "--to-grid", "nan:3:lin"],
        ["sensitivity", "optimal-n", "--to-grid", "0.1:1:log:1000000000000000"],
        ["sensitivity", "optimal-n", "--to-grid", f"0.1:1:lin:{MAX_TRACE_SAMPLES + 1}"],
        ["ramsey", "synth", "--t2", "10", "--detuning", "0.4", "--dtau", "1e-12"],
        ["photophysics", "simulate", "--intensity", "1", "--isat", "2", "--t-end", "inf"],
        ["photophysics", "simulate", "--intensity", "1", "--isat", "2", "--dt", "1e-320"],
        ["photophysics", "simulate", "--intensity", "1", "--isat", "2", "--dt", "nan"],
        ["ramsey", "synth", "--t2", "10", "--detuning", "nan"],
        ["ramsey", "synth", "--t2", "10", "--detuning", "inf"],
        ["ramsey", "synth", "--t2", "10", "--detuning", "0.4", "--splitting", "inf"],
        ["ramsey", "synth", "--t2", "10", "--detuning", "0.4", "--amplitude", "nan"],
        ["ramsey", "synth", "--t2", "10", "--detuning", "0.4", "--baseline", "inf"],
        ["ramsey", "synth", "--t2", "10", "--detuning", "0.4", "--noise-sigma", "-1"],
        ["ramsey", "synth", "--t2", "10", "--detuning", "0.4", "--noise-sigma", "nan"],
        ["strain", "synth", "--model", "stationary", "--shape", "100000x100000"],
        ["strain", "analyze", "{map}", "--sizes", "96:384:log:3", "--bin-width-khz", "1e300"],
        ["photophysics", "ti-band", "--grid", "1e200:1e201:log:2"],
        ["photophysics", "simulate", "--intensity", "1", "--isat", "2", "--t-end", "5",
         "--dt", "0"],
        ["photophysics", "simulate", "--intensity", "1", "--isat", "2", "--t-end", "0",
         "--dt", "0.001"],
        ["photophysics", "simulate", "--intensity", "1", "--isat", "2", "--t-end", "1e-12"],
        ["photophysics", "simulate", "--intensity", "1", "--isat", "2", "--t-end", "1e-300"],
        ["ramsey", "fit", "{signal}"],
        ["strain", "synth", "--model", "stationary", "--shape", "128x128", "--seed", "3",
         "--scale-khz", "1e306"],
        ["strain", "synth", "--model", "two-region", "--shape", "128x128", "--seed", "3",
         "--hot-scale-khz", "1e308"],
        ["photophysics", "simulate", "--intensity", "1", "--isat", "1e-310"],
        ["photophysics", "ti-band", "--grid", "1:10:log:2", "--config", "{config}"],
        ["ramsey", "synth", "--t2", "1", "--detuning", "1", "--lines", "100000000"],
        ["ramsey", "synth", "--t2", "10", "--detuning", "1e308"],
        ["ramsey", "synth", "--t2", "10", "--detuning", "1", "--amplitude", "1e308",
         "--noise-sigma", "1e308", "--seed", "1"],
    ],
)
def test_bad_arguments_exit_1_with_message(tmp_path, capsys, argv):
    if "{map}" in argv:
        map_path = tmp_path / "map.csv"
        assert main(["strain", "synth", "--model", "stationary", "--shape", "128x128",
                     "--seed", "3", "--out", str(map_path)]) == 0
        argv = [str(map_path) if a == "{map}" else a for a in argv]
    if "{signal}" in argv:
        # a 0.9 ns record, whose T2* seed lies below the fit's bounds
        signal = tmp_path / "signal.csv"
        assert main(["ramsey", "synth", "--t2", "0.0003", "--detuning", "20000",
                     "--splitting", "2160", "--dtau", "0.00001", "--tau-end", "0.0009",
                     "--out", str(signal)]) == 0
        argv = [str(signal) if a == "{signal}" else a for a in argv]
    if "{config}" in argv:
        # a band saturation intensity whose I/I_sat overflows
        config = tmp_path / "isat.cfg"
        config.write_text("[photophysics]\ni_sat_lower_mw_um2 = 1e-310\n")
        argv = [str(config) if a == "{config}" else a for a in argv]
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("nvsk: ") and err.count("\n") == 1 and "Traceback" not in err
    if "--bin-width-khz" in argv:
        assert err.startswith("nvsk: bin width 1e+300 kHz takes the Lorentzian fit")
    if "fit" in argv:
        assert err.startswith("nvsk: T2* seed 0.000409 us lies outside the fit's bounds")
    if "1e-310" in argv or "--config" in argv:
        assert err.startswith("nvsk: saturation parameter I/I_sat = 1/1e-310 overflows")
    if "--lines" in argv:
        assert err.startswith(
            "nvsk: synthetic signal (50 samples x 100,000,000 lines) must be at most "
            "5,000,000 values, got 5,000,000,000"
        )
    if "1e308" in argv and "ramsey" in argv:
        assert err.startswith("nvsk: synthetic signal is not all finite")


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


def test_strain_analyze_refuses_shifts_whose_mean_overflows(tmp_path, capsys):
    # 16,326 finite shifts of scale 1e306 kHz: their sum overflows
    with np.errstate(over="ignore"):
        values = 1e306 * np.random.default_rng(3).standard_cauchy((128, 128))
    map_path = tmp_path / "map.csv"
    dataio.save_strain_map(strainmap.StrainMap(values=values, pixel_pitch_um=6.0), map_path)
    rc = main(["strain", "analyze", str(map_path), "--sizes", "96:384:log:3",
               "--out", str(tmp_path / "s.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == (
        f"nvsk: strain shifts overflow: the mean of {np.isfinite(values).sum():,} "
        "valid pixels is not finite\n"
    )


@pytest.mark.parametrize(
    "sidecar",
    ['{"units": "kHz"}', '{"units": "kHz", "pixel_pitch_um": "six"}', "[1", "[1]"],
)
def test_bad_strain_sidecar_exit_1_with_message(tmp_path, capsys, sidecar):
    grid = tmp_path / "map.csv"
    np.savetxt(grid, np.ones((8, 8)), delimiter=",")
    (tmp_path / "map.json").write_text(sidecar)
    assert main(["strain", "analyze", str(grid), "--sizes", "10:40:log:3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("nvsk: ") and "Traceback" not in err


@pytest.mark.parametrize("content", ["", "\n\n"], ids=["zero-bytes", "blank-lines"])
def test_empty_strain_map_exit_1_with_one_line(tmp_path, capsys, content):
    grid = tmp_path / "map.csv"
    grid.write_text(content)
    (tmp_path / "map.json").write_text('{"units": "kHz", "pixel_pitch_um": 1.0}')
    assert main(["strain", "analyze", str(grid), "--sizes", "4:8:log:3"]) == 1
    err = capsys.readouterr().err
    assert err == f"nvsk: {grid}: no data rows\n"


def _edit_row(row, column, value):
    def edit(lines):
        cells = lines[row].split(",")
        cells[column] = value
        lines[row] = ",".join(cells)
        return lines

    return edit


@pytest.mark.parametrize(
    "edit, code, message",
    [
        pytest.param(_edit_row(1, 0, "-0.06"), 1, "tau must be >= 0", id="negative-tau"),
        pytest.param(_edit_row(40, 0, "-3"), 1, "non-decreasing", id="negative-tau-inside"),
        pytest.param(_edit_row(7, 0, "inf"), 1, "tau must be finite", id="inf-tau"),
        pytest.param(_edit_row(5, 1, "nan"), 1, "signal must be finite", id="nan-contrast"),
        pytest.param(_edit_row(5, 1, "inf"), 1, "signal must be finite", id="inf-contrast"),
        pytest.param(_edit_row(5, 1, "abc"), 1, ":6: bad contrast value 'abc'",
                     id="text-contrast"),
        pytest.param(lambda lines: lines[:1] + lines[:0:-1], 1, "non-decreasing",
                     id="reversed-rows"),
        pytest.param(lambda lines: lines[:1] + [lines[1]] * 20, 1, "median step is 0",
                     id="constant-tau"),
        pytest.param(lambda lines: lines[:1] + [r for r in lines[1:] for _ in (0, 1)], 1,
                     "median step is 0", id="every-row-twice"),
        pytest.param(lambda lines: lines[:1] + ["0,0.02"] + lines[1:], 0, "",
                     id="zero-first-tau"),
        pytest.param(lambda lines: lines[:3] + lines[2:], 0, "", id="repeated-tau"),
        pytest.param(lambda lines: lines[:5] + ["0.3"] + lines[6:], 1, ":6: short row",
                     id="short-row"),
        pytest.param(lambda lines: [], 1, "no header row", id="empty-file"),
        pytest.param(_edit_row(0, 0, "tau"), 1, "missing columns: tau_us",
                     id="no-tau-column"),
        pytest.param(lambda lines: lines[:10] + [""] + lines[10:], 0, "",
                     id="blank-line"),
    ],
)
def test_ramsey_fit_input_boundary(tmp_path, capsys, edit, code, message):
    sig = tmp_path / "sig.csv"
    synth = ["ramsey", "synth", "--t2", "10", "--detuning", "0.4",
             "--noise-sigma", "0.0004", "--seed", "1", "--out", str(sig)]
    assert main(synth) == 0
    sig.write_text("".join(line + "\n" for line in edit(sig.read_text().splitlines())))
    assert main(["ramsey", "fit", str(sig), "--out", str(tmp_path / "fit.json")]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("nvsk: ") and message in err and "Traceback" not in err
    else:
        t2 = json.loads((tmp_path / "fit.json").read_text())["t2_star_us"]
        assert t2 == pytest.approx(10.0, rel=0.05)


@pytest.mark.parametrize("lines", ["-1", "0"])
def test_ramsey_fit_refuses_fewer_than_one_line(tmp_path, capsys, lines):
    sig = tmp_path / "sig.csv"
    assert main(["ramsey", "synth", "--t2", "10", "--detuning", "0.4", "--out", str(sig)]) == 0
    assert main(["ramsey", "fit", str(sig), "--lines", lines]) == 1
    err = capsys.readouterr().err
    assert err == f"nvsk: n_hyperfine must be in [1, 8], got {lines}\n"


def test_ramsey_fit_refuses_many_lines_at_once(tmp_path, capsys):
    sig = tmp_path / "sig.csv"
    synth = ["ramsey", "synth", "--t2", "10", "--detuning", "0.4", "--splitting", "0.05",
             "--lines", "50", "--out", str(sig)]
    assert main(synth) == 0
    start = time.perf_counter()
    assert main(["ramsey", "fit", str(sig), "--lines", "50"]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == "nvsk: n_hyperfine must be in [1, 8], got 50\n"


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
