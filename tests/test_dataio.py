import json
import math

import numpy as np
import pytest

from nvsk.dataio import (
    _CSV_BLOCK_ROWS,
    FLOAT_FORMAT,
    RunManifest,
    emit_csv,
    emit_json,
    ingest_intensity_table,
    load_spectrum,
    load_strain_map,
    save_strain_map,
    sha256_file,
)
from nvsk.charge import Spectrum
from nvsk.errors import ValidationError
from nvsk.strainmap import StrainMap
from synthdata import LOW_N_ROWS, table_rows_to_csv_text

TABLE_12 = [
    (10 ** (-3 + 4 * k / 11.0), 0.015, 0.2, 100.0 - k) for k in range(12)
]


def test_emit_json_deterministic(tmp_path):
    payload = {"t2_us": 17.6999999912345678, "rates": [0.1, 0.2]}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    emit_json(payload, a)
    emit_json(payload, b)
    assert a.read_bytes() == b.read_bytes()
    loaded = json.loads(a.read_text())
    assert loaded["t2_us"] == pytest.approx(17.7, rel=1e-9)  # 9 significant digits
    assert b"\r" not in a.read_bytes()


def test_emit_csv_format(tmp_path):
    path = tmp_path / "curve.csv"
    emit_csv(
        [
            ("t_overhead_us", [1.0, 10.0]),
            ("n_opt_ppm", [0.123456789123, 0.70000000012345]),
        ],
        path,
    )
    text = path.read_bytes().decode()
    lines = text.split("\n")
    assert lines[0] == "t_overhead_us,n_opt_ppm"
    assert lines[1] == "1,0.123456789"  # 9 significant digits
    assert lines[2] == "10,0.7"  # trailing zeros dropped
    assert "\r" not in text
    assert "," in text and ";" not in text


def test_emit_csv_length_mismatch(tmp_path):
    with pytest.raises(ValidationError, match="lengths differ"):
        emit_csv([("a", [1.0]), ("b", [1.0, 2.0])], tmp_path / "x.csv")


def test_manifest_sidecar(tmp_path):
    inp = tmp_path / "input.csv"
    inp.write_text("intensity_mw_um2,contrast,psi,overhead_us\n1,0.01,0.5,10\n")
    manifest = RunManifest(command=["dephasing", "--config", "x"], seed=42)
    manifest.add_input("table", inp)
    out = tmp_path / "result.json"
    emit_json({"value": 1.0}, out, manifest)
    sidecar = json.loads((tmp_path / "result.json.manifest.json").read_text())
    assert sidecar["tool"] == "nvsk"
    assert sidecar["seed"] == 42
    assert sidecar["inputs"]["table"]["sha256"] == sha256_file(inp)
    assert "created_utc" in sidecar


def test_json_roundtrip_within_precision(tmp_path):
    values = {"a": 1.234567891234e-7, "b": [3.14159265358979, 2.0]}
    path = tmp_path / "r.json"
    emit_json(values, path)
    loaded = json.loads(path.read_text())
    assert loaded["a"] == pytest.approx(values["a"], rel=1e-8)
    assert loaded["b"][0] == pytest.approx(values["b"][0], rel=1e-8)


def test_json_nonfinite_becomes_null(tmp_path):
    path = tmp_path / "nf.json"
    emit_json({"t2": float("inf"), "x": float("nan")}, path)
    loaded = json.loads(path.read_text())  # strict JSON, parseable
    assert loaded["t2"] is None and loaded["x"] is None


def test_emit_json_and_csv_write_manifest_sidecars(tmp_path):
    manifest = RunManifest(command=["x"])
    emit_json({"v": 1.0}, tmp_path / "r.json", manifest)
    emit_csv([("a", [1.0, 2.0])], tmp_path / "r.csv", manifest)
    assert json.loads((tmp_path / "r.json").read_text()) == {"v": 1.0}
    assert (tmp_path / "r.csv").read_text().startswith("a\n1\n2")
    for name in ("r.json", "r.csv"):
        sidecar = json.loads((tmp_path / f"{name}.manifest.json").read_text())
        assert sidecar["command"] == ["x"]


def per_cell_csv(columns) -> bytes:
    """Oracle: the row-by-row, cell-by-cell writer emit_csv must match."""
    arrays = [np.asarray(v) for _, v in columns]
    lines = [",".join(h for h, _ in columns)]
    for row in zip(*arrays):
        lines.append(
            ",".join(
                FLOAT_FORMAT % float(v) if isinstance(v, (float, np.floating)) else str(v)
                for v in row
            )
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


def mixed_columns(n):
    rng = np.random.default_rng(n)
    floats = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n)
    floats[::7] = np.nan
    floats[3::11] = np.inf
    floats[5::13] = -np.inf
    mixed = [None if k % 3 == 0 else float(v) for k, v in enumerate(floats)]
    return [
        ("f64", floats),
        ("f32", floats.astype(np.float32)),
        ("int", rng.integers(-(2**40), 2**40, n)),
        ("bool", rng.integers(0, 2, n).astype(bool)),
        ("str", np.array([f"s{k}" for k in range(n)], dtype=str)),
        ("obj", np.array(mixed, dtype=object)),
        ("list", [math.pi * k for k in range(n)]),
    ]


@pytest.mark.parametrize("n", [0, 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1])
def test_emit_csv_matches_per_cell_oracle(tmp_path, n):
    columns = mixed_columns(n)
    path = tmp_path / "mixed.csv"
    emit_csv(columns, path)
    assert path.read_bytes() == per_cell_csv(columns)


def test_emit_csv_rejects_non_column_values(tmp_path):
    with pytest.raises(ValidationError, match="one-dimensional"):
        emit_csv([("a", np.ones((3, 2)))], tmp_path / "x.csv")


def test_ingest_table_well_formed(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text(table_rows_to_csv_text(TABLE_12))
    table = ingest_intensity_table(path)
    assert len(table) == 12
    lo, hi = table.intensity_range
    assert lo == pytest.approx(1e-3)
    assert hi == pytest.approx(1e1, rel=1e-9)


def test_ingest_table_duplicate_rows_named(tmp_path):
    rows = [(1.0, 0.01, 0.5, 10.0), (1.0, 0.02, 0.5, 10.0)]
    path = tmp_path / "dup.csv"
    path.write_text(table_rows_to_csv_text(rows))
    with pytest.raises(ValidationError, match="duplicate intensity 1"):
        ingest_intensity_table(path)


def test_ingest_table_missing_column(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("intensity_mw_um2,contrast,psi\n1,0.01,0.5\n")
    with pytest.raises(ValidationError, match="missing columns: overhead_us"):
        ingest_intensity_table(path)


def test_ingest_table_nan_rejected(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text(
        "intensity_mw_um2,contrast,psi,overhead_us\n1,nan,0.5,10\n"
    )
    with pytest.raises(ValidationError, match=":2:"):
        ingest_intensity_table(path)


def test_intensity_table_write_ingest_roundtrip(tmp_path):
    path = tmp_path / "t.csv"
    emit_csv(
        [
            ("intensity_mw_um2", [0.01, 1.0]),
            ("contrast", [0.015, 0.012]),
            ("psi", [0.2, 0.15]),
            ("overhead_us", [120.0, 20.0]),
            ("photon_rate_per_nv_kcps", [1.5, 40.0]),
        ],
        path,
    )
    back = ingest_intensity_table(path)
    assert len(back) == 2
    assert back.rows[0].photon_rate_kcps == pytest.approx(1.5)
    assert back.rows[1].t_overhead == pytest.approx(20.0)


def test_ingest_table_unsorted_input_sorted(tmp_path):
    rows = [LOW_N_ROWS[2], LOW_N_ROWS[0], LOW_N_ROWS[1]]
    path = tmp_path / "u.csv"
    path.write_text(table_rows_to_csv_text(rows))
    table = ingest_intensity_table(path)
    intensities = [r.intensity for r in table.rows]
    assert intensities == sorted(intensities)


def test_strain_map_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    values = rng.normal(0.0, 10.0, size=(24, 30))
    mask = np.ones_like(values, dtype=bool)
    mask[3, 7] = False
    m = StrainMap(values=values, pixel_pitch_um=6.0, mask=mask, orientation="nv2")
    path = tmp_path / "map.csv"
    save_strain_map(m, path)
    assert (tmp_path / "map.json").is_file()
    loaded = load_strain_map(path)
    assert loaded.pixel_pitch_um == 6.0
    assert loaded.orientation == "nv2"
    assert not loaded.mask[3, 7]  # masked pixel stored as nan
    ok = loaded.mask
    assert np.allclose(loaded.values[ok], values[ok], rtol=1e-8)


def test_strain_map_requires_sidecar(tmp_path):
    path = tmp_path / "bare.csv"
    np.savetxt(path, np.ones((8, 8)), delimiter=",")
    with pytest.raises(ValidationError, match="sidecar"):
        load_strain_map(path)


def test_spectrum_roundtrip(tmp_path):
    wl = np.linspace(560.0, 850.0, 64)
    spec = Spectrum(wl, np.linspace(1.0, 5.0, 64))
    path = tmp_path / "s.csv"
    emit_csv([("wavelength_nm", spec.wavelength_nm), ("counts", spec.counts)], path)
    loaded = load_spectrum(path)
    assert np.allclose(loaded.wavelength_nm, wl, rtol=1e-8)
    assert np.allclose(loaded.counts, spec.counts, rtol=1e-8)
