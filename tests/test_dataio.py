import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nvsk import dataio
from nvsk.dataio import (
    _CSV_BLOCK_ROWS,
    _KERNEL_MIN_CELLS,
    _float_rows,
    FLOAT_FORMAT,
    RunManifest,
    emit_csv,
    emit_json,
    ingest_intensity_table,
    load_spectrum,
    load_strain_map,
    read_columns,
    save_strain_map,
    sha256_file,
    write_manifest,
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
    assert write_manifest(out, manifest) == tmp_path / "result.json.manifest.json"
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


def test_write_manifest_sidecars_beside_json_and_csv(tmp_path):
    # the emitters write the artifact alone; write_manifest adds its sidecar
    manifest = RunManifest(command=["x"])
    emit_json({"v": 1.0}, tmp_path / "r.json")
    emit_csv([("a", [1.0, 2.0])], tmp_path / "r.csv")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv", "r.json"]
    assert json.loads((tmp_path / "r.json").read_text()) == {"v": 1.0}
    assert (tmp_path / "r.csv").read_text().startswith("a\n1\n2")
    for name in ("r.json", "r.csv"):
        write_manifest(tmp_path / name, manifest)
        sidecar = json.loads((tmp_path / f"{name}.manifest.json").read_text())
        assert sidecar["command"] == ["x"]


def per_cell_csv(columns) -> bytes:
    """Oracle: the row-by-row, cell-by-cell writer emit_csv must match."""
    arrays = [np.asarray(v) for _, v in columns]
    lines = [",".join(h for h, _ in columns)]
    for row in zip(*arrays):
        lines.append(",".join(FLOAT_FORMAT % float(v) for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize(
    "values",
    [
        np.arange(3),
        np.ones(3, dtype=bool),
        np.array(["s0", "s1", "s2"]),
        np.array([None, 1.0, 2.0], dtype=object),
        [1, 2, 3],
    ],
    ids=["int", "bool", "str", "object", "list-of-ints"],
)
def test_emit_csv_refuses_a_column_that_is_not_float(tmp_path, values):
    path = tmp_path / "x.csv"
    with pytest.raises(ValidationError) as caught:
        emit_csv([("f", np.zeros(3)), ("g", values)], path)
    assert str(caught.value) == "CSV columns must hold floats: g"
    assert not path.exists()


def per_cell_rows(block) -> bytes:
    """Oracle for _float_rows: each row after a newline, cell by cell."""
    return "".join(
        "\n" + ",".join(FLOAT_FORMAT % float(v) for v in row) for row in block
    ).encode("ascii")


def kernel_block(values, width=3):
    """All of values, repeated into a block large enough for the numpy kernel."""
    values = np.asarray(values)
    rows = -(-max(_KERNEL_MIN_CELLS, values.size) // width)
    return np.resize(values, (rows, width))


def assert_kernel_matches(values, width=3):
    block = kernel_block(values, width)
    assert bytes(_float_rows(block)) == per_cell_rows(block)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64), st.integers(1, 7))
@example([0.0, -0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf], 3)
def test_float_rows_match_percent_format(values, width):
    assert_kernel_matches(values, width)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(width=32), min_size=1, max_size=64), st.integers(1, 7))
def test_float_rows_match_percent_format_float32(values, width):
    assert_kernel_matches(np.array(values, dtype=np.float32), width)


def directed_floats():
    values = [0.0, -0.0, 5e-324, 1e-4, 1e9, 999999999.5, 9.9999999995e8, 123456789.5]
    for k in range(-5, 11):
        p = 10.0**k
        values += [p, np.nextafter(p, 0.0), np.nextafter(p, math.inf)]
        values += [p * (1.0 + j * 1e-9) for j in range(-9, 10)]
    # scaled mantissas q + 1/2 and the doubles one and two ulps either side
    rng = np.random.default_rng(7)
    for exp in range(-5, 10):
        for q in rng.integers(10**8, 10**9, 20).tolist() + [10**8, 10**9 - 1]:
            half = (q + 0.5) * 10.0 ** (exp - 8)
            below = np.nextafter(half, 0.0)
            above = np.nextafter(half, math.inf)
            values += [half, below, above, np.nextafter(below, 0.0),
                       np.nextafter(above, math.inf)]
    values = np.array(values)
    return np.concatenate([values, -values])


@pytest.mark.parametrize("width", [1, 3, 7])
def test_float_rows_directed_cases(width):
    assert_kernel_matches(directed_floats(), width)


def test_float_rows_exact_when_the_decade_is_one_off(monkeypatch):
    # log10 may round across a power of ten: a decade off either way must
    # leave the cell to %, not print other digits
    decade = dataio._decade
    rng = np.random.default_rng(3)

    def one_off(a, out):
        decade(a, out)
        out += rng.integers(-1, 2, out.shape)

    monkeypatch.setattr(dataio, "_decade", one_off)
    assert_kernel_matches(directed_floats(), 3)


def test_float_rows_random_doubles():
    rng = np.random.default_rng(11)
    n = 200_000
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 14, n)
    values[::5] = np.round(values[::5], rng.integers(0, 8))  # trailing zeros
    bits = rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64)
    for width in (1, 3, 4):
        block = np.concatenate([values, bits])[: (n // width) * width].reshape(-1, width)
        assert bytes(_float_rows(block)) == per_cell_rows(block)


@pytest.mark.parametrize("n", [0, 1, 170, 171, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1])
def test_emit_csv_float_columns_match_per_cell_oracle(tmp_path, n):
    rng = np.random.default_rng(n)
    t = np.arange(n) * 0.00746268657
    columns = [
        ("t_us", t),
        ("pl", rng.standard_normal(n).astype(np.float32)),
        ("contrast", 1.0 - 1e-3 * rng.random(n) * 10.0 ** rng.integers(-6, 3, n)),
    ]
    path = tmp_path / "floats.csv"
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


def test_ingest_table_reports_the_physical_line_after_a_blank_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "intensity_mw_um2,contrast,psi,overhead_us\n1,0.01,0.5,10\n\n2,abc,0.5,10\n"
    )
    with pytest.raises(ValidationError, match=r"t\.csv:4: bad contrast value 'abc'"):
        ingest_intensity_table(path)


def test_read_columns_by_name_with_physical_lines(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("note,b, a,c\n\nx,2,1.5,7\n  \ny,-4,inf,8,extra\n")
    lines, columns = read_columns(path, ("a", "b"), optional=("c", "d"))
    assert lines == [3, 5]
    assert columns == {"a": [1.5, math.inf], "b": [2.0, -4.0], "c": [7.0, 8.0]}
    assert list(columns) == ["a", "b", "c"]


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "file not found"),
        (b"", "no header row"),
        (b"\n \n", "no header row"),
        (b"a,c\n1,2\n", "missing columns: b"),
        (b"a,b\n\n", "no data rows"),
        (b"a,b,c\n1,2,3\n1,2\n", ":3: short row: 2 of 3 cells"),
        (b"a,b\n1,\n", ":2: bad b value ''"),
        (b"a,b\n1,\xff\n", "not a UTF-8 CSV file"),
    ],
)
def test_read_columns_refusals(tmp_path, content, message):
    path = tmp_path / "c.csv"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(ValidationError, match=message):
        read_columns(path, ("a", "b"))


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
    masked = values.copy()
    masked[3, 7] = np.nan
    m = StrainMap(values=masked, pixel_pitch_um=6.0, orientation="nv2")
    path = tmp_path / "map.csv"
    save_strain_map(m, path)
    assert (tmp_path / "map.json").is_file()
    loaded = load_strain_map(path)
    assert loaded.pixel_pitch_um == 6.0
    assert loaded.orientation == "nv2"
    assert not loaded.mask[3, 7]  # masked pixel stored as nan
    ok = loaded.mask
    assert np.allclose(loaded.values[ok], values[ok], rtol=1e-8)


@pytest.mark.parametrize("shape", [(8, 8), (300, 257)])
def test_save_strain_map_writes_what_savetxt_wrote(tmp_path, shape):
    # cubed Cauchy draws: tails past 1e9 and below 1e-4 print in exponent notation
    rng = np.random.default_rng(9)
    values = 10.0 * rng.standard_cauchy(shape) ** 3
    mask = rng.random(shape) > 0.05
    masked = np.where(mask, values, np.nan)
    save_strain_map(StrainMap(values=masked, pixel_pitch_um=3.0), tmp_path / "m.csv")
    oracle = tmp_path / "oracle.csv"
    np.savetxt(oracle, np.where(mask, values, np.nan), delimiter=",", fmt=FLOAT_FORMAT,
               newline="\n")
    written = (tmp_path / "m.csv").read_bytes()
    assert written == oracle.read_bytes()
    if shape[0] > 8:
        assert b"nan" in written and b"e+" in written and b"e-" in written


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
