"""File ingestion and result serialization.

Every emitted artifact gets a manifest sidecar (<path>.manifest.json) that
records the command, the fully resolved configuration, content digests of
all inputs, and any seeds, so a result file can always be regenerated.
Result files themselves are deterministic: fixed field order, floats
printed with 9 significant digits, '.' decimal separator, LF line endings.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .errors import ValidationError
from .sensitivity import IntensityRow, IntensityTable
from .strainmap import ORIENTATIONS, StrainMap
from .charge import Spectrum

FLOAT_FORMAT = "%.9g"


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class RunManifest:
    command: list
    config: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)  # label -> {path, sha256}
    seed: Optional[int] = None
    created_utc: str = field(
        default_factory=lambda: datetime.now(timezone.utc).isoformat()
    )

    def add_input(self, label: str, path) -> None:
        self.inputs[label] = {"path": str(path), "sha256": sha256_file(path)}

    def as_dict(self) -> dict:
        return {
            "tool": "nvsk",
            "version": __version__,
            "command": list(self.command),
            "config": self.config,
            "inputs": self.inputs,
            "seed": self.seed,
            "created_utc": self.created_utc,
        }


def _round_floats(obj):
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float(FLOAT_FORMAT % obj)
        return None  # nan/inf have no strict-JSON encoding; emit null
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _round_floats(obj.tolist())
    if isinstance(obj, (np.floating,)):
        return _round_floats(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _write_bytes(path, text: str) -> None:
    Path(path).write_bytes(text.encode("utf-8"))


def write_manifest(out_path, manifest: RunManifest) -> Path:
    sidecar = Path(str(out_path) + ".manifest.json")
    payload = json.dumps(_round_floats(manifest.as_dict()), indent=2) + "\n"
    _write_bytes(sidecar, payload)
    return sidecar


def emit_json(result: dict, path, manifest: Optional[RunManifest] = None) -> None:
    """Write a result dict as JSON with the standard float formatting."""
    payload = json.dumps(_round_floats(result), indent=2) + "\n"
    _write_bytes(path, payload)
    if manifest is not None:
        write_manifest(path, manifest)


def format_json(result: dict) -> str:
    return json.dumps(_round_floats(result), indent=2)


_CSV_BLOCK_ROWS = 4096


def _column_cells(values: np.ndarray):
    """Cell format of one column and a function turning a slice of it into
    the values that format takes: floats print with FLOAT_FORMAT, anything
    else as its str()."""
    if values.dtype.kind == "f":
        return FLOAT_FORMAT, np.ndarray.tolist
    if values.dtype.kind in "biuUS":
        return "%s", np.ndarray.tolist

    def cells(part):
        return [
            FLOAT_FORMAT % float(v) if isinstance(v, (float, np.floating)) else str(v)
            for v in part
        ]

    return "%s", cells


def emit_csv(columns, path, manifest: Optional[RunManifest] = None) -> None:
    """Write named columns as CSV; headers carry the unit suffixes.

    columns is a sequence of (header, values) pairs of equal length. Rows
    are formatted and written in blocks of _CSV_BLOCK_ROWS, one % on a
    repeated row template per block.
    """
    headers = [h for h, _ in columns]
    arrays = [np.asarray(v) for _, v in columns]
    if any(a.ndim != 1 for a in arrays):
        raise ValidationError("CSV columns must be one-dimensional")
    lengths = {len(a) for a in arrays}
    if len(lengths) != 1:
        raise ValidationError(f"column lengths differ: {sorted(lengths)}")
    n_rows, width = lengths.pop(), len(arrays)
    formats, converters = zip(*(_column_cells(a) for a in arrays))
    row_template = ",".join(formats) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(headers) + "\n")
        for lo in range(0, n_rows, _CSV_BLOCK_ROWS):
            hi = min(lo + _CSV_BLOCK_ROWS, n_rows)
            flat = [None] * ((hi - lo) * width)
            for j, (a, convert) in enumerate(zip(arrays, converters)):
                flat[j::width] = convert(a[lo:hi])
            handle.write(row_template * (hi - lo) % tuple(flat))
    if manifest is not None:
        write_manifest(path, manifest)


# --- measured CSV tables ---


def read_columns(path, required, optional=()):
    """Read the named columns of a CSV file with a header row.

    Columns may come in any order and extra columns are ignored; blank
    lines are skipped and every cell of a named column is parsed with
    float(). Returns (line_numbers, columns): the physical line of each data
    row and a dict mapping each required column, and each optional column
    the header has, to its list of values. Finiteness and ranges are left
    to the caller. A missing file, header or required column, a row shorter
    than the header, a cell that is not a number and a file without data
    rows are refused with the file and line.
    """
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"file not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            # (physical line, cells) of every line that is not blank
            numbered = [
                (reader.line_num, row)
                for row in reader
                if len(row) > 1 or "".join(row).strip()
            ]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"{path}: not a UTF-8 CSV file: {exc}") from None
    if not numbered:
        raise ValidationError(f"{path}: no header row")
    header = [name.strip() for name in numbered[0][1]]
    missing = [name for name in required if name not in header]
    if missing:
        raise ValidationError(f"{path}: missing columns: {', '.join(missing)}")
    if len(numbered) == 1:
        raise ValidationError(f"{path}: no data rows")
    names = [*required, *(name for name in optional if name in header)]
    index = [header.index(name) for name in names]
    cells = [[] for _ in names]
    lines = []
    for lineno, row in numbered[1:]:
        if len(row) < len(header):
            raise ValidationError(
                f"{path}:{lineno}: short row: {len(row)} of {len(header)} cells"
            )
        for name, k, values in zip(names, index, cells):
            try:
                values.append(float(row[k]))
            except ValueError:
                raise ValidationError(
                    f"{path}:{lineno}: bad {name} value {row[k]!r}"
                ) from None
        lines.append(lineno)
    return lines, dict(zip(names, cells))


# --- intensity tables ---

_TABLE_REQUIRED = ("intensity_mw_um2", "contrast", "psi", "overhead_us")
_TABLE_RATE_COLUMN = "photon_rate_per_nv_kcps"


def ingest_intensity_table(path) -> IntensityTable:
    """Load and validate a measured intensity table.

    Required columns: intensity_mw_um2, contrast, psi, overhead_us; optional
    photon_rate_per_nv_kcps. Rows are sorted by intensity; duplicate
    intensities and invalid rows are rejected with the line number.
    """
    lines, columns = read_columns(path, _TABLE_REQUIRED, (_TABLE_RATE_COLUMN,))
    fields = [columns[name] for name in _TABLE_REQUIRED]
    fields.append(columns.get(_TABLE_RATE_COLUMN, [None] * len(lines)))
    rows = []
    for lineno, *cells in zip(lines, *fields):
        try:
            rows.append(IntensityRow(*cells))
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
    rows.sort(key=lambda r: r.intensity)
    for i, (a, b) in enumerate(zip(rows, rows[1:])):
        if b.intensity == a.intensity:
            raise ValidationError(
                f"{path}: duplicate intensity {a.intensity:g} mW/um^2 "
                f"(sorted rows {i + 1} and {i + 2})"
            )
    return IntensityTable(rows)


# --- strain maps ---


def _sidecar_path(map_path) -> Path:
    return Path(map_path).with_suffix(".json")


def save_strain_map(strain_map: StrainMap, path) -> None:
    """Numeric CSV grid (kHz) plus a JSON sidecar with units and pitch.

    Masked pixels are stored as nan.
    """
    path = Path(path)
    values = np.where(strain_map.mask, strain_map.values, np.nan)
    np.savetxt(path, values, delimiter=",", fmt=FLOAT_FORMAT, newline="\n")
    sidecar = {
        "pixel_pitch_um": strain_map.pixel_pitch_um,
        "orientation": strain_map.orientation,
        "units": "kHz",
    }
    _write_bytes(_sidecar_path(path), json.dumps(_round_floats(sidecar), indent=2) + "\n")


def load_strain_map(path) -> StrainMap:
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"strain map not found: {path}")
    sidecar_path = _sidecar_path(path)
    if not sidecar_path.is_file():
        raise ValidationError(f"strain map sidecar not found: {sidecar_path}")
    try:
        sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValidationError(f"{sidecar_path}: not valid JSON: {exc}") from None
    if not isinstance(sidecar, dict):
        raise ValidationError(f"{sidecar_path}: expected a JSON object")
    units = sidecar.get("units")
    if units != "kHz":
        raise ValidationError(f"{sidecar_path}: expected units 'kHz', got {units!r}")
    pitch = sidecar.get("pixel_pitch_um")
    try:
        pitch = float(pitch)
    except (TypeError, ValueError):
        raise ValidationError(
            f"{sidecar_path}: pixel_pitch_um must be a number, got {pitch!r}"
        ) from None
    orientation = sidecar.get("orientation", "nv1")
    if orientation not in ORIENTATIONS:
        raise ValidationError(f"{sidecar_path}: unknown orientation {orientation!r}")
    with warnings.catch_warnings():
        # an empty grid is refused below, not announced on stderr
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            values = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValidationError(f"{path}: cannot parse numeric grid: {exc}") from None
    if values.size == 0:
        raise ValidationError(f"{path}: no data rows")
    return StrainMap(values=values, pixel_pitch_um=pitch, orientation=orientation)


# --- spectra ---


def load_spectrum(path) -> Spectrum:
    """CSV with columns wavelength_nm, counts."""
    _, columns = read_columns(path, ("wavelength_nm", "counts"))
    try:
        return Spectrum(columns["wavelength_nm"], columns["counts"])
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
