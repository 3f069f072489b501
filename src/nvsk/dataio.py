"""File ingestion and result serialization.

write_manifest writes the manifest sidecar (<path>.manifest.json) of an
emitted artifact: the command, the fully resolved configuration, content
digests of all inputs, and any seeds, so a result file can always be
regenerated. Result files themselves are deterministic: fixed field order,
floats printed with 9 significant digits, '.' decimal separator, LF line
endings.

A CSV file holds float columns only, and its cells are exactly the bytes of
FLOAT_FORMAT % float(v). emit_csv and save_strain_map write blocks of rows
through _float_rows, which builds the cells of a block of at least
_KERNEL_MIN_CELLS cells in numpy: the nine digits come from one
multiplication by an exact power of ten and one rounding to an integer. A
cell whose digits this does not prove is formatted with % on its own and
spliced in: zero, nan and inf, a value that prints in exponent notation
(below 1e-4 or from 1e9 on, once rounded), a scaled value that lands on a
rounding half, and one whose log10 falls in the neighbouring decade.
Smaller blocks are formatted with one % on a repeated row template.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import lru_cache
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


def manifest_path(out_path) -> Path:
    return Path(str(out_path) + ".manifest.json")


def write_manifest(out_path, manifest: RunManifest) -> Path:
    sidecar = manifest_path(out_path)
    payload = json.dumps(_round_floats(manifest.as_dict()), indent=2) + "\n"
    _write_bytes(sidecar, payload)
    return sidecar


def emit_json(result: dict, path) -> None:
    """Write a result dict as JSON with the standard float formatting."""
    payload = json.dumps(_round_floats(result), indent=2) + "\n"
    _write_bytes(path, payload)


def format_json(result: dict) -> str:
    return json.dumps(_round_floats(result), indent=2)


_CSV_BLOCK_ROWS = 4096
_CSV_BLOCK_CELLS = 3 * _CSV_BLOCK_ROWS  # a block of a strain map, any width
# Below this many cells a block is formatted with one % on a row template:
# _float_rows' fixed cost in numpy calls, about 90 us on a 2-vCPU Xeon, is
# what % spends on some 300 cells.
_KERNEL_MIN_CELLS = 512

# --- float cells ---
#
# _float_rows builds each cell in a 16-byte slot, two uint64 words: byte 0
# holds the separator before the cell ('\n' before a row, ',' before the
# other cells), byte 1 the '-' of a negative cell, then the text. Three
# tables, one per triple of the cell's nine digits, hold each triple's
# characters at their bytes in the slot, for each decimal exponent and
# sign; the sign, the '.' and a '0.000' head come with the first triple. A
# mask keeps the slot's used bytes, which the trailing zeros decide, and
# one np.compress joins the slots of a block.
#
# The nine digits are q = rint(m), m = |v| * 10**(8 - X) for the decimal
# exponent X. The power of ten is exact, so m is rounded once; rounding is
# monotone and every n + 1/2 below 2**52 is a double, so m lies on the same
# side of each half as the exact product and rint(m) rounds as % does. A
# cell whose m lands on a half, or outside [1e8, 1e9) because X was a
# decade off or the digits carry into a tenth, is left to %.
#
# A cell's code is 20 * ec + 2 * s + neg: ec = X - _FIXED_X[0] + 1 for an X
# that prints without an exponent (0: the cell is left to %), s its
# significant digits (1..9), neg its sign.

_FIXED_X = range(-4, 9)  # FLOAT_FORMAT prints 1e-4 <= |v| < 1e9 as fixed point
_LOG_OFFSET = 310  # log10 of |v| clamped to [1e-300, 1e300], shifted to >= 0


def _decade(a: np.ndarray, out: np.ndarray) -> None:
    """Store floor(log10 a) + _LOG_OFFSET in out, or the decade next to it
    where log10 rounds across a power of ten; _float_rows checks what it
    gets."""
    t = np.log10(a)
    t += _LOG_OFFSET
    np.copyto(out, t, casting="unsafe")


@lru_cache(maxsize=None)
def _cell_tables():
    """The tables of _float_rows, built on its first call (about 3 ms)."""
    k = np.arange(1000)
    chars = [(48 + d).astype(np.uint8) for d in (k // 100, k // 10 % 10, k % 10)]
    sig3 = 3 - (k % 10 == 0) - (k % 100 == 0) - (k == 0)  # before trailing zeros
    # 2 * s of a q = 10**6 hi + 10**3 mid + lo is the largest of these three
    sig2 = np.stack([2 * sig3, 2 * (3 + sig3) * (k > 0), 2 * (6 + sig3) * (k > 0)])
    n_codes = 20 * (len(_FIXED_X) + 1)
    # by 2 * ec + neg and triple, the slot bytes of each triple
    triples = np.zeros((3, n_codes // 10, 1000, 16), dtype=np.uint8)
    variant = np.zeros(n_codes, dtype=np.intp)  # by code: 1000 * (2 * ec + neg)
    slot = np.ones(n_codes, dtype=np.intp)  # by code: bytes used, separator first
    for ec, exp in enumerate(_FIXED_X, start=1):
        # the text, digits by their index: 0.000012345678 or 1234.56789
        if exp < 0:
            text = ["0", "."] + ["0"] * (-exp - 1) + list(range(9))
        else:
            text = [*range(exp + 1), ".", *range(exp + 1, 9)]
        for neg in (0, 1):
            for pos, item in enumerate(["-"] * neg + text, start=1):
                if isinstance(item, str):
                    triples[0, 2 * ec + neg, :, pos] = ord(item)
                else:
                    triples[item // 3, 2 * ec + neg, :, pos] = chars[item % 3]
            for s in range(1, 10):
                code = 20 * ec + 2 * s + neg
                variant[code] = 1000 * (2 * ec + neg)
                slot[code] = 1 + neg + max(text.index(s - 1), exp) + 1
    masks = np.arange(16) < slot[:, None]
    # scale and code base by floor(log10 |v|) + _LOG_OFFSET
    x = np.arange(2 * _LOG_OFFSET + 1) - _LOG_OFFSET
    fixed = (x >= _FIXED_X[0]) & (x <= _FIXED_X[-1])
    scale = np.zeros(x.size)
    scale[fixed] = [float(10 ** (8 - e)) for e in x[fixed].tolist()]  # exact
    code_base = np.where(fixed, 20 * (x - _FIXED_X[0] + 1), 0)
    return (triples.view(np.uint64).reshape(3, -1, 2), sig2, variant, slot,
            masks.view(np.uint64), scale, code_base)


class _Cells:
    """The arrays _float_rows works in, for blocks of n cells. The blocks of
    a file share them: allocating some thirty arrays per block left more
    of the heap resident after a long trace."""

    def __init__(self, n: int):
        self.n = n
        self.a, self.m, self.q = np.empty((3, n))
        self.e, self.code, self.index = np.empty((3, n), dtype=np.intp)
        self.hi, self.mid, self.lo, self.product = np.empty((4, n), dtype=np.uint32)
        self.ok, self.flag = np.empty((2, n), dtype=bool)
        self.words, self.spare = np.empty((2, n, 2), dtype=np.uint64)
        self.text = np.empty(16 * n, dtype=np.uint8)


def _float_rows(block: np.ndarray, cells: Optional[_Cells] = None):
    """The rows of a 2-D float block as CSV bytes, each row preceded by
    '\\n': cells are FLOAT_FORMAT % float(v), joined by ','. The result may
    be a view of cells.text, valid until the next call with those cells."""
    rows, width = block.shape
    if block.size < _KERNEL_MIN_CELLS:
        template = ("\n" + ",".join([FLOAT_FORMAT] * width)) * rows
        return (template % tuple(block.ravel().tolist())).encode("ascii")
    if cells is None or cells.n != block.size:
        cells = _Cells(block.size)
    a, m, q, e, code, index = cells.a, cells.m, cells.q, cells.e, cells.code, cells.index
    hi, mid, lo, product = cells.hi, cells.mid, cells.lo, cells.product
    ok, flag, words, spare = cells.ok, cells.flag, cells.words, cells.spare
    triples, sig2, variant, slot, masks, scale, code_base = _cell_tables()
    x = block.astype(np.float64, copy=False).ravel()
    np.abs(x, out=a)
    np.fmax(a, 1e-300, out=a)  # zero, nan and inf print through %; they
    np.fmin(a, 1e300, out=a)  # must not warn on their way there
    _decade(a, e)
    scale.take(e, out=m)
    m *= a
    np.rint(m, out=q)
    np.greater_equal(m, 1e8, out=ok)
    ok &= np.less(q, 1e9, out=flag)
    m -= q
    ok &= np.less(np.abs(m, out=m), 0.5, out=flag)
    np.fmin(q, 999999999.0, out=q)
    np.copyto(lo, q, casting="unsafe")
    np.floor_divide(lo, 1000, out=mid)
    lo -= np.multiply(mid, 1000, out=product)
    np.floor_divide(mid, 1000, out=hi)
    mid -= np.multiply(hi, 1000, out=product)
    sig2[0].take(hi, out=code)
    np.maximum(code, sig2[1].take(mid, out=index), out=code)
    np.maximum(code, sig2[2].take(lo, out=index), out=code)
    code += code_base.take(e, out=index)
    code += np.signbit(x, out=flag)
    code *= ok
    base = variant.take(code, out=e)
    triples[0].take(np.add(base, hi, out=index), axis=0, out=words)
    words |= triples[1].take(np.add(base, mid, out=index), axis=0, out=spare)
    words |= triples[2].take(np.add(base, lo, out=index), axis=0, out=spare)
    words[:, 0] |= ord(",")
    words[::width, 0] ^= ord(",") ^ ord("\n")
    used = masks.take(code, axis=0, out=spare).view(bool).ravel()
    out = cells.text[: np.count_nonzero(used)]
    np.compress(used, words.view(np.uint8).ravel(), out=out)
    if ok.all():
        return out
    fallback = np.flatnonzero(~ok)
    ends = np.cumsum(slot.take(code))[fallback]
    pieces, start, data = [], 0, memoryview(out)
    for end, v in zip(ends.tolist(), x[fallback].tolist()):
        pieces += data[start:end], (FLOAT_FORMAT % v).encode("ascii")
        start = end
    pieces.append(data[start:])
    return b"".join(pieces)


def emit_csv(columns, path) -> None:
    """Write named float columns as CSV; headers carry the unit suffixes.

    columns is a sequence of (header, values) pairs of equal length, each
    values a 1-D float array or a sequence of floats. Rows are formatted by
    _float_rows and written in blocks of _CSV_BLOCK_ROWS.
    """
    headers = [h for h, _ in columns]
    arrays = [np.asarray(v) for _, v in columns]
    if any(a.ndim != 1 for a in arrays):
        raise ValidationError("CSV columns must be one-dimensional")
    not_float = [h for h, a in zip(headers, arrays) if a.dtype.kind != "f"]
    if not_float:
        raise ValidationError(f"CSV columns must hold floats: {', '.join(not_float)}")
    lengths = {len(a) for a in arrays}
    if len(lengths) != 1:
        raise ValidationError(f"column lengths differ: {sorted(lengths)}")
    n_rows, width = lengths.pop(), len(arrays)
    block = np.empty((min(n_rows, _CSV_BLOCK_ROWS), width))
    cells = _Cells(block.size) if block.size >= _KERNEL_MIN_CELLS else None
    with open(path, "wb") as handle:
        handle.write(",".join(headers).encode("utf-8"))
        for lo in range(0, n_rows, _CSV_BLOCK_ROWS):
            hi = min(lo + _CSV_BLOCK_ROWS, n_rows)
            for j, a in enumerate(arrays):
                block[: hi - lo, j] = a[lo:hi]
            handle.write(_float_rows(block[: hi - lo], cells))
        handle.write(b"\n")


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


def map_sidecar_path(map_path) -> Path:
    return Path(map_path).with_suffix(".json")


def save_strain_map(strain_map: StrainMap, path) -> None:
    """Numeric CSV grid (kHz) plus a JSON sidecar with units and pitch.

    Masked (non-finite) pixels are stored as nan, one block of rows at a
    time.
    """
    path = Path(path)
    values = strain_map.values
    step = max(1, _CSV_BLOCK_CELLS // values.shape[1])
    cells = _Cells(min(step, len(values)) * values.shape[1])
    with open(path, "wb") as handle:
        for lo in range(0, len(values), step):
            block = values[lo:lo + step]
            block = np.where(np.isfinite(block), block, np.nan)
            rows = memoryview(_float_rows(block, cells))
            handle.write(rows[1:] if lo == 0 else rows)  # no newline before row 1
        handle.write(b"\n")
    sidecar = {
        "pixel_pitch_um": strain_map.pixel_pitch_um,
        "orientation": strain_map.orientation,
        "units": "kHz",
    }
    _write_bytes(map_sidecar_path(path), json.dumps(_round_floats(sidecar), indent=2) + "\n")


def load_strain_map(path) -> StrainMap:
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"strain map not found: {path}")
    sidecar_path = map_sidecar_path(path)
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
