"""Output checks: invariants that hold for any seed, plus agreement with a
reference.

For the default seed the reference is `reference.json`, recorded from the
seed commit; for other seeds it is the first pass of the same run, so every
repeated pass must reproduce it (outputs are deterministic). Floats are
compared with a relative tolerance, never byte for byte; integers, strings,
booleans and nulls must match exactly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Relative tolerances by output kind. The CLI prints 9 significant digits;
# fixing the known decimation-stride defect of ti_band moves t_I by ~3.4e-9
# relative, which these tolerances absorb.
TOLERANCES = {
    "ti-band": 1e-6,  # t_I
    "strain": 1e-6,  # FWHM (tile and skip counts are integers: exact)
    "simulate": 1e-8,  # trace columns
}
DEFAULT_TOLERANCE = 1e-6
SAMPLED_ROWS = 17  # rows kept from CSVs longer than 64 rows

# Known defect: ramsey.fit refuses adequately sampled signals or misses T2*
# for detunings near and above a/2 (and a few near a/3 with noise). Such
# commands count as failed; they do not mark the run incorrect.
KNOWN_DEFECT_KINDS = ("ramsey-fit",)


class CheckFailure(Exception):
    pass


def _read_csv(path: Path) -> dict:
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) < 2:
        raise CheckFailure("CSV has no data rows")
    header = lines[0].split(",")
    n = len(lines) - 1
    idx = range(n) if n <= 64 else np.unique(np.linspace(0, n - 1, SAMPLED_ROWS).astype(int))
    try:
        rows = [[float(c) for c in lines[1 + i].split(",")] for i in idx]
    except ValueError as exc:
        raise CheckFailure(f"bad CSV cell: {exc}") from None
    if any(len(r) != len(header) for r in rows):
        raise CheckFailure("CSV row width differs from header")
    cols = np.array(rows).T if rows else np.empty((len(header), 0))
    return {
        "rows": n,
        "idx": [int(i) for i in idx],
        "cols": {h: cols[k].tolist() for k, h in enumerate(header)},
        "bytes": path.stat().st_size,
    }


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            out.update(_flatten(v, f"{prefix}{k}."))
        return out
    if isinstance(obj, list):
        out = {}
        for i, v in enumerate(obj):
            out.update(_flatten(v, f"{prefix}{i}."))
        return out
    return {prefix[:-1]: obj}


def _read_json(path: Path) -> dict:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise CheckFailure(f"bad JSON: {exc}") from None
    return {"json": payload, "bytes": path.stat().st_size}


def _close(a, b, tol) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        if isinstance(a, bool) or isinstance(b, bool):
            return a == b
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b or abs(a - b) <= tol * max(abs(a), abs(b))
    return a == b


def digest(data: dict) -> dict:
    """The part of an output that is compared against the reference."""
    if "json" in data:
        return {"values": _flatten(data["json"])}
    return {"rows": data["rows"], "idx": data["idx"], "cols": data["cols"]}


def compare(kind: str, expected: dict, actual: dict):
    tol = TOLERANCES.get(kind, DEFAULT_TOLERANCE)
    if "values" in expected:
        exp, act = expected["values"], actual.get("values", {})
        if set(exp) != set(act):
            missing = sorted(set(exp) ^ set(act))[:3]
            return f"output fields differ from reference: {missing}"
        for key, value in exp.items():
            if not _close(value, act[key], tol):
                return f"{key} = {act[key]!r}, reference {value!r} (rel tol {tol:g})"
        return None
    if expected["rows"] != actual.get("rows"):
        return f"{actual.get('rows')} rows, reference {expected['rows']}"
    if expected["cols"].keys() != actual["cols"].keys():
        return f"columns {list(actual['cols'])}, reference {list(expected['cols'])}"
    for name, values in expected["cols"].items():
        for row, a, b in zip(expected["idx"], values, actual["cols"][name]):
            if not _close(a, b, tol):
                return f"{name}[row {row}] = {b!r}, reference {a!r} (rel tol {tol:g})"
    return None


# --- invariants by command kind (any seed) ---


def _finite(values, name, positive=False):
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise CheckFailure(f"{name} has non-finite values")
    if positive and np.any(arr <= 0):
        raise CheckFailure(f"{name} has values <= 0")
    return arr


def _ti_band(check, data):
    cols = data["cols"]
    grid = np.asarray(check["grid"])
    if data["rows"] != len(grid):
        raise CheckFailure(f"{data['rows']} rows for a {len(grid)}-point grid")
    if not np.allclose(cols["intensity_mw_um2"], grid, rtol=1e-8, atol=0):
        raise CheckFailure("intensity column differs from the requested grid")
    lower = _finite(cols["t_i_lower_us"], "t_i_lower_us", positive=True)
    upper = _finite(cols["t_i_upper_us"], "t_i_upper_us", positive=True)
    # criterion 7: band monotone in intensity and ordered
    if np.any(np.diff(lower) > 0) or np.any(np.diff(upper) > 0):
        raise CheckFailure("t_I band is not monotone in intensity")
    if np.any(lower > upper):
        raise CheckFailure("t_I band has lower > upper")


def _simulate(check, data):
    cols = data["cols"]
    if list(cols) != ["t_us", "pl_rate_per_us", "contrast"]:
        raise CheckFailure(f"unexpected columns {list(cols)}")
    t = _finite(cols["t_us"], "t_us")
    _finite(cols["pl_rate_per_us"], "pl_rate_per_us")
    contrast = _finite(cols["contrast"], "contrast")
    idx = np.asarray(data["idx"], dtype=float)
    if t[0] != 0.0 or len(t) < 2:
        raise CheckFailure("trace does not start at t = 0")
    step = t[-1] / idx[-1]
    if not np.allclose(t, idx * step, rtol=1e-6, atol=1e-9 * t[-1]):
        raise CheckFailure("trace time grid is not uniform")
    if abs(1.0 - contrast[-1]) > 1e-2:
        raise CheckFailure(f"contrast does not return to 1 (ends at {contrast[-1]:.6g})")


def _strain(check, data):
    result = data["json"]
    parts = result["partitions"]
    h, w = check["shape"]
    off = check["offset"]
    fw = result["full_map"]["fwhm_khz"]
    if not (isinstance(fw, float) and fw > 0):
        raise CheckFailure(f"full-map FWHM {fw!r}")
    mask = np.ones((h, w), dtype=bool)
    if check["nan_block"]:
        (r0, r1), (c0, c1) = check["nan_block"]
        mask[r0:r1, c0:c1] = False
    for part in parts:
        n_px = int(round(part["size_um"] / check["pitch_um"]))
        per_side = [(h - off) // n_px, (w - off) // n_px]
        if part["n_tiles"] != per_side[0] * per_side[1]:
            raise CheckFailure(
                f"{part['n_tiles']} tiles at {part['size_um']:g} um, geometry gives "
                f"{per_side[0] * per_side[1]}"
            )
        sparse = 0
        for i in range(per_side[0]):
            for k in range(per_side[1]):
                r, c = off + i * n_px, off + k * n_px
                sparse += mask[r : r + n_px, c : c + n_px].sum() < 100
        if not sparse <= part["n_skipped"] <= part["n_tiles"]:
            raise CheckFailure(
                f"{part['n_skipped']} tiles skipped at {part['size_um']:g} um, "
                f"but {sparse} have < 100 valid pixels"
            )
    # criterion 6: sensitivity metric scales as 1/L on stationary maps
    if check["stationary"] and abs(result["scaling"]["exponent"] + 1.0) > 0.05:
        raise CheckFailure(f"scaling exponent {result['scaling']['exponent']:.4f} not -1 +- 0.05")
    return sum(p["n_tiles"] for p in parts), sum(p["n_skipped"] for p in parts)


def _ramsey_synth(check, data):
    if data["rows"] != check["rows"]:
        raise CheckFailure(f"{data['rows']} rows, expected {check['rows']}")
    _finite(data["cols"]["contrast"], "contrast")


def _ramsey_fit(check, data):
    t2 = data["json"]["t2_star_us"]
    if not isinstance(t2, float) or not t2 > 0:
        raise CheckFailure(f"fitted T2* {t2!r}")
    # criterion 9: T2* recovered within 5 % for p = 1 draws
    if check["p"] == 1.0 and abs(t2 - check["t2"]) > 0.05 * check["t2"]:
        raise CheckFailure(
            f"T2* {t2:.4g} us vs true {check['t2']:.4g} us (detuning "
            f"{check['detuning']:.4f} MHz), outside 5 %"
        )


def _table(check, data):
    if data["rows"] != check["rows"]:
        raise CheckFailure(f"{data['rows']} rows, expected {check['rows']}")
    for name, values in data["cols"].items():
        _finite(values, name, positive=True)


def _optimal_n(check, data):
    _table(check, data)
    n_opt = np.asarray(data["cols"]["n_opt_ppm"])
    if np.any(n_opt < 0.01 * (1 - 1e-9)) or np.any(n_opt > 100.0 * (1 + 1e-9)):
        raise CheckFailure("optimal nitrogen outside [0.01, 100] ppm")


def _dephasing(check, data):
    # the double-quantum coherence sees twice the bath rate and no strain
    d = data["json"]
    sq, dq, bath = d["t2_star_sq_us"], d["t2_star_dq_us"], d["t2_star_bath_us"]
    if not all(isinstance(v, float) and v > 0 for v in (sq, dq, bath)):
        raise CheckFailure(f"T2* sq {sq!r}, dq {dq!r}, bath {bath!r}")
    if sq > bath * (1 + 1e-8) or abs(2.0 * dq - bath) > 1e-6 * bath:
        raise CheckFailure(f"T2* sq {sq!r}, dq {dq!r} inconsistent with bath {bath!r}")


def _charge(check, data):
    psi = data["json"]["psi"]
    if not isinstance(psi, float) or abs(psi - check["psi"]) > 1e-6:
        raise CheckFailure(f"psi {psi!r}, exact mixture gives {check['psi']:.9g}")


INVARIANTS = {
    "ti-band": _ti_band,
    "simulate": _simulate,
    "strain": _strain,
    "ramsey-synth": _ramsey_synth,
    "ramsey-fit": _ramsey_fit,
    "sweep": _table,
    "compare": _table,
    "optimal-n": _optimal_n,
    "dephasing": _dephasing,
    "charge": _charge,
}


def check_output(cmd: dict, expected):
    """Check one command's output file.

    Returns (reason or None, digest or None, sizes). `expected` is the
    reference digest, or None when this output sets the reference.
    """
    out = Path(cmd["out"])
    sizes = {"bytes": 0, "rows": 0, "tiles": 0, "skipped": 0}
    try:
        if not out.is_file():
            raise CheckFailure("no output file")
        if not Path(str(out) + ".manifest.json").is_file():
            raise CheckFailure("no manifest sidecar")
        data = _read_json(out) if out.suffix == ".json" else _read_csv(out)
        sizes["bytes"] = data["bytes"] + Path(str(out) + ".manifest.json").stat().st_size
        sizes["rows"] = data.get("rows", 0)
        try:
            counts = INVARIANTS[cmd["kind"]](cmd["check"], data)
        except (KeyError, TypeError, IndexError) as exc:
            raise CheckFailure(f"output lacks an expected field: {exc!r}") from None
        if counts:
            sizes["tiles"], sizes["skipped"] = counts
        got = digest(data)
        if expected is not None:
            reason = compare(cmd["kind"], expected, got)
            if reason:
                raise CheckFailure(reason)
        return None, got, sizes
    except CheckFailure as exc:
        return str(exc), None, sizes
