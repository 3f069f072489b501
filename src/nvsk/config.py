"""Line-oriented configuration files.

Grammar (UTF-8): one `key = value` pair per line inside `[section]`
headers; blank lines and lines starting with `#` are ignored, and a `#`
after the value starts a trailing comment. Keys carry their units as
suffixes, unknown keys or sections are rejected, and every diagnostic
points at the offending line.

Example::

    [sample]
    ns0_as_grown_ppm = 0.8
    c13_ppm = 108
    nv_total_ppm = 0.39
    psi = 0.2
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .core import DiamondSample, PhysicalConstants
from .dephasing import BathCoefficients
from .errors import ValidationError
from .photophysics import FiveLevelParams
from .sensitivity import MetricConfig, PhotonModel
from .core import Concentration


def _float_type(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not finite")
    return value


def _int_type(raw: str) -> int:
    return int(raw, 10)


def _in_range(lo, hi):
    def check(value):
        return lo <= value <= hi

    return check


def _positive(value):
    return value > 0


def _non_negative(value):
    return value >= 0


_CONSTANTS = PhysicalConstants()
_BATH = BathCoefficients()
_FIVE_LEVEL = FiveLevelParams()
_PHOTONS = PhotonModel()

# section -> key -> (parser, constraint, constraint description, default);
# a default of None means the key has none. [sample] keys without a default
# are required by ResolvedConfig.sample().
_SCHEMA = {
    "sample": {
        "ns0_as_grown_ppm": (_float_type, _non_negative, ">= 0", None),
        "c13_ppm": (_float_type, _non_negative, ">= 0", None),
        "nv_total_ppm": (_float_type, _non_negative, ">= 0", None),
        "psi": (_float_type, _in_range(0.0, 1.0), "out of [0,1]", None),
        "n_orientations_sensing": (_int_type, _in_range(1, 4), "out of [1,4]", 1),
    },
    "constants": {
        "gamma_e_mhz_per_g": (_float_type, _positive, "> 0", _CONSTANTS.gamma_e),
    },
    "bath": {
        "a_ns0_per_us_ppm": (_float_type, _non_negative, ">= 0", _BATH.a_ns0),
        "a_c13_per_ms_ppm": (_float_type, _non_negative, ">= 0", _BATH.a_c13 * 1e3),
        "a_nv_par_per_us_ppm": (_float_type, _non_negative, ">= 0", _BATH.a_nv_par),
        "a_nv_nonpar_per_us_ppm": (_float_type, _non_negative, ">= 0", _BATH.a_nv_nonpar),
        "zeta_par": (_float_type, _in_range(0.0, 1.0), "out of [0,1]", _BATH.zeta_par),
        "zeta_nonpar": (_float_type, _in_range(0.0, 1.0), "out of [0,1]", _BATH.zeta_nonpar),
        "bias_rate_per_us": (_float_type, _non_negative, ">= 0", 0.0),
    },
    "photophysics": {
        "gamma_rad_per_us": (_float_type, _positive, "> 0", _FIVE_LEVEL.gamma_rad),
        "kappa_45": (_float_type, _non_negative, ">= 0", _FIVE_LEVEL.kappa_45),
        "kappa_35": (_float_type, _non_negative, ">= 0", _FIVE_LEVEL.kappa_35),
        "kappa_52": (_float_type, _non_negative, ">= 0", _FIVE_LEVEL.kappa_52),
        "kappa_51": (_float_type, _non_negative, ">= 0", _FIVE_LEVEL.kappa_51),
        "i_sat_lower_mw_um2": (_float_type, _positive, "> 0", _FIVE_LEVEL.i_sat_band[0]),
        "i_sat_upper_mw_um2": (_float_type, _positive, "> 0", _FIVE_LEVEL.i_sat_band[1]),
    },
    "photon_model": {
        "rate_at_1mw_kcps": (_float_type, _positive, "> 0", _PHOTONS.rate_at_1mw_kcps),
        "i_sat_mw_um2": (_float_type, _positive, "> 0", _PHOTONS.i_sat),
        "readout_window_us": (_float_type, _non_negative, ">= 0", None),
    },
    "metric": {
        "c13_ppm": (_float_type, _non_negative, ">= 0", MetricConfig().c13.ppm),
    },
}


@dataclass
class ResolvedConfig:
    """Parsed configuration with defaults filled in.

    `values` maps section -> key -> value for everything known to the
    schema: the file's own keys over the built-in defaults. `source` is the
    file path, for diagnostics.
    """

    values: dict
    source: Optional[str] = None

    def as_dict(self) -> dict:
        return {section: dict(items) for section, items in self.values.items()}

    def sample(self) -> DiamondSample:
        sec = self.values["sample"]
        missing = [
            k for k, spec in _SCHEMA["sample"].items() if spec[3] is None and k not in sec
        ]
        if missing:
            raise ValidationError(
                f"config {self.source or ''} lacks required [sample] keys: "
                + ", ".join(missing)
            )
        return DiamondSample.from_ppm(
            ns0_as_grown=sec["ns0_as_grown_ppm"],
            c13=sec["c13_ppm"],
            nv_total=sec["nv_total_ppm"],
            psi=sec["psi"],
            n_orientations_sensing=sec["n_orientations_sensing"],
        )

    def constants(self) -> PhysicalConstants:
        sec = self.values["constants"]
        return PhysicalConstants(gamma_e=sec["gamma_e_mhz_per_g"])

    def bath_coefficients(self) -> BathCoefficients:
        sec = self.values["bath"]
        return BathCoefficients(
            a_ns0=sec["a_ns0_per_us_ppm"],
            a_c13=sec["a_c13_per_ms_ppm"] * 1e-3,
            a_nv_par=sec["a_nv_par_per_us_ppm"],
            a_nv_nonpar=sec["a_nv_nonpar_per_us_ppm"],
            zeta_par=sec["zeta_par"],
            zeta_nonpar=sec["zeta_nonpar"],
        )

    @property
    def bias_rate_per_us(self) -> float:
        return self.values["bath"]["bias_rate_per_us"]

    def five_level_params(self) -> FiveLevelParams:
        sec = self.values["photophysics"]
        return FiveLevelParams(
            gamma_rad=sec["gamma_rad_per_us"],
            kappa_45=sec["kappa_45"],
            kappa_35=sec["kappa_35"],
            kappa_52=sec["kappa_52"],
            kappa_51=sec["kappa_51"],
            i_sat_band=(sec["i_sat_lower_mw_um2"], sec["i_sat_upper_mw_um2"]),
        )

    def photon_model(self) -> PhotonModel:
        sec = self.values["photon_model"]
        return PhotonModel(
            rate_at_1mw_kcps=sec["rate_at_1mw_kcps"],
            i_sat=sec["i_sat_mw_um2"],
        )

    @property
    def readout_window_us(self) -> Optional[float]:
        return self.values["photon_model"].get("readout_window_us")

    def metric_config(self) -> MetricConfig:
        sec = self.values["metric"]
        return MetricConfig(
            c13=Concentration(sec["c13_ppm"]),
            bath_coeffs=self.bath_coefficients(),
        )


def default_config() -> ResolvedConfig:
    values = {
        section: {key: spec[3] for key, spec in keys.items() if spec[3] is not None}
        for section, keys in _SCHEMA.items()
    }
    return ResolvedConfig(values=values)


def _parse_lines(lines, source: str) -> ResolvedConfig:
    cfg = default_config()
    cfg.source = source
    section = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ValidationError(
                    f"{source}:{lineno}: unknown section [{section}]"
                )
            continue
        if "=" not in line:
            raise ValidationError(
                f"{source}:{lineno}: expected 'key = value', got {line!r}"
            )
        if section is None:
            raise ValidationError(
                f"{source}:{lineno}: key outside of any [section]"
            )
        key, raw_value = (part.strip() for part in line.split("=", 1))
        schema = _SCHEMA[section]
        if key not in schema:
            raise ValidationError(
                f"{source}:{lineno}: unknown key {key!r} in section [{section}]"
            )
        parser, constraint, description, _ = schema[key]
        try:
            value = parser(raw_value)
        except ValueError as exc:
            raise ValidationError(
                f"{source}:{lineno}: bad value for {key}: {raw_value!r} ({exc})"
            ) from None
        if not constraint(value):
            raise ValidationError(f"{source}:{lineno}: {key} {description}: {value}")
        cfg.values[section][key] = value
    return cfg


def parse_config(path) -> ResolvedConfig:
    """Read and validate a configuration file."""
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"config file {path} is not valid UTF-8: {exc}") from None
    return _parse_lines(text.splitlines(), source=str(path))
