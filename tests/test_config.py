import json

import pytest

from nvsk.config import default_config, parse_config
from nvsk.errors import ValidationError

MINIMAL = """\
[sample]
ns0_as_grown_ppm = 0.8
c13_ppm = 108
nv_total_ppm = 0.39
psi = 0.2
"""


def write(tmp_path, text, name="sample.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_minimal_sample_config_fills_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL))
    sample = cfg.sample()
    assert sample.ns0_as_grown == 0.8
    assert sample.n_orientations_sensing == 1  # default
    assert cfg.constants().gamma_e == pytest.approx(2.8024)
    assert cfg.bath_coefficients().a_ns0 == 0.101
    assert cfg.bath_coefficients().a_c13 == pytest.approx(1e-4)
    assert cfg.five_level_params().gamma_rad == 0.67
    assert cfg.photon_model().rate_at_1mw_kcps == 30.0
    assert cfg.readout_window_us is None


def test_default_config_is_pinned():
    # manifests record this block, so its keys, order and values are fixed
    expected = {
        "sample": {"n_orientations_sensing": 1},
        "constants": {"gamma_e_mhz_per_g": 2.8024},
        "bath": {
            "a_ns0_per_us_ppm": 0.101,
            "a_c13_per_ms_ppm": 0.1,
            "a_nv_par_per_us_ppm": 0.247,
            "a_nv_nonpar_per_us_ppm": 0.165,
            "zeta_par": 0.0,
            "zeta_nonpar": 0.5,
            "bias_rate_per_us": 0.0,
        },
        "photophysics": {
            "gamma_rad_per_us": 0.67,
            "kappa_45": 1.0,
            "kappa_35": 1.0 / 7.0,
            "kappa_52": 0.02,
            "kappa_51": 0.04,
            "i_sat_lower_mw_um2": 1.0,
            "i_sat_upper_mw_um2": 3.0,
        },
        "photon_model": {"rate_at_1mw_kcps": 30.0, "i_sat_mw_um2": 2.0},
        "metric": {"c13_ppm": 50.0},
    }
    assert json.dumps(default_config().as_dict()) == json.dumps(expected)


def test_coefficient_override_visible(tmp_path):
    text = MINIMAL + "\n[bath]\na_ns0_per_us_ppm = 0.2\n"
    cfg = parse_config(write(tmp_path, text))
    assert cfg.bath_coefficients().a_ns0 == 0.2
    assert cfg.as_dict()["bath"]["a_ns0_per_us_ppm"] == 0.2


def test_psi_range_error_has_line_number(tmp_path):
    bad = MINIMAL.replace("psi = 0.2", "psi = 1.3")
    with pytest.raises(ValidationError, match=r":5: psi must be in \[0, 1\], got 1.3$"):
        parse_config(write(tmp_path, bad))


def test_orientation_count_past_the_float_range_is_refused(tmp_path):
    # an int the validator cannot turn into a float is refused, not raised
    bad = MINIMAL + "n_orientations_sensing = 1" + "0" * 400 + "\n"
    message = r":6: n_orientations_sensing must be in \[1, 4\], got 10"
    with pytest.raises(ValidationError, match=message):
        parse_config(write(tmp_path, bad))


def test_unknown_key_rejected(tmp_path):
    text = MINIMAL + "ns0_ppm = 0.8\n"
    with pytest.raises(ValidationError, match="unknown key 'ns0_ppm'"):
        parse_config(write(tmp_path, text))


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ValidationError, match=r"unknown section \[laser\]"):
        parse_config(write(tmp_path, MINIMAL + "\n[laser]\npower = 2\n"))


def test_type_error_diagnostic(tmp_path):
    bad = MINIMAL.replace("c13_ppm = 108", "c13_ppm = lots")
    with pytest.raises(ValidationError, match=":3: bad value for c13_ppm"):
        parse_config(write(tmp_path, bad))


def test_key_outside_section_rejected(tmp_path):
    with pytest.raises(ValidationError, match="outside of any"):
        parse_config(write(tmp_path, "psi = 0.2\n"))


def test_comments_and_blank_lines(tmp_path):
    text = "# header comment\n\n" + MINIMAL.replace(
        "psi = 0.2", "psi = 0.2  # charge fraction"
    )
    cfg = parse_config(write(tmp_path, text))
    assert cfg.sample().charge_fraction_psi == 0.2


def test_missing_sample_keys_reported(tmp_path):
    cfg = parse_config(write(tmp_path, "[sample]\nns0_as_grown_ppm = 0.8\n"))
    with pytest.raises(ValidationError, match="lacks required"):
        cfg.sample()


def test_missing_file():
    with pytest.raises(ValidationError, match="not found"):
        parse_config("/nonexistent/path.cfg")


def test_default_config_has_no_sample():
    cfg = default_config()
    with pytest.raises(ValidationError):
        cfg.sample()
    assert cfg.metric_config().c13 == 50.0
