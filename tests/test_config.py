import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otasync.config import ConfigError, default_params, derive_sigma_nu, dump_config, \
    load_config
from tests.conftest import geometries


def test_defaults_match_reference_scenario():
    p = default_params()
    assert (p.n_antennas, p.n_ues, p.tau_c, p.tau_p, p.tau_u, p.tau_g, p.tau_d) == \
        (64, 10, 100, 10, 42, 3, 42)
    assert p.rho_ue == 100.0 and p.rho_ap == 200.0
    assert np.all(p.beta_ue == 0.01) and np.all(p.eta == 0.1)
    assert p.f_c == 2e9 and p.f_s == 2e7 and p.c_nu == 5e-18


def test_sigma_nu_zero_quality():
    assert derive_sigma_nu(default_params(c_nu=0.0)) == 0.0


def test_sigma_nu_reference_values():
    # direct evaluation of 4 pi^2 f_c^2 c_nu / f_s
    assert derive_sigma_nu(default_params()) == pytest.approx(3.9478417604357436e-05, rel=1e-12)
    assert derive_sigma_nu(default_params(c_nu=1.58e-17)) == \
        pytest.approx(1.2475179962976948e-04, rel=1e-12)


def test_sigma_nu_scaling_laws():
    base = derive_sigma_nu(default_params())
    assert derive_sigma_nu(default_params(c_nu=3 * 5e-18)) == pytest.approx(3 * base, rel=1e-12)
    assert derive_sigma_nu(default_params(f_c=2 * 2e9)) == pytest.approx(4 * base, rel=1e-12)
    assert derive_sigma_nu(default_params(f_s=2 * 2e7)) == pytest.approx(base / 2, rel=1e-12)


def test_sigma_nu_nonfinite_rejected():
    with pytest.raises(ConfigError):
        derive_sigma_nu(default_params(c_nu=math.inf))


def test_slot_fill_invariant_enforced():
    with pytest.raises(ConfigError, match="slot does not fill"):
        default_params(tau_u=42, tau_d=41)


def test_tau_p_equals_n_ues_enforced():
    with pytest.raises(ConfigError, match="tau_p"):
        default_params(tau_p=7, tau_u=45)


@pytest.mark.parametrize("field", ["beta_ue", "eta", "ue_pilot_noise_var"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_values_rejected(field, bad):
    with pytest.raises(ConfigError, match=field):
        default_params(**{field: bad})
    if field != "ue_pilot_noise_var":
        table = np.full((10, 2), 0.01)
        table[3, 1] = bad
        with pytest.raises(ConfigError, match=field):
            default_params(**{field: table})


def test_power_constraint_enforced():
    with pytest.raises(ConfigError, match="power constraint"):
        default_params(eta=0.2)  # sum over 10 UEs = 2 > 1


def test_load_config_empty_gives_defaults():
    assert load_config("") == default_params()


def test_load_config_db_conversion():
    p = load_config("rho_ue = 20dB")
    assert p.rho_ue == pytest.approx(100.0)
    assert p.rho_ap == pytest.approx(200.0)  # follows rho_ue when not given
    p = load_config("beta_ue = -20 dB")
    assert np.allclose(p.beta_ue, 0.01)


def test_load_config_rho_ap_override():
    p = load_config("rho_ue = 20dB\nrho_ap = 20dB")
    assert p.rho_ap == pytest.approx(100.0)


def test_load_config_violated_invariant():
    with pytest.raises(ConfigError):
        load_config("tau_p = 7")  # n_ues stays 10


def test_load_config_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        load_config("n_antennae = 64")


def test_load_config_malformed_value():
    with pytest.raises(ConfigError, match="malformed"):
        load_config("rho_ue = fast")
    with pytest.raises(ConfigError, match="^line 3: malformed value for 'eta'"):
        load_config("# header\nn_antennas = 32\neta = 0.1,x\n")
    for key in ("rho_ue", "rho_ap", "beta_g", "beta_ue"):
        with pytest.raises(ConfigError, match=f"^line 1: malformed value for '{key}' "
                                              r"\(4000 dB is out of range\)$"):
            load_config(f"{key} = 4000 dB\n")


def test_load_config_db_on_non_power_key():
    with pytest.raises(ConfigError, match="line 1: .*dB"):
        load_config("tau_c = 100dB")


def test_load_config_comments_and_blanks():
    p = load_config("# comment\n\nn_antennas = 32   # trailing\n")
    assert p.n_antennas == 32


def test_load_config_geometry_rederived():
    p = load_config("tau_c = 60\ntau_g = 2")
    assert p.tau_d == (60 - 10 - 4) // 2
    assert p.tau_p + p.tau_u + p.tau_d + 2 * p.tau_g == 60


@pytest.mark.parametrize("given, text", [
    (dict(n_ues=4), "n_ues = 4"),
    (dict(rho_ue=50.0), "rho_ue = 50"),
    (dict(tau_d=40), "tau_d = 40"),
    (dict(tau_c=60, tau_g=2), "tau_c = 60\ntau_g = 2"),
], ids=["n_ues", "rho_ue", "tau_d", "tau_c-tau_g"])
def test_default_params_fills_omitted_keys_as_load_config(given, text):
    # one rule for omitted keys: rho_ap, tau_p, eta, tau_u and tau_d follow
    # the keys given, whichever constructor is called
    assert default_params(**given) == load_config(text)


def test_load_config_per_pair_tables():
    text = "n_ues = 2\neta = 0.5,0.25,0.5,0.75\nbeta_ue = 0.01"
    p = load_config(text)
    assert p.eta.shape == (2, 2)
    assert p.eta[1, 1] == 0.75


def test_round_trip_defaults():
    p = default_params()
    assert load_config(dump_config(p)) == p


@settings(max_examples=40, deadline=None)
@given(
    n_ues=st.integers(1, 6),
    tau_g=st.integers(0, 3),
    tau_u=st.integers(2, 9),
    tau_d=st.integers(2, 9),
    rho_ue=st.floats(0.1, 1e4, allow_nan=False),
    c_nu=st.floats(0, 1e-15),
    beta=st.floats(1e-4, 1.0),
)
def test_round_trip_property(n_ues, tau_g, tau_u, tau_d, rho_ue, c_nu, beta):
    tau_c = n_ues + tau_u + tau_d + 2 * tau_g
    p = default_params(n_ues=n_ues, tau_p=n_ues, tau_u=tau_u, tau_d=tau_d,
                       tau_g=tau_g, tau_c=tau_c, rho_ue=rho_ue, c_nu=c_nu,
                       beta_ue=beta, eta=1.0 / n_ues)
    assert load_config(dump_config(p)) == p


def test_gamma_closed_form(params):
    # gamma = beta * rho K beta / (rho K beta + 1); reference scenario: 0.1/11
    assert params.gamma()[3, 1] == pytest.approx(0.1 / 11, rel=1e-12)


def test_snr_ap_roundtrip(params):
    p = params.with_snr_ap_db(-20.0)
    assert 10 * math.log10(p.rho_ap * p.beta_g) == pytest.approx(-20.0)
