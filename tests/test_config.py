import math
from itertools import product

import numpy as np
import pytest

from otasync.config import ConfigError, default_params, derive_sigma_nu, dump_config, \
    load_config


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
    # f_c**2 overflows on its own; c_nu = 1e300 overflows the product
    for kw in (dict(f_c=1e160), dict(c_nu=1e300)):
        with pytest.raises(ConfigError, match="^sigma_nu\\^2 is not finite"):
            derive_sigma_nu(default_params(**kw))


def test_slot_fill_invariant_enforced():
    with pytest.raises(ConfigError, match="slot does not fill"):
        default_params(tau_u=42, tau_d=41)


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
    # one rule for omitted keys: rho_ap, eta, tau_u and tau_d follow
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


def test_round_trip_property():
    # 40 seeded draws, then every combination of the edge floats
    rng = np.random.default_rng(9)
    floats = rng.uniform((0.1, 0.0, 1e-4), (1e4, 1e-15, 1.0), (40, 3)).tolist()
    floats += product((0.1, 1e4, 1 / 3), (0.0, 5e-324, 1e-15), (1e-4, 1.0, 0.1 + 0.2))
    slots = rng.integers((1, 0, 2, 2), (7, 4, 10, 10), (len(floats), 4)).tolist()
    for (k, g, u, d), (rho_ue, c_nu, beta) in zip(slots, floats):
        p = default_params(n_ues=k, tau_u=u, tau_d=d, tau_g=g, tau_c=k + u + d + 2 * g,
                           rho_ue=rho_ue, c_nu=c_nu, beta_ue=beta)
        assert load_config(dump_config(p)) == p, dump_config(p)


def test_gamma_closed_form(params):
    # gamma = beta * rho K beta / (rho K beta + 1); reference scenario: 0.1/11
    assert params.gamma()[3, 1] == pytest.approx(0.1 / 11, rel=1e-12)


def test_snr_ap_roundtrip(params):
    p = params.with_snr_ap_db(-20.0)
    assert 10 * math.log10(p.rho_ap * p.beta_g) == pytest.approx(-20.0)
