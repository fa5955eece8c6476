import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sc_control import params as pm
from sc_control.errors import (
    DiscountTooLow,
    NegativeMertonConstant,
    NonpositiveVolatility,
    ValidationError,
)

from conftest import baseline_retire_params, table_bank_params


def test_table_row_accepted():
    p = table_bank_params()
    assert pm.from_dict(pm.BankParams, dataclasses.asdict(p)) == p


def test_discount_not_above_drifts_rejected():
    with pytest.raises(DiscountTooLow):
        pm.BankParams(mu=0.10, alpha=0.05, sigma=0.03, delta=0.10,
                      omega=0.3, kappa_min=0.048)


def test_zero_volatility_rejected():
    with pytest.raises(NonpositiveVolatility):
        pm.BankParams(mu=0.05, alpha=0.06, sigma=0.0, delta=0.2,
                      omega=0.3, kappa_min=0.048)


def test_baseline_retire_accepted_with_derived_fields():
    p = baseline_retire_params()
    assert p.theta == pytest.approx(0.22222222222222222, abs=1e-16)
    # 50-digit evaluation of K_bar = beta/g - (1-g)/g (r + theta^2/(2g))
    assert p.K_bar == pytest.approx(0.025486968449931413, abs=1e-15)


def test_leisure_preference_must_exceed_one():
    with pytest.raises(ValidationError):
        baseline_retire_params(B=1.0)


def test_negative_merton_constant_rejected():
    with pytest.raises(NegativeMertonConstant):
        baseline_retire_params(gamma=0.05, beta=0.001, mu_stock=2.0, sigma_stock=0.2)


def test_s_bar_default_covers_initial_variances():
    p = table_bank_params()
    assert p.S_bar == pytest.approx(4.0 * p.noise_m * p.sigma * (1.0 - p.rho))


def test_gridspec_invariants():
    with pytest.raises(ValidationError):
        pm.BankGrid(n_x=2)
    with pytest.raises(ValidationError):
        pm.BankGrid(stretching="cubic")
    with pytest.raises(ValidationError):
        pm.RetireGrid(n_y=2)
    with pytest.raises(ValidationError):
        pm.RetireGrid(penalty_schedule=())


def test_json_round_trip_bank():
    p = table_bank_params()
    doc = pm.to_json(p)
    assert pm.from_json(doc) == p


def test_json_round_trip_retire():
    p = baseline_retire_params(power_nu=2.0, eis_psi=0.5, horizon_T=50.0)
    q = pm.from_json(pm.to_json(p))
    assert q == p
    assert q.K_bar == p.K_bar


def test_json_unknown_field_rejected():
    doc = pm.to_json(table_bank_params()).replace('"mu"', '"mu_typo"')
    with pytest.raises(ValidationError):
        pm.from_json(doc)


def test_from_dict_names_unknown_missing_and_nan_fields():
    d = dataclasses.asdict(table_bank_params())
    with pytest.raises(ValidationError, match="sigmaa"):
        pm.from_dict(pm.BankParams, {**d, "sigmaa": 0.05})
    del d["sigma"]
    with pytest.raises(ValidationError, match="sigma"):
        pm.from_dict(pm.BankParams, d)
    with pytest.raises(ValidationError, match="n_x"):
        pm.from_dict(pm.RetireGrid, {"n_x": math.nan})


def test_grid_json_round_trip():
    for grid in (pm.BankGrid(x_lo=-0.03, stretching="geometric"), pm.RetireGrid(n_x=61)):
        assert pm.from_json(pm.to_json(grid)) == grid


@settings(max_examples=60, deadline=None)
@given(mu=st.floats(-0.05, 0.15), alpha=st.floats(-0.05, 0.2),
       sigma=st.floats(0.005, 0.3), spread=st.floats(0.001, 0.3),
       omega=st.floats(0.0, 1.0), kappa=st.floats(1e-4, 0.2))
def test_validate_is_idempotent_on_valid_records(mu, alpha, sigma, spread,
                                                 omega, kappa):
    p = pm.BankParams(mu=mu, alpha=alpha, sigma=sigma,
                      delta=max(mu, alpha) + spread, omega=omega,
                      kappa_min=kappa, noise_m=0.01, rho=-0.3)
    assert pm.from_dict(pm.BankParams, dataclasses.asdict(p)) == p
    assert math.isclose(pm.from_json(pm.to_json(p)).delta, p.delta)
