"""Accountant arithmetic against a high-precision oracle and its own inverse."""

import math

import mpmath as mp
import numpy as np
import pytest

from dpfedsim import PrivacyParams, compose_rounds, epsilon_of, sigma_for_target
from dpfedsim.accountant import FORMULA_TAG
from dpfedsim.errors import DomainError

mp.mp.dps = 50


def mp_epsilon(q, sigma, epochs, delta):
    """Independent evaluation at 50 decimal digits."""
    q, sigma, delta = mp.mpf(repr(q)), mp.mpf(repr(sigma)), mp.mpf(repr(delta))
    return float(q / sigma * mp.sqrt(2 * epochs * mp.log(1 / delta)))


def test_reference_point_against_high_precision():
    eps = epsilon_of(PrivacyParams(0.01, 1.0, 5, 1e-4))
    assert eps == pytest.approx(0.0959705, abs=1e-6)
    assert eps == pytest.approx(mp_epsilon(0.01, 1.0, 5, 1e-4), abs=1e-15)


def test_zero_epochs_zero_epsilon():
    assert epsilon_of(PrivacyParams(0.3, 2.0, 0, 1e-4)) == 0.0


def test_doubling_sigma_halves_epsilon_exactly():
    for q, e, d in [(0.1, 5, 1e-4), (0.01, 25, 1e-5), (1.0, 1, 1e-3)]:
        for sigma in (0.25, 1.0, 3.0):
            a = epsilon_of(PrivacyParams(q, sigma, e, d))
            b = epsilon_of(PrivacyParams(q, 2 * sigma, e, d))
            assert b == a / 2  # exact: same product scaled by a power of two


def test_domain_errors():
    with pytest.raises(DomainError):
        PrivacyParams(0.1, 1.0, 5, delta=1.0)
    with pytest.raises(DomainError):
        PrivacyParams(0.1, 1.0, 5, delta=0.0)
    with pytest.raises(DomainError):
        epsilon_of(PrivacyParams(0.1, 0.0, 5, 1e-4))
    with pytest.raises(DomainError):
        PrivacyParams(0.0, 1.0, 5, 1e-4)
    with pytest.raises(DomainError):
        PrivacyParams(1.5, 1.0, 5, 1e-4)


def test_sigma_for_reference_budgets():
    # the two operating points quoted for the strict and federated budgets
    assert sigma_for_target(0.1, 5, 1e-4, 1.33) == pytest.approx(0.7215828, abs=1e-6)
    assert sigma_for_target(0.1, 5, 1e-4, 0.65) == pytest.approx(1.4764695, abs=1e-6)


def test_sigma_target_round_trip_grid():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        q = float(rng.uniform(0.001, 1.0))
        epochs = int(rng.integers(1, 200))
        delta = float(10.0 ** rng.uniform(-8, -2))
        target = float(rng.uniform(0.05, 8.0))
        sigma = sigma_for_target(q, epochs, delta, target)
        back = epsilon_of(PrivacyParams(q, sigma, epochs, delta))
        worst = max(worst, abs(back - target) / target)
    assert worst <= 1e-12


def test_inverse_identity_from_forward():
    params = PrivacyParams(0.37, 1.7, 42, 1e-5)
    eps = epsilon_of(params)
    sigma = sigma_for_target(0.37, 42, 1e-5, eps)
    assert sigma == pytest.approx(1.7, rel=1e-12)


def test_sigma_target_domain_errors():
    with pytest.raises(DomainError):
        sigma_for_target(0.1, 5, 1e-4, 0.0)
    with pytest.raises(DomainError):
        sigma_for_target(0.1, 0, 1e-4, 1.0)


def test_monotonicity_grids():
    qs = np.linspace(0.01, 1.0, 10)
    es = np.arange(1, 11)
    sigmas = np.linspace(0.2, 5.0, 10)
    for e in es:
        for s in sigmas:
            vals = [epsilon_of(PrivacyParams(q, s, int(e), 1e-4)) for q in qs]
            assert np.all(np.diff(vals) > 0)
    for q in qs:
        for s in sigmas:
            vals = [epsilon_of(PrivacyParams(q, s, int(e), 1e-4)) for e in es]
            assert np.all(np.diff(vals) > 0)
    for q in qs:
        for e in es:
            vals = [epsilon_of(PrivacyParams(q, s, int(e), 1e-4)) for s in sigmas]
            assert np.all(np.diff(vals) < 0)


def test_compose_zero_and_single_round():
    per_round = PrivacyParams(0.05, 1.2, 5, 1e-4)
    assert compose_rounds(per_round, 0).epsilon == 0.0
    assert compose_rounds(per_round, 1).epsilon == epsilon_of(per_round)


def test_compose_equals_flat_total():
    per_round = PrivacyParams(0.05, 1.2, 5, 1e-4)
    composed = compose_rounds(per_round, 5).epsilon
    flat = epsilon_of(PrivacyParams(0.05, 1.2, 25, 1e-4))
    assert composed == flat  # same expression tree, bit-identical


def test_report_fields():
    report = compose_rounds(PrivacyParams(0.1, 1.0, 2, 1e-4), 3)
    assert report.formula == FORMULA_TAG == "tls-sqrt-composition"
    assert report.rounds == 3
    assert report.per_round_epochs == 2
    assert report.delta == 1e-4
    assert report.epsilon == pytest.approx(mp_epsilon(0.1, 1.0, 6, 1e-4), abs=1e-15)


def test_sigma_for_target_is_the_formula_bit_for_bit():
    # pinned before sigma_for_target evaluated epsilon_of's expression itself
    for q in (0.001, 0.0123, 0.1, 0.37, 1.0):
        for epochs in (1, 2, 5, 42, 199):
            for delta in (1e-8, 1e-5, 1e-4, 0.003):
                for target in (0.05, 0.65, 1.0, 1.33, 7.9):
                    expected = (q / target) * math.sqrt(2.0 * epochs * math.log(1.0 / delta))
                    assert sigma_for_target(q, epochs, delta, target) == expected
