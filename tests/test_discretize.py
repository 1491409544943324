"""Binning and prior discretization against quadrature oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from shipintent.discretize import (
    Channel,
    Discretization,
    DiscretizationError,
    IntentionPriors,
    TruncNorm,
    discretize_truncnorm,
    real_to_bin,
    situation_prior,
    threshold_prior_masses,
)

THRESHOLDS = (
    "safe_cpa",
    "safe_front_cross",
    "safe_midpoint",
    "ample_time",
    "safe_ground_side",
    "safe_ground_front",
)


def quad_masses(mu, sigma, lo, hi, bins):
    def pdf(x):
        return math.exp(-0.5 * ((x - mu) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))

    edges = np.linspace(lo, hi, bins + 1)
    window, _ = quad(pdf, lo, hi, epsabs=1e-14, epsrel=1e-13)
    raw = [quad(pdf, a, b, epsabs=1e-14, epsrel=1e-13)[0] for a, b in zip(edges[:-1], edges[1:])]
    return np.asarray(raw) / window


# -- truncated-normal mass vectors --------------------------------------------


def test_symmetric_two_bin_split():
    np.testing.assert_allclose(discretize_truncnorm(50.0, 7.0, 0.0, 100.0, 2), [0.5, 0.5],
                               atol=1e-15)


def test_reaction_time_prior_matches_quadrature():
    got = discretize_truncnorm(2527.0, 1120.0, 0.0, 5000.0, 10)
    want = quad_masses(2527.0, 1120.0, 0.0, 5000.0, 10)
    np.testing.assert_allclose(got, want, atol=1e-9)
    # anchor a few entries so a silent oracle regression cannot hide
    assert got[0] == pytest.approx(0.0237432278, abs=1e-9)
    assert got[5] == pytest.approx(0.1777810126, abs=1e-9)
    assert got[9] == pytest.approx(0.0261168102, abs=1e-9)


def test_mass_sums_telescope_to_one():
    rng = np.random.default_rng(7)
    for _ in range(100):
        lo = rng.uniform(-100.0, 100.0)
        hi = lo + rng.uniform(1.0, 5000.0)
        mu = rng.uniform(lo - 2000.0, hi + 2000.0)
        sigma = rng.uniform(1.0, 2000.0)
        bins = int(rng.integers(1, 40))
        masses = discretize_truncnorm(mu, sigma, lo, hi, bins)
        assert abs(masses.sum() - 1.0) <= 1e-12
        assert (masses >= 0.0).all()


def test_far_left_mean_piles_into_first_bin():
    masses = discretize_truncnorm(-25.0, 5.0, 0.0, 100.0, 10)
    assert masses[0] > 0.999
    assert masses.sum() == pytest.approx(1.0, abs=1e-12)


def test_degenerate_window_is_an_error():
    with pytest.raises(DiscretizationError):
        discretize_truncnorm(0.0, 1.0, 60.0, 80.0, 4)  # window mass underflows
    with pytest.raises(DiscretizationError):
        discretize_truncnorm(0.0, 1.0, 10.0, 10.0, 4)
    with pytest.raises(DiscretizationError):
        discretize_truncnorm(0.0, -1.0, 0.0, 10.0, 4)
    with pytest.raises(DiscretizationError):
        discretize_truncnorm(0.0, 1.0, 0.0, 10.0, 0)


# -- channels and binning ------------------------------------------------------


def test_channel_geometry():
    ch = Channel(1500.0, bins=10)
    assert ch.width == 150.0
    np.testing.assert_allclose(ch.edges(), np.arange(0.0, 1501.0, 150.0))


def test_channel_validation():
    with pytest.raises(DiscretizationError):
        Channel(0.0)
    with pytest.raises(DiscretizationError):
        Channel(100.0, bins=1)


def test_real_to_bin_interior_and_edges():
    ch = Channel(1500.0, bins=10)
    assert real_to_bin(0.0, ch) == 0
    assert real_to_bin(149.999, ch) == 0
    assert real_to_bin(150.0, ch) == 1  # shared edge belongs to the upper bin
    assert real_to_bin(1499.0, ch) == 9
    assert real_to_bin(1500.0, ch) == 9  # top edge clamps into the last bin
    assert real_to_bin(1600.0, ch) == 9  # saturation
    assert real_to_bin(math.inf, ch) == 9


def test_real_to_bin_rejects_bad_values():
    ch = Channel(100.0, bins=4)
    with pytest.raises(DiscretizationError):
        real_to_bin(-0.001, ch)
    with pytest.raises(DiscretizationError):
        real_to_bin(math.nan, ch)


def test_with_bins_changes_resolution_only():
    disc = Discretization().with_bins(4)
    for name in ("cpa", "front_cross", "midpoint", "time_to_cpa", "ground_side", "ground_front"):
        ch = getattr(disc, name)
        assert ch.bins == 4
        assert ch.upper == getattr(Discretization(), name).upper


# -- priors ----------------------------------------------------------------------


def test_default_priors_cover_their_channels():
    priors, disc = IntentionPriors(), Discretization()
    for name in THRESHOLDS:
        masses = threshold_prior_masses(priors, disc, name)
        assert len(masses) == 10
        assert abs(masses.sum() - 1.0) <= 1e-12


def test_default_values_are_pinned():
    # regression anchor: the shipped defaults are part of the contract
    priors, disc = IntentionPriors(), Discretization()
    assert priors.safe_cpa == TruncNorm(808.0, 430.0, 0.0, 1500.0)
    assert priors.safe_front_cross == TruncNorm(1411.0, 472.0, 0.0, 2000.0)
    assert priors.safe_midpoint == TruncNorm(249.0, 148.0, 0.0, 600.0)
    assert priors.ample_time == TruncNorm(2527.0, 1120.0, 0.0, 5000.0)
    assert priors.safe_ground_side == TruncNorm(436.0, 124.0, 0.0, 700.0)
    assert priors.safe_ground_front == TruncNorm(535.0, 120.0, 0.0, 800.0)
    assert priors.colregs_compliant == 0.98
    assert priors.good_seamanship == 0.99
    assert priors.ground_intent == 0.01
    assert priors.unmodeled == 0.01
    assert priors.priority == (0.05, 0.90, 0.05)
    assert priors.situation_concentration == 0.92
    uppers = {name: getattr(disc, name).upper for name in
              ("cpa", "front_cross", "midpoint", "time_to_cpa", "ground_side", "ground_front")}
    assert uppers == {
        "cpa": 1500.0,
        "front_cross": 2000.0,
        "midpoint": 600.0,
        "time_to_cpa": 5000.0,
        "ground_side": 700.0,
        "ground_front": 800.0,
    }
    assert all(getattr(disc, name).bins == 10 for name in uppers)


def test_prior_masses_match_quadrature():
    priors, disc = IntentionPriors(), Discretization()
    spec = priors.safe_cpa
    got = threshold_prior_masses(priors, disc, "safe_cpa")
    want = quad_masses(spec.mu, spec.sigma, spec.lo, spec.hi, disc.cpa.bins)
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_window_channel_mismatch_is_rejected():
    priors = IntentionPriors(safe_cpa=TruncNorm(808.0, 430.0, 0.0, 999.0))
    with pytest.raises(DiscretizationError):
        threshold_prior_masses(priors, Discretization(), "safe_cpa")


def test_truncnorm_validation():
    with pytest.raises(DiscretizationError):
        TruncNorm(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(DiscretizationError):
        TruncNorm(0.0, 1.0, 2.0, 1.0)


def test_intention_priors_validation():
    with pytest.raises(DiscretizationError):
        IntentionPriors(priority=(0.3, 0.3, 0.3))
    with pytest.raises(DiscretizationError):
        IntentionPriors(colregs_compliant=1.5)
    with pytest.raises(DiscretizationError):
        IntentionPriors(situation_concentration=0.0)


def test_negative_priority_entry_is_rejected():
    # sums to 1, but would give a priority marginal outside [0, 1]
    with pytest.raises(DiscretizationError, match="priority needs three finite entries"):
        IntentionPriors(priority=(1.5, -0.5, 0.0))


def test_nan_priority_entry_is_rejected():
    # abs(nan - 1) > 1e-9 is false, so the sum check alone lets this through
    with pytest.raises(DiscretizationError, match="priority needs three finite entries"):
        IntentionPriors(priority=(math.nan, 0.5, 0.5))


def test_priority_needs_one_entry_per_state():
    # a two-entry priority would give a three-state node a two-state prior
    with pytest.raises(DiscretizationError, match="priority needs three finite entries"):
        IntentionPriors(priority=(0.5, 0.5))


def test_truncnorm_rejects_nan_mean():
    with pytest.raises(DiscretizationError, match="finite"):
        TruncNorm(math.nan, 100.0, 0.0, 1500.0)


def test_truncnorm_rejects_infinite_sigma():
    with pytest.raises(DiscretizationError, match="finite"):
        TruncNorm(800.0, math.inf, 0.0, 1500.0)


def test_channel_rejects_nan_upper():
    with pytest.raises(DiscretizationError, match="finite"):
        Channel(math.nan)


def test_channel_rejects_infinite_upper():
    with pytest.raises(DiscretizationError, match="finite"):
        Channel(math.inf)


def test_situation_prior_anchors_measured_state():
    vec = situation_prior(2)
    np.testing.assert_allclose(vec, [0.02, 0.02, 0.92, 0.02, 0.02])
    assert vec.sum() == pytest.approx(1.0, abs=1e-12)
    assert situation_prior(4).argmax() == 4
    with pytest.raises(DiscretizationError):
        situation_prior(5)
