"""Theta-networks: competitor construction, closed-form energy, monotonicity,
drop bound, double bubble.

Tags: [DERIVED] independent oracle; [PAPER] fixed reference; [TRIVIAL] direct.
"""

import math

import numpy as np
import pytest

from elastica import curves, networks
from elastica.elliptic import complete_E, complete_K, constants
from elastica.random_shapes import random_drop


def test_formula_matches_discrete_network():
    """[DERIVED] closed-form energy vs the discretized three-curve sum."""
    for m in (0.3, 0.5, 0.75):
        net = networks.build_wavelike_network(m, 512)
        disc = networks.theta_energy(net)
        form = networks.network_energy_formula(m)
        assert disc == pytest.approx(form, rel=2e-3)


def test_formula_closed_form_value():
    """[DERIVED] formula = 2 sqrt(32 (2E+K)(E-(1-m)K)) recomputed inline."""
    m = 0.6
    K, E = complete_K(m), complete_E(m)
    want = 2.0 * math.sqrt(32.0 * (2 * E + K) * (E - (1 - m) * K))
    assert networks.network_energy_formula(m) == pytest.approx(want, rel=1e-14)


def test_junction_angle_at_three_quarters():
    """[PAPER] arccos(2m-1) equals pi/3 at m = 3/4."""
    assert networks.wavelike_junction_angle(0.75) == pytest.approx(
        math.pi / 3, abs=1e-12)


def test_junction_angle_decreasing_to_phi_star():
    """[PAPER] phi_m strictly decreasing on (1/2, m*) with phi_{m*} = phi*."""
    cst = constants()
    grid = np.linspace(0.5 + 1e-6, cst.m_star, 200)
    vals = [networks.wavelike_junction_angle(m) for m in grid]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(cst.phi_star, abs=1e-12)


def test_network_angle_spec_is_symmetric_at_three_quarters():
    """[PAPER] all pairwise junction angles are 2 pi / 3 at m = 3/4."""
    net = networks.build_wavelike_network(0.75, 256)
    np.testing.assert_allclose(net.angle_spec, 2 * math.pi / 3, atol=1e-12)


def test_network_rescale_balances_length_and_bending():
    """[DERIVED] after the sqrt(B/L) rescale, E = 2 sqrt(L B) so L = B."""
    from elastica.energy import bending_energy, length
    net = networks.build_wavelike_network(0.5, 512)
    L = sum(length(c) for c in net.curves)
    B = sum(bending_energy(c) for c in net.curves)
    assert L == pytest.approx(B, rel=1e-3)


def test_build_rejects_m_at_or_above_m_star():
    """[TRIVIAL] the connecting segment degenerates at m*."""
    cst = constants()
    with pytest.raises(ValueError):
        networks.build_wavelike_network(cst.m_star, 256)
    with pytest.raises(ValueError):
        networks.build_wavelike_network(0.9, 256)


def test_monotonicity_certificates():
    """[PAPER] f' and g' closed forms positive and matching differences.
    [DERIVED] f = E h and g = K h (h = E - (1-m)K) by central differences."""
    rep = networks.monotonicity_certificates(np.linspace(0.05, 0.8, 30))
    assert rep.all_positive
    h = lambda x: complete_E(x) - (1.0 - x) * complete_K(x)
    dm = 1e-6
    relerr = []
    for fn, exact in ((lambda x: complete_E(x) * h(x), rep.f_prime),
                      (lambda x: complete_K(x) * h(x), rep.g_prime)):
        for m, want in zip(rep.m_grid, exact):
            fd = (fn(m + dm) - fn(m - dm)) / (2.0 * dm)
            relerr.append(abs(fd - want) / abs(want))
    assert max(relerr) < 1e-5


@pytest.mark.parametrize("m", [0.0, 1.0, -0.5, math.nan])
def test_m_outside_unit_interval_is_rejected_by_the_elliptic_check(m):
    """[TRIVIAL] the junction angle and the closed-form energy reject m with
    the elliptic module's one check of m in (0, 1)."""
    for fn in (networks.wavelike_junction_angle, networks.network_energy_formula):
        with pytest.raises(ValueError, match="^parameter m must lie in the open interval"):
            fn(m)


def test_h_prime_is_half_K():
    """[PAPER] h = E - (1-m)K has h' = K/2 (finite-difference oracle)."""
    for m in (0.2, 0.5, 0.8):
        dm = 1e-6
        h = lambda x: complete_E(x) - (1 - x) * complete_K(x)
        fd = (h(m + dm) - h(m - dm)) / (2 * dm)
        assert fd == pytest.approx(complete_K(m) / 2.0, rel=1e-6)


def test_formula_monotone_and_limits():
    """[PAPER] strictly increasing, with limit 4 sqrt(varpi*) at m*."""
    cst = constants()
    grid = np.linspace(1e-3, 0.999, 500)
    vals = [networks.network_energy_formula(m) for m in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert networks.network_energy_formula(cst.m_star) == pytest.approx(
        4.0 * math.sqrt(cst.varpi_star), rel=1e-12)


def test_dichotomy_number():
    """[PAPER] formula(3/4) < 4 sqrt(varpi*): the competitor beats two drops."""
    cst = constants()
    assert networks.network_energy_formula(0.75) < 4.0 * math.sqrt(cst.varpi_star)


def test_theta_energy_requires_shared_junctions():
    """[TRIVIAL] curves must run junction to junction."""
    a = curves.segment(np.zeros(2), np.array([1.0, 0.0]), 16)
    b = curves.segment(np.zeros(2), np.array([1.0, 1.0]), 16)
    with pytest.raises(ValueError):
        networks.ThetaNetwork(curves=(a, a, b), junction_a=np.zeros(2),
                              junction_b=np.array([1.0, 0.0]),
                              angle_spec=(1.0, 1.0, 1.0))


def test_drop_margin_zero_at_optimal_half_leaf():
    """[PAPER] half-leaf scaled to length sqrt(varpi*) attains the bound."""
    cst = constants()
    hl = curves.canonical_half_leaf(1024)
    scale = math.sqrt(cst.varpi_star) / hl.length()
    opt = curves.DiscreteCurve(hl.points * scale, closed=False)
    assert abs(networks.drop_margin(opt, tol=1e-6)) / (
        2 * math.sqrt(cst.varpi_star)) < 5e-3


def test_drop_margin_positive_off_optimum():
    """[TRIVIAL] AM-GM is strict away from B = L: double the length."""
    cst = constants()
    hl = curves.canonical_half_leaf(512)
    scale = 2.0 * math.sqrt(cst.varpi_star) / hl.length()
    big = curves.DiscreteCurve(hl.points * scale, closed=False)
    assert networks.drop_margin(big, tol=1e-6) > 0


@pytest.mark.parametrize("seed", [0, 17, 42])
def test_drop_margin_positive_random(seed):
    """[DERIVED] random smooth drops have positive margin."""
    assert networks.drop_margin(random_drop(seed)) > 0


def test_drop_margin_input_validation():
    """[TRIVIAL] closed curves and split endpoints are rejected."""
    with pytest.raises(ValueError):
        networks.drop_margin(curves.circle(2, 1.0, 64))
    with pytest.raises(ValueError):
        networks.drop_margin(curves.segment(np.zeros(2), np.ones(2), 16))


def test_double_bubble_value():
    """[PAPER] E at alpha = 3 pi / 4."""
    assert networks.double_bubble_energy(3 * math.pi / 4) == pytest.approx(
        20.214, abs=0.01)


def test_double_bubble_domain():
    """[TRIVIAL] alpha restricted to (0, pi)."""
    with pytest.raises(ValueError):
        networks.double_bubble_energy(0.0)
    with pytest.raises(ValueError):
        networks.double_bubble_energy(math.pi)


def test_generalized_junction_feasibility_threshold():
    """[PAPER] feasible iff alpha < pi - phi*."""
    cst = constants()
    thr = math.pi - cst.phi_star
    assert networks.generalized_junction_feasible(thr - 1e-6)
    assert not networks.generalized_junction_feasible(thr + 1e-6)
    assert not networks.generalized_junction_feasible(3 * math.pi / 4)
