"""Elliptic backend against the mpmath oracle and structural properties.

Tags: [DERIVED] = checked against an independent oracle (mpmath, finite
differences); [PAPER] = fixed reference value; [TRIVIAL] = direct identity.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from elastica import curves, elliptic

mpmath.mp.dps = 30

M_GRID = [0.01, 0.1, 0.25, 0.5, 0.75, 0.826, 0.9, 0.99]
X_GRID = [-2.0, -0.3, 0.0, 0.4, 1.0, math.pi / 2, 2.5, 7.0]


@pytest.mark.parametrize("m", M_GRID)
def test_complete_K_against_mpmath(m):
    """[DERIVED] AGM complete integral vs mpmath.ellipk."""
    assert elliptic.complete_K(m) == pytest.approx(float(mpmath.ellipk(m)), rel=1e-14)


@pytest.mark.parametrize("m", M_GRID)
def test_complete_E_against_mpmath(m):
    """[DERIVED] AGM complete integral vs mpmath.ellipe."""
    assert elliptic.complete_E(m) == pytest.approx(float(mpmath.ellipe(m)), rel=1e-14)


@pytest.mark.parametrize("m", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("x", X_GRID)
def test_incomplete_F_against_mpmath(m, x):
    """[DERIVED] incomplete first kind vs mpmath.ellipf (any real argument)."""
    assert elliptic.incomplete_F(x, m) == pytest.approx(
        float(mpmath.ellipf(x, m)), rel=1e-11, abs=1e-12)


@pytest.mark.parametrize("m", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("x", X_GRID)
def test_incomplete_E_against_mpmath(m, x):
    """[DERIVED] incomplete second kind vs mpmath.ellipe(x, m)."""
    assert elliptic.incomplete_E(x, m) == pytest.approx(
        float(mpmath.ellipe(x, m)), rel=1e-11, abs=1e-12)


@given(st.floats(0.05, 0.95), st.floats(-6.0, 6.0))
def test_amplitude_inverts_F(m, x):
    """[DERIVED] am(F(x, m), m) = x (round trip through the inversion)."""
    u = elliptic.incomplete_F(x, m)
    assert elliptic.amplitude(u, m) == pytest.approx(x, abs=1e-10)


@given(st.floats(0.05, 0.95), st.floats(-3.0, 3.0))
def test_F_quasi_periodicity(m, x):
    """[TRIVIAL] F(x + pi, m) = F(x, m) + 2 K(m)."""
    assert elliptic.incomplete_F(x + math.pi, m) == pytest.approx(
        elliptic.incomplete_F(x, m) + 2.0 * elliptic.complete_K(m), rel=1e-12)


@given(st.floats(0.05, 0.95), st.floats(-8.0, 8.0))
def test_cn_sn_pythagorean(m, u):
    """[TRIVIAL] cn^2 + sn^2 = 1."""
    c = elliptic.cn(u, m)
    s = elliptic.sn(u, m)
    assert c * c + s * s == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("m", [0.3, 0.8261147659849704])
@pytest.mark.parametrize("u", [-3.0, -0.5, 0.0, 0.7, 2.0, 5.0])
def test_cn_against_mpmath(m, u):
    """[DERIVED] cn via amplitude vs mpmath.ellipfun."""
    want = float(mpmath.ellipfun("cn", u, m=m))
    assert elliptic.cn(u, m) == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("m", M_GRID)
def test_dK_dm_finite_difference(m):
    """[DERIVED] closed-form dK/dm vs central difference."""
    dm = 1e-6 * min(m, 1.0 - m)
    fd = (elliptic.complete_K(m + dm) - elliptic.complete_K(m - dm)) / (2 * dm)
    assert elliptic.dK_dm(m) == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("m", M_GRID)
def test_dE_dm_finite_difference(m):
    """[DERIVED] closed-form dE/dm vs central difference."""
    dm = 1e-6 * min(m, 1.0 - m)
    fd = (elliptic.complete_E(m + dm) - elliptic.complete_E(m - dm)) / (2 * dm)
    assert elliptic.dE_dm(m) == pytest.approx(fd, rel=1e-6)


@given(st.floats(0.01, 0.98))
def test_K_strictly_increasing(m):
    """[TRIVIAL] K is strictly increasing in the parameter."""
    assert elliptic.complete_K(m + 0.01) > elliptic.complete_K(m)


def test_K_minus_2E_changes_sign_once():
    """[DERIVED] K - 2E has exactly one sign change on a fine grid."""
    import numpy as np
    m = np.linspace(0.01, 0.99, 2000)
    vals = [elliptic.complete_K(x) - 2.0 * elliptic.complete_E(x) for x in m]
    flips = sum(1 for a, b in zip(vals, vals[1:]) if a * b < 0)
    assert flips == 1


def test_m_star_residual():
    """[PAPER] |K(m*) - 2E(m*)| below 1e-12 at the solved root."""
    c = elliptic.constants()
    assert abs(elliptic.complete_K(c.m_star) - 2.0 * elliptic.complete_E(c.m_star)) < 1e-12


def test_constants_are_the_derived_bundle_to_the_bit():
    """[DERIVED] the bundle `constants()` holds as data is the one
    `solve_m_star` derives with the installed scipy, bit for bit."""
    assert elliptic.constants() == elliptic.solve_m_star()


def test_constants_reference_values():
    """[PAPER] published decimal values of the constants bundle."""
    c = elliptic.constants()
    assert c.m_star == pytest.approx(0.8261, abs=5e-5)
    assert c.K_star == pytest.approx(2.3210, abs=1e-4)
    assert c.varpi_star == pytest.approx(28.109, abs=5e-3)
    assert c.phi_star_degrees == pytest.approx(49.2901, abs=5e-4)
    # structural identities of the bundle itself
    assert c.K_star == pytest.approx(2.0 * c.E_star, rel=1e-14)
    assert c.varpi_star == pytest.approx(
        32.0 * (2.0 * c.m_star - 1.0) * c.E_star ** 2, rel=1e-14)
    assert c.phi_star == pytest.approx(math.acos(2.0 * c.m_star - 1.0), rel=1e-12)


def test_phi_star_between_pi4_and_pi3():
    """[PAPER] pi/4 < phi* < pi/3."""
    c = elliptic.constants()
    assert math.pi / 4 < c.phi_star < math.pi / 3


def test_amplitude_rejects_bad_parameter():
    """[TRIVIAL] domain validation."""
    with pytest.raises(ValueError):
        elliptic.complete_K(1.0)
    with pytest.raises(ValueError):
        elliptic.amplitude(1.0, -0.1)


@pytest.mark.parametrize("name, arg", [
    ("amplitude", "u"), ("cn", "u"), ("sn", "u"), ("incomplete_F", "x"), ("incomplete_E", "x")])
@pytest.mark.parametrize("value, shown", [
    (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"), ([1.0, math.nan], "nan"),
    (np.array([[0.5, 0.25], [-math.inf, 1.0]]), "-inf")])
def test_non_finite_arguments_are_refused(name, arg, value, shown):
    """[TRIVIAL] a nan or an infinity in the argument fails with one
    ValueError that names the parameter: amplitude(inf) and incomplete_E(nan)
    returned nan, incomplete_F(inf) warned, and sn([1, nan]) returned a nan
    element."""
    with pytest.raises(ValueError, match=f"^parameter {arg} must be finite, got {shown}$"):
        getattr(elliptic, name)(value, 0.5)


# Exact ellipj amplitudes on the closed figure-eight grids where scipy 1.17.1's
# ellipeinc/ellipkinc are off by up to 0.07/0.15; nearby phases are fine.
_M_STAR = 0.8261147659849704
_HAZARD_PHASES = [-1.4168263760496582, -1.246391981538908]


@pytest.mark.parametrize("phi", _HAZARD_PHASES)
def test_incomplete_at_hazard_phases(phi):
    """[DERIVED] incomplete F/E vs mpmath at the pinned hazard amplitudes."""
    assert elliptic.incomplete_F(phi, _M_STAR) == pytest.approx(
        float(mpmath.ellipf(phi, _M_STAR)), rel=0, abs=1e-12)
    assert elliptic.incomplete_E(phi, _M_STAR) == pytest.approx(
        float(mpmath.ellipe(phi, _M_STAR)), rel=0, abs=1e-12)


def _mp_elastica_point(u, m):
    """(u - 2E(am u), 2 sqrt(m) cn u) in mpmath, with am u = k pi + am(v) for
    the reduced v = u - 2kK in [-K, K]."""
    u, m = mpmath.mpf(u), mpmath.mpf(m)
    K = mpmath.ellipk(m)
    k = mpmath.nint(u / (2 * K))
    v = u - 2 * k * K
    sn, cn = mpmath.ellipfun("sn", v, m=m), mpmath.ellipfun("cn", v, m=m)
    am = k * mpmath.pi + mpmath.atan2(sn, cn)
    return (float(u - 2 * mpmath.ellipe(am, m)),
            float(2 * mpmath.sqrt(m) * mpmath.cos(am)))


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_figure_eight_grid_against_mpmath(N):
    """[DERIVED] every sample of sample_figure_eight(N, 512), the grid the tests
    and criteria use, vs the mpmath closed form at u = s - K*."""
    c = elliptic.constants()
    curve = curves.sample_figure_eight(N, 512)
    s = np.linspace(0.0, 2.0 * N * c.K_star, 512, endpoint=not curve.closed)
    with mpmath.workdps(20):
        want = np.array([_mp_elastica_point(x - c.K_star, c.m_star) for x in s])
    np.testing.assert_allclose(curve.points, want, rtol=0, atol=1e-12)


def test_wavelike_grid_against_mpmath():
    """[DERIVED] sample_wavelike(0.6, -K, K, 100) vs the mpmath closed form,
    reflected: the wavelike point at s is -(the elastica point at s)."""
    m = 0.6
    K = elliptic.complete_K(m)
    curve = curves.sample_wavelike(m, -K, K, 100)
    with mpmath.workdps(20):
        want = -np.array([_mp_elastica_point(s, m) for s in np.linspace(-K, K, 100)])
    np.testing.assert_allclose(curve.points, want, rtol=0, atol=1e-12)


def test_array_calls_match_scalar_calls():
    """[TRIVIAL] array calls equal the scalar calls elementwise, bit for bit."""
    c = elliptic.constants()
    u = np.linspace(0.0, 8.0 * c.K_star, 512, endpoint=False) - c.K_star
    am = elliptic.amplitude(u, c.m_star)
    assert am.tolist() == [elliptic.amplitude(x, c.m_star) for x in u]
    e = elliptic.incomplete_E(am, c.m_star)
    assert e.tolist() == [elliptic.incomplete_E(x, c.m_star) for x in am]
    assert isinstance(elliptic.amplitude(0.3, c.m_star), float)
    assert isinstance(elliptic.incomplete_E(0.3, c.m_star), float)
