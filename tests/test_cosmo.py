import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracriccati import cosmo as co
from fracriccati import odeverify as ov
from fracriccati.errors import BranchZeroError
from fracriccati.fracops import adaptive_simpson, frac_const


def h_at(cp, eta: float, branch: int = 1) -> float:
    """H at one conformal time: a one-element cosmo.hubble table."""
    h, _ = co.hubble([cp], branch, np.array([float(eta)]))
    return float(h[0, 0])


def ratio_at(cp, eta: float, eta_ref: float, branch: int = 1) -> float:
    """One scale-factor ratio: a one-element cosmo.scale_factor call."""
    return float(co.scale_factor(cp, np.array([float(eta)]), eta_ref, branch)[0])


def scale_factor_by_quadrature(
    cp, eta: float, eta_ref: float, tol: float = 1e-9, branch: int = 1
) -> float:
    """exp of the Hubble integral from eta_ref up to eta > eta_ref by
    adaptive quadrature: the cross-check on scale_factor's closed form."""

    def h_of(t: float) -> float:
        h, pole = co.hubble([cp], branch, np.array([t]))
        assert not pole[0, 0], f"Hubble pole hit at eta = {t}"
        return float(h[0, 0])

    return math.exp(adaptive_simpson(h_of, eta_ref, eta, tol))


class TestCOfGamma:
    def test_radiation(self):
        assert co.c_of_gamma(4.0 / 3.0) == pytest.approx(1.0, abs=1e-15)

    def test_dust(self):
        assert co.c_of_gamma(1.0) == pytest.approx(0.5, abs=1e-15)

    def test_root_flagged_downstream(self):
        c = co.c_of_gamma(2.0 / 3.0)
        assert c == 0.0
        with pytest.raises(ValueError):
            co.CosmoParams(k=1, delta=1.0, c=c)


class TestCosmoParams:
    def test_gamma_to_c(self):
        cp = co.CosmoParams(k=1, delta=0.5, gamma_index=4.0 / 3.0)
        assert cp.c == pytest.approx(1.0, abs=1e-15)

    def test_consistency_check(self):
        co.CosmoParams(k=1, delta=1.0, c=1.0, gamma_index=4.0 / 3.0)
        with pytest.raises(ValueError):
            co.CosmoParams(k=1, delta=1.0, c=1.1, gamma_index=4.0 / 3.0)

    def test_curvature_validation(self):
        with pytest.raises(ValueError):
            co.CosmoParams(k=2, delta=1.0, c=1.0)

    def test_needs_some_input(self):
        with pytest.raises(ValueError):
            co.CosmoParams(k=1, delta=1.0)

    @pytest.mark.parametrize("k, c", [(1, 1e200), (-1, 1e200), (1, 1e-200), (-1, -1e-200)])
    def test_curved_needs_c_squared_in_float_range(self, k, c):
        with pytest.raises(ValueError, match=r"c\^2"):
            co.CosmoParams(k=k, delta=0.5, c=c)

    def test_flat_takes_any_nonzero_c(self):
        for c in (1e200, 1e-200):
            assert co.CosmoParams(k=0, delta=0.5, c=c).c == c


class TestHubble:
    def test_closed_classical(self):
        cp = co.CosmoParams(k=1, delta=1.0, c=1.0)
        h, pole = co.hubble([cp], 1, np.array([math.pi / 4.0]))
        assert h[0, 0] == pytest.approx(1.0, rel=1e-12)
        assert h.shape == pole.shape == (1, 1) and not pole.any()

    def test_open_classical(self):
        cp = co.CosmoParams(k=-1, delta=1.0, c=1.0)
        assert h_at(cp, 1.0) == pytest.approx(1.3130352854993313, rel=1e-12)

    def test_classical_reduction_sweeps(self):
        for c in (0.5, 1.0, 2.0):
            cp = co.CosmoParams(k=1, delta=1.0, c=c)
            etas = np.linspace(0.05, math.pi / (2.0 * c), 40, endpoint=False)[1:]
            h, _ = co.hubble([cp], 1, etas)
            for eta, got in zip(etas.tolist(), h[0].tolist()):
                want = math.cos(c * eta) / math.sin(c * eta)
                assert abs(got - want) <= 1e-8 * (1.0 + abs(want))
            cp = co.CosmoParams(k=-1, delta=1.0, c=c)
            etas = np.linspace(0.05, 5.0, 40)
            h, _ = co.hubble([cp], 1, etas)
            for eta, got in zip(etas.tolist(), h[0].tolist()):
                want = math.cosh(c * eta) / math.sinh(c * eta)
                assert abs(got - want) <= 1e-8 * (1.0 + want)

    def test_fractional_against_integration(self):
        cp = co.CosmoParams(k=1, delta=0.5, c=1.0)
        rp = cp.riccati_params()
        assert rp.a == 1.0 and rp.b == -1.0
        u0 = h_at(cp, 0.25)
        got = ov.integrate_riccati(rp, ov.IvpSpec(0.25, u0, 1.0))
        want = h_at(cp, 1.0)
        assert abs(got - want) <= 1e-6 * (1.0 + abs(want))

    def test_modified_friedmann_residual(self):
        for k in (1, -1):
            for d in (0.25, 0.6, 1.0):
                cp = co.CosmoParams(k=k, delta=d, c=1.0)
                for eta in np.linspace(0.2, 1.4, 12):
                    eta = float(eta)
                    hp = ov.fd_derivative(lambda t: h_at(cp, t), eta)
                    h = h_at(cp, eta)
                    r = hp + cp.c * h * h - frac_const(-k * cp.c, d, eta)
                    assert abs(r) <= 1e-6 * (1.0 + abs(frac_const(-k * cp.c, d, eta)))

    def test_open_branch1_positive(self):
        cp = co.CosmoParams(k=-1, delta=0.3, c=1.5)
        h, _ = co.hubble([cp], 1, np.geomspace(0.01, 8.0, 60))
        assert (h > 0.0).all()

    def test_second_branch(self):
        cp = co.CosmoParams(k=1, delta=1.0, c=1.0)
        assert h_at(cp, math.pi / 4.0, branch=2) == pytest.approx(-1.0, rel=1e-12)

    @pytest.mark.parametrize("k", [-1, 0, 1])
    def test_branch_refused_for_every_k(self, k):
        with pytest.raises(ValueError, match="branch must be 1 or 2"):
            co.hubble([co.CosmoParams(k=k, delta=1.0, c=1.0)], 3, np.array([1.0]))


class TestHubbleFlat:
    def test_values(self):
        # H = 1/(c eta) whatever delta, without pole flags
        cps = [co.CosmoParams(k=0, delta=d, c=2.0) for d in (0.4, 1.0)]
        h, pole = co.hubble(cps, 1, np.array([1.0, 0.25]))
        assert h.tolist() == [[0.5, 2.0], [0.5, 2.0]] and not pole.any()
        assert h_at(co.CosmoParams(k=0, delta=1.0, c=1.0), 2.0) == 0.5

    def test_flat_residual_is_zero(self):
        cp = co.CosmoParams(k=0, delta=1.0, c=1.3)
        for eta in (0.5, 1.0, 3.0):
            hp = ov.fd_derivative(lambda t: h_at(cp, t), eta)
            h = h_at(cp, eta)
            assert abs(hp + cp.c * h * h) < 1e-10

    def test_overflow_names_eta(self):
        # c eta = 1e-310 for both times; 1/(c eta) = 1e310 is out of range
        for c, etas in ((1e-310, [1.0, 2.0]), (1e-300, [1e-10, 2e-10])):
            cp = co.CosmoParams(k=0, delta=1.0, c=c)
            with pytest.raises(OverflowError, match=f"eta = {etas[0]!r} "):
                co.hubble([cp], 1, np.array(etas))


class TestScaleFactor:
    def test_sine_ratio(self):
        cp = co.CosmoParams(k=1, delta=1.0, c=1.0)  # R proportional to sin eta
        got = ratio_at(cp, math.pi / 2.0, math.pi / 6.0)
        assert got == pytest.approx(2.0, rel=1e-10)

    def test_identity(self):
        cp = co.CosmoParams(k=1, delta=1.0, c=1.0)
        assert ratio_at(cp, 0.7, 0.7) == 1.0

    def test_flat_power_law(self):
        cp = co.CosmoParams(k=0, delta=1.0, c=0.5)
        assert ratio_at(cp, 2.0, 1.0) == pytest.approx(4.0, rel=1e-12)

    def test_flat_overflow_names_eta(self):
        # 1/c = inf: (1.5/1)^(1/c) overflows without an OverflowError of its
        # own, while (0.5/1)^(1/c) = 0 and (1/1)^(1/c) = 1 stay in range
        cp = co.CosmoParams(k=0, delta=1.0, c=1e-310)
        assert co.scale_factor(cp, np.array([0.5, 1.0]), 1.0).tolist() == [0.0, 1.0]
        with pytest.raises(OverflowError, match="eta = 1.5 "):
            co.scale_factor(cp, np.array([1.0, 1.5, 2.0]), 1.0)

    def test_matches_exp_integral_quadrature(self):
        cp = co.CosmoParams(k=-1, delta=0.45, c=0.8)
        r1 = ratio_at(cp, 1.7, 0.6)
        r2 = scale_factor_by_quadrature(cp, 1.7, 0.6)
        assert r1 == pytest.approx(r2, rel=1e-6)

    @pytest.mark.parametrize("branch, eta, eta_ref", [(1, 25.0, 15.0), (2, 20.0, 10.0)])
    def test_matches_quadrature_across_scaled_range(self, branch, eta, eta_ref):
        # Bessel argument 0.665 eta^1.275 crosses 30 (I) and 20 (K): y is
        # unscaled at eta_ref and scaled at eta
        cp = co.CosmoParams(k=-1, delta=0.45, c=0.8)
        got = ratio_at(cp, eta, eta_ref, branch)
        assert got == pytest.approx(
            scale_factor_by_quadrature(cp, eta, eta_ref, branch=branch), rel=1e-6
        )

    def test_zero_crossing_refused(self):
        cp = co.CosmoParams(k=1, delta=1.0, c=1.0)  # y = sin has a zero at pi
        with pytest.raises(BranchZeroError):
            ratio_at(cp, 3.5, 0.5)

    @given(st.floats(0.2, 2.8), st.floats(0.2, 2.8))
    @settings(max_examples=40, deadline=None)
    def test_cocycle_property(self, eta_a, eta_b):
        cp = co.CosmoParams(k=-1, delta=0.7, c=1.0)  # no zeros in the open case
        f = ratio_at(cp, eta_a, eta_b)
        b = ratio_at(cp, eta_b, eta_a)
        assert f * b == pytest.approx(1.0, rel=1e-10)
