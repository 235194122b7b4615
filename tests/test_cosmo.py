import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracriccati import cosmo as co
from fracriccati import odeverify as ov
from fracriccati.errors import BranchZeroError, FlatCaseError
from fracriccati.fracops import adaptive_simpson, frac_const


def scale_factor_by_quadrature(
    cp, eta: float, eta_ref: float, tol: float = 1e-9, branch: int = 1
) -> float:
    """exp of the Hubble integral from eta_ref up to eta > eta_ref by
    adaptive quadrature: the cross-check on scale_factor's closed form."""

    def h_of(t: float) -> float:
        ev = co.hubble(cp, t, branch)
        assert not ev.pole_flag, f"Hubble pole hit at eta = {t}"
        return ev.H

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
        got = co.hubble(cp, math.pi / 4.0)
        assert got.H == pytest.approx(1.0, rel=1e-12)
        assert got.branch == 1 and got.delta_applied

    def test_open_classical(self):
        cp = co.CosmoParams(k=-1, delta=1.0, c=1.0)
        assert co.hubble(cp, 1.0).H == pytest.approx(1.3130352854993313, rel=1e-12)

    def test_classical_reduction_sweeps(self):
        for c in (0.5, 1.0, 2.0):
            cp = co.CosmoParams(k=1, delta=1.0, c=c)
            for eta in np.linspace(0.05, math.pi / (2.0 * c), 40, endpoint=False)[1:]:
                eta = float(eta)
                want = math.cos(c * eta) / math.sin(c * eta)
                assert abs(co.hubble(cp, eta).H - want) <= 1e-8 * (1.0 + abs(want))
            cp = co.CosmoParams(k=-1, delta=1.0, c=c)
            for eta in np.linspace(0.05, 5.0, 40):
                eta = float(eta)
                want = math.cosh(c * eta) / math.sinh(c * eta)
                assert abs(co.hubble(cp, eta).H - want) <= 1e-8 * (1.0 + want)

    def test_fractional_against_integration(self):
        cp = co.CosmoParams(k=1, delta=0.5, c=1.0)
        rp = cp.riccati_params()
        assert rp.a == 1.0 and rp.b == -1.0
        u0 = co.hubble(cp, 0.25).H
        got = ov.integrate_riccati(rp, ov.IvpSpec(0.25, u0, 1.0))
        want = co.hubble(cp, 1.0).H
        assert abs(got - want) <= 1e-6 * (1.0 + abs(want))

    def test_modified_friedmann_residual(self):
        for k in (1, -1):
            for d in (0.25, 0.6, 1.0):
                cp = co.CosmoParams(k=k, delta=d, c=1.0)
                for eta in np.linspace(0.2, 1.4, 12):
                    eta = float(eta)
                    hp = ov.fd_derivative(lambda t: co.hubble(cp, t).H, eta)
                    h = co.hubble(cp, eta).H
                    r = hp + cp.c * h * h - frac_const(-k * cp.c, d, eta)
                    assert abs(r) <= 1e-6 * (1.0 + abs(frac_const(-k * cp.c, d, eta)))

    def test_open_branch1_positive(self):
        cp = co.CosmoParams(k=-1, delta=0.3, c=1.5)
        for eta in np.geomspace(0.01, 8.0, 60):
            assert co.hubble(cp, float(eta)).H > 0.0

    def test_flat_redirect(self):
        cp = co.CosmoParams(k=0, delta=1.0, c=1.0)
        with pytest.raises(FlatCaseError):
            co.hubble(cp, 1.0)

    def test_second_branch(self):
        cp = co.CosmoParams(k=1, delta=1.0, c=1.0)
        assert co.hubble(cp, math.pi / 4.0, branch=2).H == pytest.approx(-1.0, rel=1e-12)


class TestHubbleFlat:
    def test_values(self):
        assert co.hubble_flat(co.CosmoParams(k=0, delta=1.0, c=1.0), 2.0).H == 0.5
        assert co.hubble_flat(co.CosmoParams(k=0, delta=0.4, c=2.0), 1.0).H == 0.5

    def test_tagged_unmodified(self):
        ev = co.hubble_flat(co.CosmoParams(k=0, delta=0.4, c=2.0), 1.0)
        assert not ev.delta_applied and not ev.pole_flag

    def test_flat_residual_is_zero(self):
        cp = co.CosmoParams(k=0, delta=1.0, c=1.3)
        for eta in (0.5, 1.0, 3.0):
            hp = ov.fd_derivative(lambda t: co.hubble_flat(cp, t).H, eta)
            h = co.hubble_flat(cp, eta).H
            assert abs(hp + cp.c * h * h) < 1e-10

    def test_wrong_curvature(self):
        with pytest.raises(ValueError):
            co.hubble_flat(co.CosmoParams(k=1, delta=1.0, c=1.0), 1.0)


class TestScaleFactor:
    def test_sine_ratio(self):
        cp = co.CosmoParams(k=1, delta=1.0, c=1.0)  # R proportional to sin eta
        got = co.scale_factor(cp, math.pi / 2.0, math.pi / 6.0)
        assert got == pytest.approx(2.0, rel=1e-10)

    def test_identity(self):
        cp = co.CosmoParams(k=1, delta=1.0, c=1.0)
        assert co.scale_factor(cp, 0.7, 0.7) == 1.0

    def test_flat_power_law(self):
        cp = co.CosmoParams(k=0, delta=1.0, c=0.5)
        assert co.scale_factor(cp, 2.0, 1.0) == pytest.approx(4.0, rel=1e-12)

    def test_matches_exp_integral_quadrature(self):
        cp = co.CosmoParams(k=-1, delta=0.45, c=0.8)
        r1 = co.scale_factor(cp, 1.7, 0.6)
        r2 = scale_factor_by_quadrature(cp, 1.7, 0.6)
        assert r1 == pytest.approx(r2, rel=1e-6)

    @pytest.mark.parametrize("branch, eta, eta_ref", [(1, 25.0, 15.0), (2, 20.0, 10.0)])
    def test_matches_quadrature_across_scaled_range(self, branch, eta, eta_ref):
        # Bessel argument 0.665 eta^1.275 crosses 30 (I) and 20 (K): y is
        # unscaled at eta_ref and scaled at eta
        cp = co.CosmoParams(k=-1, delta=0.45, c=0.8)
        got = co.scale_factor(cp, eta, eta_ref, branch)
        assert got == pytest.approx(
            scale_factor_by_quadrature(cp, eta, eta_ref, branch=branch), rel=1e-6
        )

    def test_zero_crossing_refused(self):
        cp = co.CosmoParams(k=1, delta=1.0, c=1.0)  # y = sin has a zero at pi
        with pytest.raises(BranchZeroError):
            co.scale_factor(cp, 3.5, 0.5)

    @given(st.floats(0.2, 2.8), st.floats(0.2, 2.8))
    @settings(max_examples=40, deadline=None)
    def test_cocycle_property(self, eta_a, eta_b):
        cp = co.CosmoParams(k=-1, delta=0.7, c=1.0)  # no zeros in the open case
        f = co.scale_factor(cp, eta_a, eta_b)
        b = co.scale_factor(cp, eta_b, eta_a)
        assert f * b == pytest.approx(1.0, rel=1e-10)
