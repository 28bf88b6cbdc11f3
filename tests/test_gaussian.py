"""Covariance-level state constructors and passive optics."""

import math

import numpy as np
import pytest

from avcsim.bivariate import correlation_coefficient, homodyne_xx
from avcsim.gaussian import (
    GaussianState,
    JammerGaussian,
    apply_beamsplitter,
    beamsplitter_symplectic,
    coherent_state,
    is_physical,
    mean_photon_number,
    mix_tmsv_with_jammer,
    omega,
    partial_trace,
    receiver_port_moments,
    symplectic_eigenvalues,
    tensor,
    thermal_state,
    tmsv_state,
)

from oracles import random_physical_cov


def test_omega_is_block_antisymmetric():
    w = omega(3)
    assert w.shape == (6, 6)
    assert np.array_equal(w, -w.T)
    assert np.array_equal(w[:2, :2], [[0.0, 1.0], [-1.0, 0.0]])
    assert np.array_equal(w @ w, -np.eye(6))


def test_symplectic_spectrum_of_known_states():
    assert np.allclose(symplectic_eigenvalues(0.5 * np.eye(2)), [0.5])
    nbar = 1.7
    assert np.allclose(symplectic_eigenvalues(thermal_state(nbar).cov), [nbar + 0.5])
    # TMSV is pure: both symplectic eigenvalues sit at the vacuum floor
    nus = symplectic_eigenvalues(tmsv_state(1.3).cov)
    assert np.allclose(nus, [0.5, 0.5], atol=1e-12)


def test_symplectic_spectrum_is_symplectic_invariant():
    rng = np.random.default_rng(20)
    for _ in range(50):
        cov = random_physical_cov(rng, 2)
        f = beamsplitter_symplectic(rng.uniform(0.05, 0.95), 2, 0, 1)
        before = symplectic_eigenvalues(cov)
        after = symplectic_eigenvalues(f @ cov @ f.T)
        assert np.allclose(before, after, atol=1e-9)


def test_physicality_accepts_random_valid_covariances():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        assert is_physical(random_physical_cov(rng, n))


def test_physicality_rejects_sub_vacuum_noise():
    assert not is_physical(0.25 * np.eye(2))
    # squeeze one quadrature without the conjugate blowup
    assert not is_physical(np.diag([0.1, 0.5]))
    assert is_physical(np.diag([0.1, 2.5]))  # nu = sqrt(0.25) exactly at the floor


def test_state_constructor_validates_shape_symmetry_physicality():
    with pytest.raises(ValueError, match="shape"):
        GaussianState(1, np.zeros(3), 0.5 * np.eye(2))
    bad = 0.5 * np.eye(2)
    bad = bad.copy()
    bad[0, 1] = 0.3
    with pytest.raises(ValueError, match="symmetric"):
        GaussianState(1, np.zeros(2), bad)
    with pytest.raises(ValueError, match="uncertainty"):
        GaussianState(1, np.zeros(2), 0.2 * np.eye(2))


def test_coherent_state_moments_and_energy():
    st = coherent_state(0.75, -0.5)
    assert np.allclose(st.mean, [math.sqrt(2) * 0.75, -math.sqrt(2) * 0.5])
    assert np.array_equal(st.cov, 0.5 * np.eye(2))
    assert mean_photon_number(st) == pytest.approx(0.75**2 + 0.5**2, abs=1e-14)


def test_thermal_state_energy_matches_parameter():
    for nbar in (0.0, 0.3, 2.5):
        assert mean_photon_number(thermal_state(nbar)) == pytest.approx(nbar, abs=1e-14)
    with pytest.raises(ValueError):
        thermal_state(-0.1)


def test_tmsv_covariance_blocks():
    r = 0.9
    st = tmsv_state(r)
    cr, sr = math.cosh(2 * r), math.sinh(2 * r)
    assert np.allclose(st.cov[:2, :2], 0.5 * cr * np.eye(2))
    assert np.allclose(st.cov[2:, 2:], 0.5 * cr * np.eye(2))
    assert st.cov[0, 2] == pytest.approx(0.5 * sr, abs=1e-12)
    assert st.cov[1, 3] == pytest.approx(-0.5 * sr, abs=1e-12)
    with pytest.raises(ValueError):
        tmsv_state(-0.5)


def test_tmsv_marginal_is_thermal_with_sinh_squared_photons():
    r = 1.1
    reduced = partial_trace(tmsv_state(r), [0])
    assert np.allclose(reduced.cov, 0.5 * math.cosh(2 * r) * np.eye(2))
    assert mean_photon_number(reduced) == pytest.approx(math.sinh(r) ** 2, abs=1e-12)


def test_tensor_stacks_blocks():
    a, b = coherent_state(1.0), thermal_state(0.5)
    both = tensor(a, b)
    assert both.n_modes == 2
    assert np.array_equal(both.cov[:2, :2], a.cov)
    assert np.array_equal(both.cov[2:, 2:], b.cov)
    assert np.array_equal(both.cov[:2, 2:], np.zeros((2, 2)))
    assert np.array_equal(both.mean, np.concatenate([a.mean, b.mean]))


def test_beamsplitter_matrix_is_symplectic_and_orthogonal():
    for eta in (0.0, 0.3, 0.5, 1.0):
        f = beamsplitter_symplectic(eta, 3, 0, 2)
        w = omega(3)
        assert np.allclose(f @ w @ f.T, w, atol=1e-12)
        assert np.allclose(f @ f.T, np.eye(6), atol=1e-12)
    with pytest.raises(ValueError):
        beamsplitter_symplectic(1.2, 2, 0, 1)
    with pytest.raises(ValueError):
        beamsplitter_symplectic(0.5, 2, 1, 1)


def test_beamsplitter_preserves_total_photon_number():
    rng = np.random.default_rng(22)
    for _ in range(50):
        st = GaussianState(2, rng.standard_normal(4), random_physical_cov(rng, 2))
        out = apply_beamsplitter(st, rng.uniform(0, 1), (0, 1))
        assert mean_photon_number(out) == pytest.approx(mean_photon_number(st), abs=1e-10)


def test_balanced_beamsplitter_splits_coherent_energy():
    st = tensor(coherent_state(1.0), coherent_state(0.0))
    out = apply_beamsplitter(st, 0.5, (0, 1))
    for mode in (0, 1):
        assert mean_photon_number(partial_trace(out, [mode])) == pytest.approx(0.5, abs=1e-12)


def test_partial_trace_selects_modes():
    st = tensor(coherent_state(0.3), thermal_state(1.0))
    assert np.array_equal(partial_trace(st, [1]).cov, thermal_state(1.0).cov)
    with pytest.raises(ValueError):
        partial_trace(st, [])
    with pytest.raises(ValueError):
        partial_trace(st, [2])


def test_jammer_validation_and_energy_accounting():
    with pytest.raises(ValueError):
        JammerGaussian(A=0.3, B=0.3)  # AB < 1/4
    with pytest.raises(ValueError):
        JammerGaussian(A=-0.5, B=1.0)
    with pytest.raises(ValueError):
        JammerGaussian(A=1.0, B=1.0, C=0.9)
    for name in ("A", "B", "C", "a", "b"):
        for value in (math.nan, math.inf, -math.inf, True):
            fields = {"A": 0.5, "B": 0.5, "C": 0.0, "a": 0.0, "b": 0.0, name: value}
            with pytest.raises(ValueError, match=f"^jammer state {name} must be a finite number"):
                JammerGaussian(**fields)
    vac = JammerGaussian(A=0.5, B=0.5)
    assert vac.mean_photons == pytest.approx(0.0, abs=1e-14)
    coh = JammerGaussian(A=0.5, B=0.5, a=math.sqrt(2.0))
    assert coh.mean_photons == pytest.approx(1.0, abs=1e-14)
    th = JammerGaussian(A=1.5, B=1.5)
    assert th.mean_photons == pytest.approx(1.0, abs=1e-14)
    assert mean_photon_number(th.to_state()) == pytest.approx(1.0, abs=1e-14)


def _random_jammers(rng, count):
    out = []
    for _ in range(count):
        big_a = rng.uniform(0.3, 3.0)
        big_b = rng.uniform(0.25 / big_a + 0.05, 3.0)
        cmax = math.sqrt(big_a * big_b - 0.25)
        out.append(JammerGaussian(A=big_a, B=big_b, C=rng.uniform(-0.9, 0.9) * cmax,
                                  a=rng.normal(0, 1.5), b=rng.normal(0, 1.5)))
    return out


@pytest.mark.parametrize("r, eta", [(None, None), (0.0, None), (None, 0.0), (None, 1.0),
                                    (0.0, 0.0), (0.0, 1.0)])
def test_receiver_port_moments_match_the_mixed_state(r, eta):
    """The array helper is the x-block of mix_tmsv_with_jammer, state by state."""
    rng = np.random.default_rng(24)
    for _ in range(20):
        r_i = rng.uniform(0.0, 2.0) if r is None else r
        eta_i = rng.uniform(0.0, 1.0) if eta is None else eta
        taus = _random_jammers(rng, 8)
        mean_b, var_b, rho = receiver_port_moments(
            np.array([t.A for t in taus]), np.array([t.a for t in taus]), r_i, eta_i)
        assert mean_b.shape == var_b.shape == rho.shape == (8,)
        for i, tau in enumerate(taus):
            biv = homodyne_xx(mix_tmsv_with_jammer(r_i, eta_i, tau))
            assert biv.mean[0] == 0.0
            assert abs(mean_b[i] - biv.mean[1]) <= 1e-12
            assert abs(var_b[i] - biv.cov[1, 1]) <= 1e-12
            assert abs(rho[i] - correlation_coefficient(biv)) <= 1e-12


def test_receiver_port_correlation_past_the_double_range_of_its_variance_product():
    # at r = 200, cosh(2r)/2 times the receiver variance overflows a double;
    # rho is then the quotient with the two roots taken apart, not 0
    r, eta = 200.0, 0.5
    big_a = np.array([0.5, 1e300])
    _, var_b, rho = receiver_port_moments(big_a, np.zeros(2), r, eta)
    c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
    for i in range(2):
        assert rho[i] == math.sqrt(eta) * s / (2.0 * (math.sqrt(c / 2.0) * math.sqrt(var_b[i])))
    assert rho[0] == pytest.approx(1.0, abs=1e-15)  # s/c with eta c/2 >> A
    assert 0.0 < rho[1] < 1e-60


def test_mixing_with_vacuum_jammer_keeps_state_physical_any_eta():
    vac = JammerGaussian(A=0.5, B=0.5)
    for eta in (0.0, 0.25, 0.5, 0.75, 1.0):
        st = mix_tmsv_with_jammer(1.0, eta, vac)
        assert is_physical(st.cov)


def test_mix_closed_form_equals_composed_route():
    """The two independent constructions of the output state must agree."""
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(300):
        r = rng.uniform(0.0, 2.0)
        eta = rng.uniform(0.0, 1.0)
        # random physical single-mode jammer: start from a valid (A, B, C)
        A = rng.uniform(0.3, 3.0)
        B = rng.uniform(0.25 / A + 0.05, 3.0)
        cmax = math.sqrt(A * B - 0.25)
        tau = JammerGaussian(A=A, B=B, C=rng.uniform(-0.9, 0.9) * cmax,
                             a=rng.normal(0, 1.5), b=rng.normal(0, 1.5))
        direct = mix_tmsv_with_jammer(r, eta, tau)
        three = tensor(tmsv_state(r), tau.to_state())
        mixed = apply_beamsplitter(three, eta, (1, 2))
        composed = partial_trace(mixed, [0, 1])
        worst = max(
            worst,
            float(np.max(np.abs(direct.cov - composed.cov))),
            float(np.max(np.abs(direct.mean - composed.mean))),
        )
    assert worst <= 1e-12
