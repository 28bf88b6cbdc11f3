"""Bivariate normal CDF, sign binarization, and the quadrant pipeline."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avcsim import bivariate
from avcsim.bivariate import (
    RHO_LIMIT,
    _upper_orthant,
    BinaryJointDist,
    BivariateGaussian,
    arcsine_law,
    binarized_correlation,
    binarized_correlation_array,
    bivariate_normal_cdf,
    bivariate_normal_pdf,
    correlation_coefficient,
    homodyne_xx,
    mutual_information_bits,
    mutual_information_bits_array,
    quadrant_distribution,
    quadrant_laws,
    std_normal_cdf,
    std_normal_cdf_array,
)
from avcsim.gaussian import JammerGaussian, mix_tmsv_with_jammer

from oracles import (
    binarized_correlation_reference,
    CDF_ATOL,
    bivariate_normal_cdf_adaptive,
    bivariate_normal_cdf_mp,
    mc_quadrants,
    mi_bits_from_joint,
    mutual_information_bits_reference,
    orthant_at_origin_reference,
    quadrant_distribution_adaptive,
    std_cdf_oracle,
    upper_orthant_per_point,
)

# The kernel's measured absolute error against the 30-digit reference.
CDF_ERR = 1e-15


def test_std_normal_cdf_matches_independent_oracle():
    for x in np.linspace(-6.0, 6.0, 49):
        assert std_normal_cdf(float(x)) == pytest.approx(std_cdf_oracle(float(x)), abs=1e-14)


def test_pdf_matches_direct_formula():
    rng = np.random.default_rng(31)
    for _ in range(100):
        x, y = rng.normal(0, 2, size=2)
        rho = rng.uniform(-0.95, 0.95)
        det = 1.0 - rho * rho
        expected = math.exp(-(x * x - 2 * rho * x * y + y * y) / (2 * det)) / (
            2 * math.pi * math.sqrt(det)
        )
        assert bivariate_normal_pdf(x, y, rho) == pytest.approx(expected, rel=1e-13)


def test_cdf_independence_identity():
    rng = np.random.default_rng(32)
    for _ in range(100):
        x, y = rng.normal(0, 1.5, size=2)
        val = bivariate_normal_cdf(float(x), float(y), 0.0)
        assert val == pytest.approx(std_normal_cdf(x) * std_normal_cdf(y), abs=1e-12)


def test_cdf_closed_form_at_origin():
    for rho in (-0.9, -0.5, 0.0, 0.3, 0.7, 0.95):
        expected = 0.25 + math.asin(rho) / (2.0 * math.pi)
        assert bivariate_normal_cdf(0.0, 0.0, rho) == pytest.approx(expected, abs=1e-12)


def test_cdf_symmetry_and_reflection():
    rng = np.random.default_rng(33)
    for _ in range(50):
        x, y = rng.normal(0, 1.5, size=2)
        rho = rng.uniform(-0.98, 0.98)
        a = bivariate_normal_cdf(x, y, rho)
        assert bivariate_normal_cdf(y, x, rho) == pytest.approx(a, abs=1e-13)
        # P(Z1 <= -x, Z2 <= -y) with the same rho is the survival of the pair
        refl = bivariate_normal_cdf(-x, -y, rho)
        expected = 1.0 - std_normal_cdf(x) - std_normal_cdf(y) + a
        assert refl == pytest.approx(expected, abs=1e-12)


def test_cdf_marginal_recovery_at_large_argument():
    for x in (-1.3, 0.0, 0.8):
        assert bivariate_normal_cdf(x, 9.0, 0.6) == pytest.approx(std_normal_cdf(x), abs=1e-11)


def test_cdf_monotone_in_rho():
    # Plackett: the derivative in rho is the positive density phi2
    x, y = 0.4, -0.7
    vals = [bivariate_normal_cdf(x, y, rho) for rho in np.linspace(-0.95, 0.95, 39)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_cdf_rejects_degenerate_correlation():
    with pytest.raises(ValueError):
        bivariate_normal_cdf(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        bivariate_normal_cdf(0.0, 0.0, -1.0 + 1e-12)
    for bad in (math.nan, math.inf, -math.inf):
        for name, args in (("x", (bad, 0.0, 0.5)), ("y", (0.0, bad, 0.5)),
                           ("rho", (0.0, 0.0, bad))):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                bivariate_normal_cdf(*args)


def test_cdf_matches_30_digit_reference():
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(85)
    n = 40
    x, y = rng.uniform(-5.0, 5.0, n), rng.uniform(-5.0, 5.0, n)
    x[::5] = 0.0
    # half the points at 1 - |rho| between 1e-9 and 1e-1, across the 0.925 switch
    rho = rng.uniform(-0.99, 0.99, n)
    rho[n // 2:] = rng.choice([-1.0, 1.0], n // 2) * np.minimum(
        1.0 - 10.0 ** rng.uniform(-9.0, -1.0, n // 2), RHO_LIMIT)
    assert (rho > 0).any() and (rho < 0).any()
    for xi, yi, ri in zip(x.tolist(), y.tolist(), rho.tolist()):
        ref = bivariate_normal_cdf_mp(xi, yi, ri)
        assert abs(bivariate_normal_cdf(xi, yi, ri) - ref) <= CDF_ERR, (xi, yi, ri)


def test_cdf_matches_adaptive_oracle():
    rng = np.random.default_rng(86)
    for _ in range(300):
        x, y = rng.normal(0.0, 2.0, 2).tolist()
        rho = float(rng.uniform(-0.9999, 0.9999))
        assert abs(bivariate_normal_cdf(x, y, rho)
                   - bivariate_normal_cdf_adaptive(x, y, rho)) <= 1e-12, (x, y, rho)
    # far outside, the CDF is a marginal, 0 or 1 to double precision; unclipped,
    # exp(-hk/2) overflows at (40, 40, -0.95) and the result is NaN
    assert bivariate_normal_cdf(1e100, 0.3, 0.95) == pytest.approx(std_normal_cdf(0.3), abs=1e-15)
    assert bivariate_normal_cdf(-1e100, 0.3, -0.95) <= 1e-299
    assert bivariate_normal_cdf(60.0, -60.0, 0.99) <= 1e-299
    assert bivariate_normal_cdf(40.0, 40.0, -0.95) == 1.0


_ARG = st.floats(-10.0, 10.0, allow_nan=False)
_RHO = st.floats(-RHO_LIMIT, RHO_LIMIT, allow_nan=False)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_ARG, _ARG, _RHO)
def test_cdf_frechet_bounds_symmetry_and_reflection(x, y, rho):
    p = bivariate_normal_cdf(x, y, rho)
    px, py = std_normal_cdf(x), std_normal_cdf(y)
    assert max(0.0, px + py - 1.0) - CDF_ERR <= p <= min(px, py) + CDF_ERR
    assert bivariate_normal_cdf(y, x, rho) == p
    # P(Z1 <= -x, Z2 <= -y) is the survival of the pair at (x, y)
    assert bivariate_normal_cdf(-x, -y, rho) == pytest.approx(1.0 - px - py + p, abs=2 * CDF_ERR)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_ARG, _ARG, _RHO, _RHO)
def test_cdf_non_decreasing_in_rho(x, y, r1, r2):
    lo, hi = min(r1, r2), max(r1, r2)
    # each value is within CDF_ERR of the true, non-decreasing one
    assert bivariate_normal_cdf(x, y, hi) >= bivariate_normal_cdf(x, y, lo) - 2 * CDF_ERR


def test_cdf_against_monte_carlo_spot_checks():
    rng = np.random.default_rng(34)
    from oracles import mc_orthant

    for seed in range(5):
        x, y = rng.normal(0, 1.2, size=2)
        rho = rng.uniform(-0.9, 0.9)
        est, sigma = mc_orthant(float(x), float(y), float(rho), 1_000_000, seed=seed)
        assert abs(bivariate_normal_cdf(float(x), float(y), float(rho)) - est) <= 4 * sigma


def test_bivariate_gaussian_validation():
    with pytest.raises(ValueError):
        BivariateGaussian(np.zeros(3), np.eye(2))
    with pytest.raises(ValueError):
        BivariateGaussian(np.zeros(2), np.array([[1.0, 0.2], [0.3, 1.0]]))
    with pytest.raises(ValueError):
        BivariateGaussian(np.zeros(2), np.array([[1.0, 1.0], [1.0, 1.0]]))
    # NaN fails every comparison, so each entry is checked to be finite first
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            BivariateGaussian(np.array([bad, 0.0]), np.eye(2))
        with pytest.raises(ValueError, match="finite"):
            BivariateGaussian(np.array([0.0, bad]), np.eye(2))
        for i, j in ((0, 0), (0, 1), (1, 1)):
            cov = np.eye(2)
            cov[i, j] = bad
            with pytest.raises(ValueError, match="finite"):
                BivariateGaussian(np.zeros(2), cov)


def test_homodyne_picks_x_quadratures():
    st = mix_tmsv_with_jammer(0.9, 0.5, JammerGaussian(A=0.5, B=0.5, a=1.0))
    biv = homodyne_xx(st)
    assert np.allclose(biv.mean, st.mean[[0, 2]])
    assert np.allclose(biv.cov, st.cov[np.ix_([0, 2], [0, 2])])
    cr = math.cosh(1.8)
    rho = correlation_coefficient(biv)
    expected = math.sinh(1.8) / math.sqrt(cr * (1.0 + cr))
    assert rho == pytest.approx(expected, abs=1e-12)


def test_binary_joint_validation_and_views():
    q = BinaryJointDist(0.4, 0.1, 0.2, 0.3)
    assert np.array_equal(q.as_array(), [[0.4, 0.1], [0.2, 0.3]])
    assert q.marginal_first == pytest.approx(0.2 + 0.3)  # P(first bit = 1)
    assert q.marginal_second == pytest.approx(0.1 + 0.3)
    with pytest.raises(ValueError):
        BinaryJointDist(0.5, 0.5, 0.1, -0.1)
    with pytest.raises(ValueError):
        BinaryJointDist(0.5, 0.5, 0.5, 0.5)
    for bad in (math.nan, math.inf, -math.inf):
        for pos in range(4):
            vals = [0.25, 0.25, 0.25, 0.25]
            vals[pos] = bad
            with pytest.raises(ValueError, match="finite"):
                BinaryJointDist(*vals)


def test_quadrant_distribution_centered_and_symmetric_cases():
    biv = BivariateGaussian(np.zeros(2), np.array([[1.0, 0.5], [0.5, 1.0]]))
    q = quadrant_distribution(biv)
    # b = 0: diagonal quadrants equal, off-diagonals equal, affine identity
    assert q.q00 == pytest.approx(q.q11, abs=1e-13)
    assert q.q01 == pytest.approx(q.q10, abs=1e-13)
    assert q.q00 + q.q01 == pytest.approx(0.5, abs=1e-13)
    with pytest.raises(ValueError):
        quadrant_distribution(BivariateGaussian(np.array([0.1, 0.0]), np.eye(2)))


def test_quadrant_distribution_matches_monte_carlo():
    st = mix_tmsv_with_jammer(math.asinh(1.0), 0.5,
                              JammerGaussian(A=0.5, B=0.5, a=math.sqrt(2.0)))
    biv = homodyne_xx(st)
    q = quadrant_distribution(biv)
    n = 1_000_000
    freq = mc_quadrants(float(biv.mean[1]), float(biv.cov[0, 0]), float(biv.cov[1, 1]),
                        float(biv.cov[0, 1]), n, seed=77)
    for qij, fij in zip(q.as_array().ravel(), freq.ravel()):
        sigma = math.sqrt(max(qij * (1 - qij), 1e-12) / n)
        assert abs(qij - fij) <= 4 * sigma


def test_quadrant_distribution_frozen_coherent_jam_point():
    """Regression pin for the working point used throughout the suite."""
    st = mix_tmsv_with_jammer(math.asinh(1.0), 0.5,
                              JammerGaussian(A=0.5, B=0.5, a=math.sqrt(2.0)))
    q = quadrant_distribution(homodyne_xx(st))
    assert q.q00 == pytest.approx(0.15414391502714964, abs=1e-12)
    assert q.q01 == pytest.approx(0.34585608497285036, abs=1e-12)
    assert q.q10 == pytest.approx(0.004511338904307383, abs=1e-12)
    assert q.q11 == pytest.approx(0.4954886610956926, abs=1e-12)


def test_quadrant_kernel_matches_adaptive_cdf():
    rng = np.random.default_rng(83)
    y = rng.uniform(-10.0, 10.0, 600)
    rho = rng.uniform(-0.99999, 0.99999, 600)
    # crowd a third of the set toward |rho| = 1, across the 0.925 switch
    rho[:200] = rng.choice([-1.0, 1.0], 200) * (1.0 - 10.0 ** rng.uniform(-5.0, -1.0, 200))
    q = quadrant_laws(-y, rho)
    for i in range(y.size):
        assert abs(q[i, 0, 0] - bivariate_normal_cdf_adaptive(0.0, y[i], rho[i])) <= 1e-12, (
            y[i], rho[i])
        phi = std_normal_cdf(y[i])
        expected = (0.5 - q[i, 0, 0], phi - q[i, 0, 0], 0.5 - phi + q[i, 0, 0])
        assert (q[i, 0, 1], q[i, 1, 0], q[i, 1, 1]) == pytest.approx(
            tuple(max(0.0, e) for e in expected), abs=1e-15)
    # between 1 - 1e-5 and RHO_LIMIT the adaptive routine promises CDF_ATOL
    y = rng.uniform(-10.0, 10.0, 200)
    rho = rng.choice([-1.0, 1.0], 200) * np.minimum(1.0 - 10.0 ** rng.uniform(-9.0, -5.0, 200),
                                                    RHO_LIMIT)
    q = quadrant_laws(-y, rho)
    for i in range(y.size):
        assert abs(q[i, 0, 0] - bivariate_normal_cdf_adaptive(0.0, y[i], rho[i])) <= CDF_ATOL


def test_quadrant_kernel_matches_h0_reference_bit_for_bit():
    rng = np.random.default_rng(87)
    n = 4000
    b = rng.normal(0.0, 3.0, n)
    b[:40] = 0.0
    b[40:80] = rng.normal(0.0, 40.0, 40)
    rho = rng.uniform(-RHO_LIMIT, RHO_LIMIT, n)
    # a quarter each side of the 0.925 switch, a quarter near RHO_LIMIT
    sign = rng.choice([-1.0, 1.0], n)
    rho[: n // 4] = sign[: n // 4] * rng.uniform(0.9, 0.925, n // 4)
    rho[n // 4: n // 2] = sign[n // 4: n // 2] * rng.uniform(0.925, 0.95, n // 4)
    rho[n // 2: 3 * n // 4] = sign[n // 2: 3 * n // 4] * np.minimum(
        1.0 - 10.0 ** rng.uniform(-9.0, -6.0, n // 4), RHO_LIMIT)
    rho[-4:] = (RHO_LIMIT, -RHO_LIMIT, 0.925, -0.925)
    q00 = quadrant_laws(b, rho)[:, 0, 0]
    ref = np.clip(orthant_at_origin_reference(b, rho, std_normal_cdf_array(-b)), 0.0, 1.0)
    assert q00.tobytes() == ref.tobytes()


def _grid_like_rows(rng, repeats=60):
    """Rows shaped like the jammer grid's: 60 distinct correlations, each
    repeated, in shuffled order. They fall on both sides of the 0.925 switch and
    include rho = +/-0.0 and +/-RHO_LIMIT; b holds both signed zeros."""
    sign = rng.choice([-1.0, 1.0], 24)
    rhos = np.concatenate([
        rng.uniform(-0.9, 0.9, 28), sign[:12] * rng.uniform(0.9, 0.925, 12),
        sign[12:] * rng.uniform(0.925, 0.999, 12),
        [0.0, -0.0, RHO_LIMIT, -RHO_LIMIT, 0.925, -0.925, 0.5, -0.5]])
    rho = np.repeat(rhos, repeats)
    b = rng.normal(0.0, 3.0, rho.size)
    b[::9] = 0.0
    b[4::9] = -0.0
    order = rng.permutation(rho.size)
    return b[order], rho[order]


def test_quadrant_kernel_with_repeated_correlations_matches_h0_reference():
    b, rho = _grid_like_rows(np.random.default_rng(91))
    assert np.unique(rho.view(np.int64)).size == 60
    q00 = quadrant_laws(b, rho)[:, 0, 0]
    ref = np.clip(orthant_at_origin_reference(b, rho, std_normal_cdf_array(-b)), 0.0, 1.0)
    assert q00.tobytes() == ref.tobytes()


def test_orthant_kernel_with_repeated_correlations_matches_per_point_kernel():
    # the node tables, built once per distinct rho and gathered, give the bits
    # of the per-point kernel at general (h, k) too
    rng = np.random.default_rng(92)
    k, rho = _grid_like_rows(rng)
    h = rng.normal(0.0, 2.0, rho.size)
    h[:30] = rng.uniform(-37.0, 37.0, 30)  # the kernel's domain is |h|, |k| <= _CDF_FLAT
    assert np.all(h != 0.0)
    args = (h, k, rho, std_normal_cdf_array(-h), std_normal_cdf_array(-k))
    assert _upper_orthant(*args).tobytes() == upper_orthant_per_point(*args).tobytes()


def test_quadrant_distribution_is_one_row_of_the_kernel():
    rng = np.random.default_rng(84)
    for _ in range(50):
        st = mix_tmsv_with_jammer(rng.uniform(0.1, 2.0), rng.uniform(0.0, 1.0),
                                  JammerGaussian(A=0.5, B=0.5, a=rng.normal(0.0, 2.0)))
        biv = homodyne_xx(st)
        q = quadrant_distribution(biv)
        b = biv.mean[1] / math.sqrt(biv.cov[1, 1])
        assert q.as_array().tolist() == quadrant_laws([b], [correlation_coefficient(biv)])[0].tolist()
        ref = quadrant_distribution_adaptive(biv)
        assert np.abs(q.as_array() - ref.as_array()).max() <= 1e-12


def test_quadrant_kernel_checks_reject_bad_rows():
    assert quadrant_laws([], []).shape == (0, 2, 2)
    for b, rho in (([np.nan], [0.5]), ([0.3], [np.nan]), ([np.nan], [0.97]),
                   ([0.0], [RHO_LIMIT + 1e-10]), ([0.0], [-1.0]), ([np.inf], [0.99])):
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            quadrant_laws(b, rho)
    with pytest.raises(ValueError):
        quadrant_laws([0.1, 0.2], [0.5])


def test_quadrant_laws_of_a_large_batch_are_those_of_its_blocks(monkeypatch):
    # the kernel sees at most 2048 rows per call, so a batch of any size
    # gives each row the bits of the same call on its block alone; rho spans
    # both kernel branches
    rng = np.random.default_rng(67)
    b = rng.normal(0.0, 3.0, 5000)
    rho = rng.uniform(-RHO_LIMIT, RHO_LIMIT, 5000)
    parts = [quadrant_laws(b[lo:hi], rho[lo:hi])
             for lo, hi in ((0, 2048), (2048, 4096), (4096, 5000))]
    rows = []

    def recording(h, *args):
        rows.append(len(h))
        return _upper_orthant(h, *args)

    monkeypatch.setattr(bivariate, "_upper_orthant", recording)
    assert quadrant_laws(b, rho).tobytes() == np.concatenate(parts).tobytes()
    assert rows == [2048, 2048, 904]


def test_a_quadrant_law_row_is_its_one_row_call_in_any_batch():
    # the kernel adds its Gauss-Legendre nodes in one fixed order, so a row's
    # bits follow from its (b, rho) alone: not from the batch size (across the
    # 2048-row block), the other rows, their order or the rows sharing its
    # rho table. Both kernel branches, signed zeros and the |rho| limit appear.
    rng = np.random.default_rng(2026)
    rhos = np.concatenate([rng.uniform(-RHO_LIMIT, RHO_LIMIT, 150),
                           rng.uniform(0.9, RHO_LIMIT, 50) * rng.choice([-1.0, 1.0], 50),
                           [0.0, -0.0, RHO_LIMIT, -RHO_LIMIT, 0.925, -0.925,
                            np.nextafter(0.925, 0.0), np.nextafter(-0.925, 0.0)]])
    b = rng.normal(0.0, 2.0, 5000)
    rho = rng.choice(rhos, 5000)
    b[:16] = [0.0, -0.0] * 8
    rho[:16] = np.repeat(rhos[-8:], 2)
    alone = np.concatenate([quadrant_laws(b[i:i + 1], rho[i:i + 1]) for i in range(5000)])
    for n in (1, 2, 3, 2047, 2048, 2049, 5000):
        rows = rng.permutation(5000)[:n]
        assert quadrant_laws(b[rows], rho[rows]).tobytes() == alone[rows].tobytes(), n
    order = rng.permutation(5000)
    assert quadrant_laws(b[order], rho[order]).tobytes() == alone[order].tobytes()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False), _RHO),
                min_size=1, max_size=16))
def test_quadrant_laws_lie_on_the_affine_hull(rows):
    # the sender's record is centred, so its bit is a fair coin: q00 + q01
    # = 1/2, the affine hull on which barycentric coordinates are defined
    b, rho = zip(*rows)
    q = quadrant_laws(list(b), list(rho))
    assert np.all(np.abs(q[:, 0, 0] + q[:, 0, 1] - 0.5) <= 1e-15), rows


def test_quadrant_kernel_far_tails_near_unit_correlation():
    # past |b| of about 1e77 the near-|rho| = 1 series overflowed and met an
    # exact zero (0 * inf = NaN); the law is the receiver bit's certainty
    # times the sender's fair coin
    for b in (1e50, 1e77, 1e100, 1e300, np.finfo(float).max):
        for rho in (0.925, 0.95, -0.95, RHO_LIMIT, -RHO_LIMIT):
            q = quadrant_laws([b, -b], [rho, rho])
            assert q[0].tolist() == [[0.0, 0.5], [0.0, 0.5]], (b, rho)
            assert q[1].tolist() == [[0.5, 0.0], [0.5, 0.0]], (b, rho)


def test_quadrant_kernel_far_tails_away_from_unit_correlation():
    # the asin-form integrand squared b before any clipping, so h^2 + k^2
    # overflowed from |b| of about 1.3e154; the law is the same as near
    # |rho| = 1
    with np.errstate(over="raise", invalid="raise"):
        for b in (1e155, 1e300, np.finfo(float).max):
            for rho in (0.0, 0.5, -0.5, 0.92, -0.92):
                q = quadrant_laws([b, -b], [rho, rho])
                assert q[0].tolist() == [[0.0, 0.5], [0.0, 0.5]], (b, rho)
                assert q[1].tolist() == [[0.5, 0.0], [0.5, 0.0]], (b, rho)


def test_scalar_correlation_and_information_match_python_float_references():
    # the scalar forms are one-row calls of the array forms; the references
    # are the scalar bodies they replaced
    rng = np.random.default_rng(36)
    rows = np.concatenate([
        rng.dirichlet(np.ones(4), 500).reshape(-1, 2, 2),
        quadrant_laws(rng.normal(0.0, 3.0, 500), rng.uniform(-RHO_LIMIT, RHO_LIMIT, 500)),
        [[[0.5, 0.0], [0.0, 0.5]], [[0.5, 0.0], [0.5, 0.0]], [[0.25, 0.25], [0.25, 0.25]]],
    ])
    undefined = 0
    for row in rows.tolist():
        q = BinaryJointDist(*row[0], *row[1])
        try:
            expected = mutual_information_bits_reference(q)
        except ZeroDivisionError:
            # a positive cell whose marginal product rounds to 0
            undefined += 1
            with pytest.raises(ValueError, match="marginal product 0"):
                mutual_information_bits(q)
        else:
            assert mutual_information_bits(q) == expected
        try:
            expected = binarized_correlation_reference(q)
        except ValueError:
            with pytest.raises(ValueError, match="deterministic bit"):
                binarized_correlation(q)
        else:
            assert binarized_correlation(q) == expected
    assert 0 < undefined < 50


def test_array_statistics_are_nan_only_in_undefined_rows():
    rows = np.array([
        [[0.25, 0.25], [0.25, 0.25]],
        [[0.5, 0.0], [0.5, 0.0]],  # v is always 0: no correlation, no information
        [[1e-24, 0.5], [0.0, 0.5 - 1e-24]],  # v's marginal rounds to 1; 00 > 0
        [[0.5, 0.0], [0.0, 0.5]],
        [[1e-10, 0.0], [0.5, 0.5 + 1e-10]],  # u's marginal is past 1; 00 > 0
    ])
    corr = binarized_correlation_array(rows)
    info = mutual_information_bits_array(rows)
    assert np.isnan(corr).tolist() == [False, True, True, False, True]
    assert np.isnan(info).tolist() == [False, False, True, False, True]
    with pytest.raises(ValueError, match="marginal product 0"):
        mutual_information_bits(BinaryJointDist(*rows[4].ravel()))
    for i in (0, 3):
        law = BinaryJointDist(*rows[i].ravel())
        assert corr[i] == binarized_correlation(law)
        assert info[i] == mutual_information_bits(law)
    assert info[1] == 0.0


def test_binarized_correlation_limits():
    flat = BinaryJointDist(0.25, 0.25, 0.25, 0.25)
    assert binarized_correlation(flat) == pytest.approx(0.0, abs=1e-14)
    perfect = BinaryJointDist(0.5, 0.0, 0.0, 0.5)
    assert binarized_correlation(perfect) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        binarized_correlation(BinaryJointDist(0.5, 0.5, 0.0, 0.0))


def test_arcsine_law_values_and_quadrant_consistency():
    assert arcsine_law(0.0) == 0.0
    assert arcsine_law(1.0) == pytest.approx(1.0, abs=1e-14)
    assert arcsine_law(0.5) == pytest.approx(2.0 * math.asin(0.5) / math.pi, abs=1e-15)
    for rho in np.arange(0.1, 0.95, 0.1):
        biv = BivariateGaussian(np.zeros(2), np.array([[1.0, rho], [rho, 1.0]]))
        q = quadrant_distribution(biv)
        assert binarized_correlation(q) == pytest.approx(arcsine_law(float(rho)), abs=1e-10)


def test_mutual_information_limits_and_oracle_agreement():
    assert mutual_information_bits(BinaryJointDist(0.5, 0.0, 0.0, 0.5)) == pytest.approx(1.0)
    assert mutual_information_bits(BinaryJointDist(0.25, 0.25, 0.25, 0.25)) == pytest.approx(0.0, abs=1e-14)
    rng = np.random.default_rng(35)
    for _ in range(100):
        raw = rng.dirichlet(np.ones(4))
        q = BinaryJointDist(*raw)
        assert mutual_information_bits(q) == pytest.approx(
            mi_bits_from_joint(q.as_array()), abs=1e-12)
