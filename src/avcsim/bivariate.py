"""Bivariate normal marginals of homodyne outcomes and their sign statistics.

The central object is the joint distribution of the two x-quadrature
homodyne records (sender's kept mode, receiver's port). Sign binarization
turns it into a distribution on {0,1}^2 whose quadrant probabilities only
need the standard normal CDF and the bivariate normal CDF at the origin of
the first record.

One kernel computes the bivariate normal CDF: P(X > h, Y > k; rho) with fixed
20-node Gauss-Legendre rules in the form of Drezner & Wesolowsky (1990) as
refined by Genz ("Numerical computation of rectangular bivariate and
trivariate normal and t probabilities", Stat. Comput. 2004): the
asin-substituted Plackett integral for |rho| < 0.925, and Genz's expansion
about |rho| = 1 plus a corrected remainder integral above that.
`quadrant_laws` is its batch call at h = 0: arrays of standardized receiver
means b and correlations rho in, (N, 2, 2) laws out, with
`quadrant_distribution` as its one-row call. `bivariate_normal_cdf` is the
kernel's one-row call at general (x, y). The node tables (sin(t asin rho)
and cos^2 below the switch, the remainder's abscissae above it) depend on
rho alone; a kernel call (at most _BLOCK rows) builds them once per distinct
rho, node-major, and gathers them per point (one rho serves a jammer-grid
row, one A). Each operation is the per-point one and the nodes are added in
node order, so a row's law depends on its (b, rho) alone: not on the other
rows, their order or the BLAS kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianState

# Correlations this close to +/-1 are rejected rather than integrated.
RHO_LIMIT = 1.0 - 1e-9

# Rows per kernel call. The kernel holds (20 nodes x rows) temporaries, so
# `quadrant_laws` keeps each near 0.3 MB however many rows it is given; the
# geometry sweep evaluates its per-point stages in blocks of the same size.
_BLOCK = 2048

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
# The same rule mapped from [-1, 1] to [0, 1].
_UNIT_NODES = 0.5 * (_GL_NODES + 1.0)

# Above this |rho| the asin-substituted integrand is too steep near pi/2 for
# a fixed rule, and the kernel switches to Genz's expansion about |rho| = 1.
_GENZ_SWITCH = 0.925

# bivariate_normal_cdf moves arguments beyond +/-_CDF_FLAT onto it. That
# changes the CDF by at most Phi(-37) < 1e-299, and it caps -hk/2 at 684.5,
# so exp(-hk/2) in the kernel cannot overflow.
_CDF_FLAT = 37.0

# Near |rho| = 1 the kernel's polynomial in |h - k|^2 overflows from about
# |h - k| = 1e77, where the factors it multiplies, exp(-|h - k|^2 / 2(1 -
# rho^2)) and Phi(-|h - k| / sqrt(1 - rho^2)), have long been exact zeros
# (from |h - k| of about 15 at rho = 0.925). Capping |h - k| here keeps
# those products 0 instead of 0 * inf = NaN, and changes no other value.
# Below |rho| = 0.925, capping h and k keeps h^2 + k^2 (which overflows from
# about 1.3e154) finite; the integrand is an exact 0 from |h| or |k| of 40.
_GAP_CAP = 1e50

__all__ = [
    "BivariateGaussian",
    "BinaryJointDist",
    "std_normal_cdf",
    "std_normal_cdf_array",
    "bivariate_normal_pdf",
    "bivariate_normal_cdf",
    "homodyne_xx",
    "correlation_coefficient",
    "quadrant_distribution",
    "quadrant_laws",
    "binarized_correlation",
    "binarized_correlation_array",
    "arcsine_law",
    "mutual_information_bits",
    "mutual_information_bits_array",
]


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc, accurate in both tails."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _math_map(fn, x) -> np.ndarray:
    """fn, a `math` function, on each element of x: the same bits as the
    scalar route, which numpy's own ufuncs need not give (or lack, as erfc)."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(fn, x.ravel().tolist()), dtype=float, count=x.size).reshape(x.shape)


def std_normal_cdf_array(x: np.ndarray) -> np.ndarray:
    """std_normal_cdf elementwise, bit for bit."""
    return 0.5 * _math_map(math.erfc, -x / math.sqrt(2.0))


def bivariate_normal_pdf(x: float, y: float, rho: float) -> float:
    """Standard bivariate normal density with correlation rho, |rho| < 1.

    This is also the derivative of the bivariate CDF with respect to rho
    (Plackett's formula), which the CDF kernel integrates in asin form.
    """
    if not abs(rho) < 1.0:
        raise ValueError(f"correlation must satisfy |rho| < 1, got {rho}")
    om = 1.0 - rho * rho
    z = (x * x - 2.0 * rho * x * y + y * y) / (2.0 * om)
    return math.exp(-z) / (2.0 * math.pi * math.sqrt(om))


def bivariate_normal_cdf(x: float, y: float, rho: float) -> float:
    """P(Z1 <= x, Z2 <= y) for standard normals with correlation rho.

    A one-row call of the quadrant kernel: P(Z1 > -x, Z2 > -y). Measured
    against a 30-digit reference, the absolute error stays below 1e-15 for
    |rho| <= RHO_LIMIT. x and y are clipped to [-_CDF_FLAT, _CDF_FLAT].
    """
    for name, v in (("x", x), ("y", y), ("rho", rho)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    if abs(rho) > RHO_LIMIT:
        raise ValueError(f"|rho| must be <= {RHO_LIMIT}, got {rho}")
    x = min(_CDF_FLAT, max(-_CDF_FLAT, float(x)))
    y = min(_CDF_FLAT, max(-_CDF_FLAT, float(y)))
    p = _upper_orthant(np.array([-x]), np.array([-y]), np.array([float(rho)]),
                       np.array([std_normal_cdf(x)]), np.array([std_normal_cdf(y)]))
    return min(1.0, max(0.0, float(p[0])))


@dataclass(frozen=True)
class BivariateGaussian:
    """Mean (2,) and covariance (2, 2) of a nondegenerate bivariate normal."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float)
        cov = np.array(self.cov, dtype=float)
        if mean.shape != (2,) or cov.shape != (2, 2):
            raise ValueError("mean must be (2,) and cov (2, 2)")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError(f"mean and cov must be finite, got {mean} and {cov.tolist()}")
        if not abs(cov[0, 1] - cov[1, 0]) <= 1e-12:
            raise ValueError("covariance must be symmetric")
        if not (cov[0, 0] > 0 and cov[1, 1] > 0 and np.linalg.det(cov) > 1e-14):
            raise ValueError("covariance must be positive definite (nondegenerate)")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


def homodyne_xx(state: GaussianState) -> BivariateGaussian:
    """Joint distribution of the two x-quadrature homodyne records of a 2-mode state."""
    if state.n_modes != 2:
        raise ValueError(f"need a 2-mode state, got {state.n_modes} modes")
    idx = np.array([0, 2])
    return BivariateGaussian(state.mean[idx], state.cov[np.ix_(idx, idx)])


def correlation_coefficient(biv: BivariateGaussian) -> float:
    """Pearson correlation of the two components."""
    c = biv.cov
    return float(c[0, 1] / math.sqrt(c[0, 0] * c[1, 1]))


@dataclass(frozen=True)
class BinaryJointDist:
    """Joint distribution of two bits; q01 is P(first=0, second=1)."""

    q00: float
    q01: float
    q10: float
    q11: float

    def __post_init__(self):
        vals = (self.q00, self.q01, self.q10, self.q11)
        # each check is written to fail on NaN
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"probabilities must be finite, got {vals}")
        if not min(vals) >= -1e-9:
            raise ValueError(f"negative probability in {vals}")
        if not abs(sum(vals) - 1.0) <= 1e-9:
            raise ValueError(f"probabilities sum to {sum(vals)}, not 1")
        # wipe quadrature-scale negatives
        for name, v in zip(("q00", "q01", "q10", "q11"), vals):
            object.__setattr__(self, name, max(0.0, float(v)))

    def as_array(self) -> np.ndarray:
        """2x2 array indexed [first_bit, second_bit]."""
        return np.array([[self.q00, self.q01], [self.q10, self.q11]])

    @property
    def marginal_first(self) -> float:
        return self.q10 + self.q11

    @property
    def marginal_second(self) -> float:
        return self.q01 + self.q11


def _distinct_bits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct float64 bit patterns of x as floats (so -0.0 and +0.0, and
    NaNs of different payloads, stay apart), and each element's index among
    them."""
    keys, inverse = np.unique(x.view(np.int64), return_inverse=True)
    return keys.view(float), inverse


def _upper_orthant(h, k, rho, phi_mh, phi_mk) -> np.ndarray:
    """P(X > h, Y > k) for standard normals with correlation rho, elementwise.

    phi_mh and phi_mk hold Phi(-h) and Phi(-k). Genz's BVND: the Plackett
    integral in asin form for |rho| < 0.925, and above that his expansion
    about |rho| = 1 plus a remainder integral. At h = 0 every hk factor is an
    exact 1.0 or +0.0. exp(-hk/2) stays finite for |h|, |k| <= _CDF_FLAT.
    A branch no row falls in is skipped, which keeps one-row calls cheap.
    """
    near = np.abs(rho) >= _GENZ_SWITCH
    out = np.empty_like(h)
    for branch, rows in ((_orthant_far, ~near), (_orthant_near, near)):
        if rows.any():
            out[rows] = branch(h[rows], k[rows], rho[rows], phi_mh[rows], phi_mk[rows])
    return out


def _node_sum(f) -> np.ndarray:
    """Gauss-Legendre sum of node-major f, adding the nodes in node order."""
    total = f[0] * _GL_WEIGHTS[0]
    for j in range(1, len(_GL_WEIGHTS)):
        total += f[j] * _GL_WEIGHTS[j]
    return total


def _orthant_far(h, k, rho, phi_mh, phi_mk):
    # Phi(-h) Phi(-k) + (1/2pi) int_0^{asin rho} exp((hk sin t - hs) / cos^2 t) dt
    h = np.clip(h, -_GAP_CAP, _GAP_CAP)
    k = np.clip(k, -_GAP_CAP, _GAP_CAP)
    hk = h * k
    hs = (h * h + k * k) / 2.0
    rhos, inverse = _distinct_bits(rho)
    asr = np.arcsin(rhos)
    sn = np.sin(np.multiply.outer(_UNIT_NODES, asr))
    asr, f, cos2 = (np.take(t, inverse, axis=-1) for t in (asr, sn, 1.0 - sn * sn))
    # f = exp((sn hk - hs) / cos2) in place: a fresh 20 x N temporary per step
    # would cost more in page faults than its arithmetic
    f *= hk
    f -= hs
    f /= cos2
    np.exp(f, out=f)
    return phi_mh * phi_mk + asr * _node_sum(f) / (4.0 * math.pi)


def _orthant_near(h, k, rho, phi_mh, phi_mk):
    # |rho| -> 1: closed-form leading terms, then the remainder integral over
    # x in [0, sqrt(1 - rho^2)], where it is smooth. For rho < 0 the
    # expansion is about Y = -X, so k changes sign.
    k = np.where(rho > 0.0, k, -k)
    hk = h * k
    abs_b = np.minimum(np.abs(h - k), _GAP_CAP)
    bs = abs_b * abs_b
    rhos, inverse = _distinct_bits(rho)
    one_m = (1.0 - np.abs(rhos)) * (1.0 + np.abs(rhos))
    a = np.sqrt(one_m)
    xs = np.multiply.outer(_UNIT_NODES, a) ** 2
    rs = np.sqrt(1.0 - xs)
    one_m, a, xs, rs, rs2 = (np.take(t, inverse, axis=-1)
                               for t in (one_m, a, xs, rs, (1.0 + rs) ** 2))
    c, d = (4.0 - hk) / 8.0, (12.0 - hk) / 16.0
    v = a * np.exp(-0.5 * bs / one_m - 0.5 * hk) * (
        1.0 - c * (bs - one_m) * (1.0 - d * bs / 5.0) / 3.0 + c * d * one_m * one_m / 5.0)
    v -= (math.sqrt(2.0 * math.pi) * std_normal_cdf_array(-abs_b / a) * abs_b
          * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0) * np.exp(-0.5 * hk))
    g = np.exp(-0.5 * bs / xs - 0.5 * hk) * (
        np.exp(-0.5 * hk * xs / rs2) / rs - (1.0 + c * xs * (1.0 + d * xs)))
    v = -(v + 0.5 * a * _node_sum(g)) / (2.0 * math.pi)
    # rho < 0 tail: max(0, Phi(-h) - Phi(k)), in a form exact at h = 0
    tail = np.maximum((phi_mh - 0.5) + (phi_mk - 0.5), 0.0)
    return np.where(rho > 0.0, v + np.minimum(phi_mh, phi_mk), tail - v)


def quadrant_laws(b, rho) -> np.ndarray:
    """Quadrant laws of many sign pairs at once: out[i, u, v], bit = 1 for >= 0.

    Pair i is a centered first record and a second record with standardized
    mean b[i] = mean2/sigma2 and correlation rho[i]. q00 = Phi2(0, -b; rho),
    the rest follow from the marginals, so q00 + q01 = 1/2 holds identically.
    The checks and clipping of BinaryJointDist are applied to every row; each
    check fails on NaN. Measured against a 30-digit reference, the absolute
    error of q00 stays below 1e-15 for |rho| <= RHO_LIMIT. Any number of rows
    is taken, _BLOCK at a time, and a row's law does not depend on the other
    rows: it has the bits of a one-row call. At rho = 0, q00 = Phi(-b)/2 exactly.
    """
    b = np.asarray(b, dtype=float)
    rho = np.asarray(rho, dtype=float)
    if b.ndim != 1 or b.shape != rho.shape:
        raise ValueError(f"b and rho must be 1-D of one length, got {b.shape}, {rho.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError("standardized means b must be finite")
    if not np.all(np.abs(rho) <= RHO_LIMIT):
        raise ValueError(f"|rho| must be <= {RHO_LIMIT}, got max {np.max(np.abs(rho))}")
    phi_mb = std_normal_cdf_array(-b)
    q00 = np.empty_like(b)
    for lo in range(0, b.size, _BLOCK):
        part = slice(lo, lo + _BLOCK)
        q00[part] = _upper_orthant(np.zeros_like(b[part]), b[part], rho[part],
                                   np.full_like(b[part], 0.5), phi_mb[part])
    np.clip(q00, 0.0, 1.0, out=q00)
    q = np.stack([q00, 0.5 - q00, phi_mb - q00, 0.5 - phi_mb + q00], axis=-1)
    if not np.all(q >= -1e-9):
        raise ValueError(f"quadrant law has a negative or NaN probability (min {np.min(q)})")
    if not np.all(np.abs(q.sum(axis=-1) - 1.0) <= 1e-9):
        raise ValueError("quadrant law probabilities do not sum to 1")
    return np.maximum(q, 0.0).reshape(-1, 2, 2)


def quadrant_distribution(biv: BivariateGaussian) -> BinaryJointDist:
    """Quadrant probabilities of the sign pair, bit = 1 for a nonnegative record.

    Requires the first component (the sender's record) to be centered; the
    second may carry the jammer displacement. A one-row call of
    `quadrant_laws` with b = mean2/sigma2 and rho the correlation.
    """
    if not abs(biv.mean[0]) <= 1e-12:
        raise ValueError(f"first component must be centered, got mean {biv.mean[0]}")
    rho = correlation_coefficient(biv)
    b = biv.mean[1] / math.sqrt(biv.cov[1, 1])
    return BinaryJointDist(*quadrant_laws([b], [rho]).ravel().tolist())


def binarized_correlation(q: BinaryJointDist) -> float:
    """Pearson correlation of the two bits; a one-row call of binarized_correlation_array."""
    value = float(binarized_correlation_array(q.as_array()[None])[0])
    if math.isnan(value):
        raise ValueError("binarized correlation undefined for a deterministic bit")
    return value


def arcsine_law(rho: float) -> float:
    """Correlation of the sign pair of an unbiased bivariate normal: (2/pi) arcsin rho."""
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
    return 2.0 / math.pi * math.asin(rho)


def mutual_information_bits(q: BinaryJointDist) -> float:
    """Mutual information of the bit pair in bits; one row of mutual_information_bits_array."""
    value = float(mutual_information_bits_array(q.as_array()[None])[0])
    if math.isnan(value):
        raise ValueError("mutual information undefined: a positive cell has marginal product 0")
    return value


def _marginals_array(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """BinaryJointDist.marginal_first and marginal_second of (N, 2, 2) laws."""
    return q[:, 1, 0] + q[:, 1, 1], q[:, 0, 1] + q[:, 1, 1]


def binarized_correlation_array(q: np.ndarray) -> np.ndarray:
    """Pearson correlation of the two bits of each of (N, 2, 2) laws.

    NaN in a row with a deterministic bit, where the correlation is undefined.
    """
    pu, pv = _marginals_array(q)
    var_u, var_v = pu * (1.0 - pu), pv * (1.0 - pv)
    defined = (var_u > 0.0) & (var_v > 0.0)
    spread = np.sqrt(np.where(defined, var_u * var_v, 1.0))
    return np.where(defined, (q[:, 1, 1] - pu * pv) / spread, np.nan)


def mutual_information_bits_array(q: np.ndarray) -> np.ndarray:
    """Mutual information of the bit pair of each of (N, 2, 2) laws, in bits.

    Zero-probability cells are skipped, and the cells are added in the order
    00, 01, 10, 11. The logarithms are math.log2's, which numpy's vectorised
    log2 need not match in the last bit. A row is NaN where a positive cell's
    marginal product rounds to 0 or below (a marginal of 1 - 1e-24 or 1 + 1e-10).
    """
    pu, pv = _marginals_array(q)
    cells = q.reshape(-1, 4)
    marg = np.stack([(1.0 - pu) * (1.0 - pv), (1.0 - pu) * pv, pu * (1.0 - pv), pu * pv],
                    axis=-1)
    live = cells > 0.0
    undefined = live & (marg <= 0.0)
    ratio = np.divide(cells, marg, out=np.ones_like(cells), where=live & ~undefined)
    terms = np.where(live, cells * _math_map(math.log2, ratio), 0.0)
    # skipped cells add +0.0, which leaves the running sum unchanged: it starts
    # at +0.0 and so is never -0.0
    total = np.zeros(len(cells))
    for k in range(4):
        total += terms[:, k]
    total[undefined.any(axis=1)] = np.nan
    return total
