"""Hand-rolled reference implementations used to cross-check the package.

Most of this is deliberately independent of the code under test (and of
math.erf): the error function is evaluated from its Taylor series and a
Lentz continued fraction, tail probabilities use exact binomial
coefficients, and the Monte Carlo estimators report their own binomial
standard errors. The packed codebook stream is rebuilt bit by bit, and the
decoder is rerun in Python floats in its fixed summation order. The
rational simplex is the one the integer-preserving simplex replaced, the
adaptive quadrature and the h = 0 kernel are the bivariate CDFs that the
general-(h, k) kernel replaced, and the scalar sweep, the per-key grid
deduplication and the per-row CSV writer at the end are the per-state
routes that the package's array sweep replaced. The Python-float binarized
correlation and mutual information are the scalar bodies that became one-row
calls of the array forms, and the per-(f, u, v) vote-model loop is the one
that the XOR-mixing kernel replaced. Each is kept as the reference for its
replacement.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction
from itertools import repeat
from typing import Optional, Sequence, TextIO

import numpy as np

from avcsim.bivariate import (
    RHO_LIMIT,
    BinaryJointDist,
    BivariateGaussian,
    bivariate_normal_pdf,
    correlation_coefficient,
    homodyne_xx,
    std_normal_cdf,
    std_normal_cdf_array,
)
from avcsim.channels import (
    LP_FEAS_TOL,
    WITNESS_ATOL,
    ChannelTable,
    LpNumericalError,
    _symmetrizing_system,
    symmetrization_residual,
)
from avcsim.gaussian import SYMMETRY_ATOL, JammerGaussian, mix_tmsv_with_jammer
from avcsim.geometry import (
    CSV_COLUMNS,
    MEMBERSHIP_ATOL,
    EnergyBudget,
    SimplexCoords,
    _barycentric_arrays,
    _check_source,
    _coords_in_shrunken,
    _grid_candidates,
    _swept_blocks,
    barycentric,
)
from avcsim.protocol import (
    _MASK64,
    _TAG_CODEBOOK,
    JammerStrategy,
    SimConfig,
    _bpsk_flip_table,
    _pair_joint_table,
)

_SQRT_PI = 1.7724538509055160273


def erf_series(x: float) -> float:
    """Taylor series of erf; accurate to ~1e-15 for |x| <= 2."""
    term = x
    total = x
    n = 0
    while True:
        n += 1
        term *= -x * x / n
        inc = term / (2 * n + 1)
        total += inc
        if abs(inc) < 1e-18 * max(1.0, abs(total)):
            break
        if n > 200:
            raise RuntimeError("erf series failed to converge")
    return 2.0 * total / _SQRT_PI


def erfc_cf(x: float) -> float:
    """Continued fraction for erfc, x >= 2 (modified Lentz)."""
    c = 1e300
    d = 1.0 / x
    h = d
    for k in range(1, 300):
        a = k / 2.0  # erfc CF: all denominators x, numerators k/2
        d = 1.0 / (x + a * d)
        c = x + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    else:
        raise RuntimeError("erfc continued fraction failed to converge")
    return math.exp(-x * x) * h / _SQRT_PI


def erf_oracle(x: float) -> float:
    if x < 0:
        return -erf_oracle(-x)
    if x <= 2.0:
        return erf_series(x)
    return 1.0 - erfc_cf(x)


def erfc_oracle(x: float) -> float:
    if x < 0:
        return 2.0 - erfc_oracle(-x)
    if x <= 2.0:
        return 1.0 - erf_series(x)
    return erfc_cf(x)


def std_cdf_oracle(x: float) -> float:
    return 0.5 * erfc_oracle(-x / math.sqrt(2.0))


def mc_orthant(x: float, y: float, rho: float, n_samples: int,
               seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of P(Z1 <= x, Z2 <= y) and its standard error."""
    rng = np.random.Generator(np.random.Philox(seed))
    hits = 0
    left = n_samples
    s = math.sqrt(1.0 - rho * rho)
    while left > 0:
        batch = min(left, 1_000_000)
        z1 = rng.standard_normal(batch)
        z2 = rho * z1 + s * rng.standard_normal(batch)
        hits += int(np.count_nonzero((z1 <= x) & (z2 <= y)))
        left -= batch
    p = hits / n_samples
    return p, math.sqrt(max(p * (1.0 - p), 1e-12) / n_samples)


def mc_quadrants(mean2: float, var1: float, var2: float, cov: float,
                 n_samples: int, seed: int) -> np.ndarray:
    """Empirical sign-pair frequencies (bit = 1 for >= 0), first mean zero."""
    rng = np.random.Generator(np.random.Philox(seed))
    counts = np.zeros((2, 2), dtype=np.int64)
    rho = cov / math.sqrt(var1 * var2)
    s = math.sqrt(1.0 - rho * rho)
    left = n_samples
    while left > 0:
        batch = min(left, 1_000_000)
        z1 = rng.standard_normal(batch)
        z2 = rho * z1 + s * rng.standard_normal(batch)
        a = (math.sqrt(var1) * z1 >= 0).astype(np.int64)
        b = (mean2 + math.sqrt(var2) * z2 >= 0).astype(np.int64)
        np.add.at(counts, (a, b), 1)
        left -= batch
    return counts / n_samples


def binom_tail(n: int, k_min: int, p: float) -> float:
    """P(Bin(n, p) >= k_min), exact summation."""
    return sum(math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
               for k in range(k_min, n + 1))


def repetition_majority_error(n_rep: int, t: float) -> float:
    """Exact error of an n_rep-repetition code over a BSC(t), majority decode.

    Ties (even n_rep) count as errors for the transmitted bit 1, i.e. the
    tie-to-0 convention averaged over a uniform input bit.
    """
    half = n_rep / 2.0
    err_given_0 = binom_tail(n_rep, math.floor(half) + 1, t)
    err_given_1 = binom_tail(n_rep, math.ceil(half), t)
    return 0.5 * (err_given_0 + err_given_1)


def hamming_decoder(codebook: np.ndarray, y: np.ndarray) -> int:
    """Index of the codeword nearest in Hamming distance; ties to the lowest index."""
    return int(np.argmin((codebook != y).sum(axis=1)))


def random_codebook_reference(n_messages: int, length: int, master_seed: int,
                              strategy_idx: int, trial: int, seed_bits: np.ndarray,
                              block: int) -> np.ndarray:
    """`protocol.random_codebook` read bit by bit from `random_raw`, unpacked to int64.

    Row m reads stream bytes m*B to m*B + B - 1, with B = ceil(length / 8);
    stream byte k is byte k % 8 of 64-bit word k // 8, least significant
    first, and bit i of the row is bit i % 8 of its byte i // 8.
    """
    seed_int = 0
    for b in np.asarray(seed_bits, dtype=np.int64):
        seed_int = (seed_int << 1) | int(b)
    lo = ((strategy_idx & 0xFFFF) << 48) | ((trial & 0xFFFFFFFF) << 16) | _TAG_CODEBOOK
    hi = (master_seed ^ (seed_int * 0x9E3779B97F4A7C15) ^ (block << 1)) & _MASK64
    row_bytes = (length + 7) // 8
    n_words = (n_messages * row_bytes + 7) // 8
    words = np.random.Philox(key=np.array([lo, hi], dtype=np.uint64)).random_raw(n_words)
    words = [int(w) for w in words]
    rows = []
    for m in range(n_messages):
        row = []
        for i in range(length):
            k = m * row_bytes + i // 8
            byte = (words[k // 8] >> (8 * (k % 8))) & 0xFF
            row.append((byte >> (i % 8)) & 1)
        rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(n_messages, length)


def vote_model_reference(leaf: JammerStrategy, rounds: int, masks: np.ndarray,
                         config: SimConfig) -> np.ndarray:
    """`protocol._vote_model` by its per-(f, u, v) loop, the form it had before it
    read the XOR-effective channel: vote = y XOR mask XOR v for a sender input
    f XOR mask XOR u. Each cell gets its four terms in (u, v) order from 0.0.
    """
    qa = _pair_joint_table(*leaf.round_params(rounds, config.alpha, 0), config)
    p1 = _bpsk_flip_table(*leaf.round_params(rounds, config.alpha, config.k // 2),
                          config.alpha, config.eta)
    idx = np.arange(rounds)
    vm = np.zeros((rounds, 2, 2))
    for f in (0, 1):
        for u in (0, 1):
            py1 = p1[idx, f ^ masks ^ u]
            for v in (0, 1):
                weight = qa[:, u, v]
                vm[idx, f, 1 ^ masks ^ v] += weight * py1
                vm[idx, f, masks ^ v] += weight * (1.0 - py1)
    return vm


def _round_logliks(y: np.ndarray, p1: np.ndarray) -> list:
    """ll[h][i][x] = log P(y_i | x) under leaf h, as the decoder computes it."""
    p1 = np.clip(p1, 1e-300, 1.0 - 1e-16)
    return np.where(y[None, :, None] == 1, np.log(p1), np.log1p(-p1)).tolist()


def schedule_set_decoder_reference(bits: np.ndarray, y: np.ndarray, p1: np.ndarray) -> int:
    """`protocol.schedule_set_decoder` on an unpacked (M, L) 0/1 codebook, in Python floats.

    Adds in the decoder's fixed order: per leaf the x = 0 log-likelihoods
    round by round, then per byte column the differences of its set bits,
    lowest bit first, each column's sum added to the running score; then
    log-sum-exp over the leaves in leaf order. exp and log are numpy's, as
    in the decoder, since they need not match `math`'s in the last bit.
    """
    ll = _round_logliks(y, p1)
    length = len(ll[0])
    delta = [[row[i][1] - row[i][0] for i in range(length)] for row in ll]
    bases = []
    for row in ll:
        total = row[0][0]
        for i in range(1, length):
            total += row[i][0]
        bases.append(total)
    all_scores = []
    for word in np.asarray(bits).tolist():
        scores = []
        for base, d in zip(bases, delta):
            score = base
            for j in range(0, length, 8):
                column = 0.0
                for i in range(j, min(j + 8, length)):
                    if word[i]:
                        column += d[i]
                score += column
            scores.append(score)
        all_scores.append(scores)
    tops = [max(scores) for scores in all_scores]
    # numpy's exp and log give the same value for an element whatever the
    # array around it, so one call each serves every message
    exps = np.exp([[s - top for s in scores] for scores, top in zip(all_scores, tops)]).tolist()
    totals = []
    for row in exps:
        total = row[0]
        for e in row[1:]:
            total += e
        totals.append(total)
    values = [top + lg for top, lg in zip(tops, np.log(totals).tolist())]
    return values.index(max(values))


def schedule_set_exact_scores(bits: np.ndarray, y: np.ndarray, p1: np.ndarray) -> list:
    """Each message's mixture score from exact per-leaf log-likelihoods.

    Per leaf, the base log-likelihood plus the float differences of the set
    bits is summed exactly (as `Fraction`s, kept as integers over one
    power-of-two denominator) and rounded once to a float; the log-sum-exp
    over leaves is then in floats.
    """
    ll = _round_logliks(y, p1)
    words = np.asarray(bits, dtype=np.int64).astype(object)
    leaf_scores = []
    for row in ll:
        base = sum(Fraction(r[0]) for r in row)
        delta = [Fraction(r[1] - r[0]) for r in row]
        # every denominator is a power of two, so the largest is a common one
        den = max(f.denominator for f in delta + [base])
        nums = np.array([f.numerator * (den // f.denominator) for f in delta], dtype=object)
        base_num = base.numerator * (den // base.denominator)
        # int / int is correctly rounded: one rounding of the exact score
        leaf_scores.append([(base_num + n) / den for n in words @ nums])
    out = []
    for scores in zip(*leaf_scores):
        top = max(scores)
        out.append(top + math.log(sum(math.exp(s - top) for s in scores)))
    return out


def phase1_simplex_rational(a_mat: np.ndarray, b_vec: np.ndarray,
                            tol: float) -> Optional[np.ndarray]:
    """Nonnegative solution of A z = b, or None: Bland's rule on a Fraction tableau.

    Reduced costs are recomputed from scratch at every pivot; this is the
    simplex that `channels._phase1_simplex` makes the same pivots as.
    """
    m, n = a_mat.shape
    one, zero = Fraction(1), Fraction(0)
    rows = [[Fraction(x) for x in row] for row in a_mat]
    rhs = [Fraction(x) for x in b_vec]
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
    # tableau columns: n structural, m artificial, then the rhs
    tab = [rows[i] + [one if k == i else zero for k in range(m)] + [rhs[i]] for i in range(m)]
    basis = list(range(n, n + m))
    for _ in range(20000):
        reduced = [-one if j >= n else zero for j in range(n + m)]
        for i, bi in enumerate(basis):
            if bi >= n:
                row = tab[i]
                reduced = [r + x for r, x in zip(reduced, row[:-1])]
        enter = -1
        for j in range(n + m):  # Bland: first improving column
            if reduced[j] > 0 and j not in basis:
                enter = j
                break
        if enter < 0:
            break
        best_i, best_ratio = -1, None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best_i < 0 or ratio < best_ratio or (
                    ratio == best_ratio and basis[i] < basis[best_i]
                ):
                    best_i, best_ratio = i, ratio
        if best_i < 0:
            raise LpNumericalError("phase-1 objective unbounded; inconsistent tableau")
        piv = tab[best_i][enter]
        tab[best_i] = [x / piv for x in tab[best_i]]
        pivot_row = tab[best_i]
        for i in range(m):
            factor = tab[i][enter]
            if i != best_i and factor != 0:
                tab[i] = [x - factor * y for x, y in zip(tab[i], pivot_row)]
        basis[best_i] = enter
    else:
        raise LpNumericalError("phase-1 simplex hit the iteration cap")
    residual_obj = sum(tab[i][-1] for i, bi in enumerate(basis) if bi >= n)
    if residual_obj > Fraction(tol):
        return None
    z = np.zeros(n)
    for i, bi in enumerate(basis):
        if bi < n:
            z[bi] = float(tab[i][-1])
    return np.maximum(z, 0.0)


def symmetrizability_lp_reference(table: ChannelTable) -> Optional[np.ndarray]:
    """`channels.symmetrizability_lp` on the rational simplex."""
    z = phase1_simplex_rational(*_symmetrizing_system(table), LP_FEAS_TOL)
    if z is None:
        return None
    u = z.reshape(len(table.inputs), len(table.states))
    if symmetrization_residual(table, u) > WITNESS_ATOL:
        raise LpNumericalError("feasible point failed the witness recheck")
    return u


def random_physical_cov(rng: np.random.Generator, n_modes: int) -> np.ndarray:
    """A random valid covariance: M M^T + I/2 is physical for any real M."""
    m = rng.standard_normal((2 * n_modes, 2 * n_modes)) * 0.7
    return m @ m.T + 0.5 * np.eye(2 * n_modes)


def entropy_bits(probs) -> float:
    return float(-sum(p * math.log2(p) for p in probs if p > 0.0))


def mi_bits_from_joint(joint: np.ndarray) -> float:
    """I(U;V) in bits from a finite joint distribution, direct summation."""
    joint = np.asarray(joint, dtype=float)
    pu = joint.sum(axis=1)
    pv = joint.sum(axis=0)
    total = 0.0
    for i in range(joint.shape[0]):
        for j in range(joint.shape[1]):
            if joint[i, j] > 0.0:
                total += joint[i, j] * math.log2(joint[i, j] / (pu[i] * pv[j]))
    return total


# --- bivariate normal CDF references ----------------------------------------
#
# The adaptive Plackett quadrature the package's CDF kernel replaced, and the
# h = 0 kernel as it stood before it took general (h, k): the reference that
# the kernel's h = 0 rows must match bit for bit.

# Absolute accuracy target of the adaptive CDF. The quadrature refines each
# panel until the two-level difference is below PANEL_TOL, so the
# accumulated error stays well under CDF_ATOL.
CDF_ATOL = 1e-10
PANEL_TOL = 1e-12
_MAX_PANELS = 4096

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_UNIT_NODES = 0.5 * (_GL_NODES + 1.0)


def _panel(x: float, y: float, a: float, b: float) -> float:
    # 20-node Gauss-Legendre on the rho-integral over [a, b]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    acc = 0.0
    for node, wt in zip(_GL_NODES, _GL_WEIGHTS):
        acc += wt * bivariate_normal_pdf(x, y, mid + half * node)
    return half * acc


def bivariate_normal_cdf_adaptive(x: float, y: float, rho: float) -> float:
    """P(Z1 <= x, Z2 <= y) as Phi(x) Phi(y) plus the integral of the density
    over correlations [0, rho] (Plackett's formula), with adaptive
    Gauss-Legendre panels. Absolute error is bounded by CDF_ATOL."""
    if abs(rho) > RHO_LIMIT:
        raise ValueError(f"|rho| must be <= {RHO_LIMIT}, got {rho}")
    base = std_normal_cdf(x) * std_normal_cdf(y)
    if rho == 0.0:
        return base
    total = 0.0
    stack = [(0.0, rho)]
    panels = 0
    while stack:
        a, b = stack.pop()
        panels += 1
        if panels > _MAX_PANELS:
            raise ArithmeticError(
                f"bivariate CDF quadrature did not converge at ({x}, {y}, {rho})"
            )
        coarse = _panel(x, y, a, b)
        mid = 0.5 * (a + b)
        fine = _panel(x, y, a, mid) + _panel(x, y, mid, b)
        if abs(fine - coarse) <= PANEL_TOL or abs(b - a) < 1e-14:
            total += fine
        else:
            stack.append((a, mid))
            stack.append((mid, b))
    return min(1.0, max(0.0, base + total))


def orthant_at_origin_reference(b: np.ndarray, rho: np.ndarray,
                                phi_mb: np.ndarray) -> np.ndarray:
    """Phi2(0, -b; rho) = P(X > 0, Y > b), elementwise; phi_mb holds Phi(-b).

    Genz's BVND with h = 0 and k = b, so the hk terms of his expansion vanish.
    """
    out = np.empty_like(b)
    near = np.abs(rho) >= 0.925
    far = ~near

    # Phi(-b)/2 + (1/2pi) int_0^{asin rho} exp(-b^2 / (2 cos^2 t)) dt
    bf = b[far]
    asr = np.arcsin(rho[far])
    sn = np.sin(np.multiply.outer(asr, _UNIT_NODES))
    f = np.exp(-0.5 * (bf * bf)[:, None] / (1.0 - sn * sn))
    out[far] = 0.5 * phi_mb[far] + asr * (f @ _GL_WEIGHTS) / (4.0 * math.pi)

    # |rho| -> 1: closed-form leading terms, then the remainder integral over
    # x in [0, sqrt(1 - rho^2)], where it is smooth.
    bn, rn = b[near], rho[near]
    bs = bn * bn
    one_m = (1.0 - np.abs(rn)) * (1.0 + np.abs(rn))
    a = np.sqrt(one_m)
    c, d = 0.5, 0.75  # Genz's (4 - hk)/8 and (12 - hk)/16
    v = a * np.exp(-0.5 * bs / one_m) * (
        1.0 - c * (bs - one_m) * (1.0 - d * bs / 5.0) / 3.0 + c * d * one_m * one_m / 5.0)
    abs_b = np.abs(bn)
    v -= (math.sqrt(2.0 * math.pi) * std_normal_cdf_array(-abs_b / a) * abs_b
          * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0))
    half = 0.5 * a
    xs = np.multiply.outer(a, _UNIT_NODES) ** 2
    g = np.exp(-0.5 * bs[:, None] / xs) * (1.0 / np.sqrt(1.0 - xs) - (1.0 + c * xs * (1.0 + d * xs)))
    v = -(v + half * (g @ _GL_WEIGHTS)) / (2.0 * math.pi)
    phi = phi_mb[near]
    out[near] = np.where(rn > 0.0, v + np.minimum(phi, 0.5), np.maximum(phi - 0.5, 0.0) - v)
    return out


def bivariate_normal_cdf_mp(x: float, y: float, rho: float, dps: int = 30) -> float:
    """P(Z1 <= x, Z2 <= y) to dps digits with mpmath (imported on use).

    Integrates phi(t) Phi((y - rho t) / sqrt(1 - rho^2)) over t <= x, with a
    breakpoint at t = y / rho, where the inner CDF steps as |rho| -> 1.
    """
    import mpmath

    with mpmath.workdps(dps):
        x_, y_, r = mpmath.mpf(x), mpmath.mpf(y), mpmath.mpf(rho)
        s = mpmath.sqrt((1 - r) * (1 + r))

        def f(t):
            return mpmath.npdf(t) * mpmath.ncdf((y_ - r * t) / s)

        points = [-mpmath.inf, x_]
        if r != 0 and y_ / r < x_:
            points.insert(1, y_ / r)
        return float(mpmath.quad(f, points))


# --- scalar sweep reference --------------------------------------------------
#
# One jammer state at a time: JammerGaussian objects, mix_tmsv_with_jammer
# (with its 4x4 eigvals physicality check), homodyne_xx, and the quadrant law
# from the adaptive CDF above; delta* by 40-step bisection.


def jammer_grid_scalar(budget: EnergyBudget, resolution: int) -> list[JammerGaussian]:
    """The jammer grid built point by point, with 12-digit deduplication."""
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    e = budget.alpha_sq
    alpha = budget.alpha
    anchors = [
        JammerGaussian(A=0.5, B=0.5),
        JammerGaussian(A=0.5, B=0.5, a=math.sqrt(2.0) * alpha),
        JammerGaussian(A=0.5, B=0.5, a=-math.sqrt(2.0) * alpha),
        JammerGaussian(A=0.5 * (2.0 * e + 1.0), B=0.5 * (2.0 * e + 1.0)),
    ]
    points: list[JammerGaussian] = []
    seen: set = set()
    for tau in anchors:
        key = (round(tau.A, 12), round(tau.a, 12))
        if key not in seen:
            seen.add(key)
            points.append(tau)
    g = 2.0 * e + 1.0
    disc = math.sqrt(max(g * g - 1.0, 0.0))
    a_lo, a_hi = 0.5 * (g - disc), 0.5 * (g + disc)
    for i in range(resolution):
        big_a = a_lo + (a_hi - a_lo) * i / (resolution - 1)
        spare = max(g - big_a - 0.25 / big_a, 0.0)
        a_max = math.sqrt(spare)
        for j in range(resolution):
            a = -a_max + 2.0 * a_max * j / (resolution - 1) if a_max > 0 else 0.0
            key = (round(big_a, 12), round(a, 12))
            if key not in seen:
                seen.add(key)
                points.append(JammerGaussian(A=big_a, B=0.25 / big_a, a=a))
            if a_max == 0.0:
                break
    return points


def quadrant_distribution_adaptive(biv: BivariateGaussian) -> BinaryJointDist:
    """Sign-pair law from the adaptive CDF: q00 = Phi2(0, -b; rho)."""
    if abs(biv.mean[0]) > 1e-12:
        raise ValueError(f"first component must be centered, got mean {biv.mean[0]}")
    rho = correlation_coefficient(biv)
    b = float(biv.mean[1] / math.sqrt(biv.cov[1, 1]))
    q00 = bivariate_normal_cdf_adaptive(0.0, -b, rho)
    phi_mb = std_normal_cdf(-b)
    return BinaryJointDist(q00, 0.5 - q00, phi_mb - q00, 0.5 - phi_mb + q00)


def sweep_scalar(budget: EnergyBudget, r: float, eta: float,
                 resolution: int) -> list[tuple[JammerGaussian, BinaryJointDist, float]]:
    """(jammer, quadrant law, x-x correlation) per grid state, one state at a time."""
    out = []
    for tau in jammer_grid_scalar(budget, resolution):
        biv = homodyne_xx(mix_tmsv_with_jammer(r, eta, tau))
        out.append((tau, quadrant_distribution_adaptive(biv), correlation_coefficient(biv)))
    return out


def largest_delta_bisection(coords: Sequence[SimplexCoords]) -> float:
    """Largest delta keeping every point inside the shrunken triangle (bisection)."""
    if not coords:
        raise ValueError("sweep produced no points")

    def ok(delta: float) -> bool:
        return all(_coords_in_shrunken(c, delta, MEMBERSHIP_ATOL) for c in coords)

    if ok(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def delta_star_scalar(budget: EnergyBudget, r: float, eta: float = 0.5) -> float:
    """compute_delta_star's resolution ladder on the scalar sweep and bisection."""
    resolution = 16
    last = None
    while True:
        coords = [barycentric(q) for _, q, _ in sweep_scalar(budget, r, eta, resolution)]
        value = largest_delta_bisection(coords)
        if last is not None and abs(value - last) < 1e-4:
            return value
        if resolution >= 512:
            return value
        last = value
        resolution *= 2


# --- per-key grid deduplication and per-row sweep CSV ------------------------


def first_of_each_key_reference(cand_a: np.ndarray, cand_d: np.ndarray) -> np.ndarray:
    """Indices of the first candidate of each (A, a) key rounded by Python's round(., 12)."""
    keys = list(zip(map(round, cand_a.tolist(), repeat(12)),
                    map(round, cand_d.tolist(), repeat(12))))
    first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    return np.sort(np.fromiter(first.values(), dtype=np.intp, count=len(first)))


def grid_arrays_reference(budget: EnergyBudget,
                          resolution: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`geometry._grid_arrays` with one Python round key per candidate point."""
    cand_a, cand_b, cand_d = _grid_candidates(budget, resolution)
    idx = first_of_each_key_reference(cand_a, cand_d)
    big_a, big_b, disp = cand_a[idx], cand_b[idx], cand_d[idx]
    ok = (big_a > 0.0) & (big_b > 0.0) & (big_a * big_b >= 0.25 - SYMMETRY_ATOL)
    if not np.all(ok):
        raise ValueError("jammer grid holds an unphysical single-mode covariance")
    return big_a, big_b, disp


def binarized_correlation_reference(q: BinaryJointDist) -> float:
    """Pearson correlation of the two bits, in Python floats."""
    pu, pv = q.marginal_first, q.marginal_second
    var_u, var_v = pu * (1.0 - pu), pv * (1.0 - pv)
    if var_u <= 0.0 or var_v <= 0.0:
        raise ValueError("binarized correlation undefined for a deterministic bit")
    return float((q.q11 - pu * pv) / math.sqrt(var_u * var_v))


def mutual_information_bits_reference(q: BinaryJointDist) -> float:
    """Mutual information of the bit pair in bits, in Python floats, cells in the
    order 00, 01, 10, 11; zero-probability cells are skipped."""
    pu, pv = q.marginal_first, q.marginal_second
    marg = {
        (0, 0): (1.0 - pu) * (1.0 - pv),
        (0, 1): (1.0 - pu) * pv,
        (1, 0): pu * (1.0 - pv),
        (1, 1): pu * pv,
    }
    cells = {(0, 0): q.q00, (0, 1): q.q01, (1, 0): q.q10, (1, 1): q.q11}
    total = 0.0
    for uv, p in cells.items():
        if p > 0.0:
            total += p * math.log2(p / marg[uv])
    return total


def sweep_csv_reference(budget: EnergyBudget, r: float, eta: float, resolution: int,
                        fh: TextIO) -> int:
    """The sweep CSV built one row at a time: a BinaryJointDist, SimplexCoords, the
    scalar correlation and mutual information above, and csv.writer.

    Returns the number of rows written.
    """
    _check_source(r, eta)
    blocks = list(_swept_blocks(budget, r, eta, resolution))
    big_a, _, disp, q, rho = (np.concatenate(parts) for parts in zip(*blocks))
    coords = np.column_stack(_barycentric_arrays(q))
    writer = csv.writer(fh)
    writer.writerow(CSV_COLUMNS)
    for x, z, cells, lam, corr in zip(big_a.tolist(), disp.tolist(),
                                      q.reshape(-1, 4).tolist(), coords.tolist(),
                                      rho.tolist()):
        law = BinaryJointDist(*cells)
        point = SimplexCoords(*lam)
        writer.writerow([
            repr(x), repr(z),
            repr(law.q00), repr(law.q01), repr(law.q10), repr(law.q11),
            repr(point.lambda_c), repr(point.lambda_0), repr(point.lambda_1),
            repr(corr), repr(binarized_correlation_reference(law)),
            repr(mutual_information_bits_reference(law)),
        ])
    return big_a.size
