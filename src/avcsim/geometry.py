"""Simplex geometry of sign-bit joint distributions under a jammer energy budget.

The achievable joint distributions q(u, v) of the binarized quadratures form
a curve inside the triangle spanned by the perfectly-correlated distribution
q_c and the two one-sided product distributions q_0, q_1. This module
computes barycentric coordinates in that triangle, membership in its shrunken
version, and the containment margin delta* for a swept family of Gaussian
jammer states.

The sweep is one array path: the jammer grid as arrays (A, B, a), the
closed-form receiver-port moments, the batch quadrant kernel
`bivariate.quadrant_laws`, and barycentric coordinates, evaluated in blocks of
_BLOCK points so temporaries stay small. Every check the scalar route made per
state (single-mode and two-mode physicality, a positive-definite homodyne
covariance, the quadrant-law bounds, the affine hull and the coordinate sum)
is made on the whole block, and fails on NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, TextIO

import numpy as np

from .bivariate import (
    _BLOCK,
    BinaryJointDist,
    _distinct_bits,
    binarized_correlation_array,
    mutual_information_bits_array,
    quadrant_distribution,  # noqa: F401  perfbench traces this module attribute
    quadrant_laws,
)
from .gaussian import (
    PHYSICALITY_ATOL,
    SYMMETRY_ATOL,
    JammerGaussian,
    _check_squeezing,
    mix_tmsv_with_jammer,  # noqa: F401  perfbench traces this module attribute
    receiver_port_moments,
)

COORD_SUM_ATOL = 1e-10
MEMBERSHIP_ATOL = 1e-10
AFFINE_HULL_ATOL = 1e-8

# Rows per sweep_to_csv write: about 0.1 MB of text.
_CSV_ROWS = 512

__all__ = [
    "SimplexCoords",
    "EnergyBudget",
    "SweepColumns",
    "vertices",
    "from_barycentric",
    "barycentric",
    "in_delta_delta",
    "default_squeezing",
    "jammer_grid",
    "sweep_records",
    "compute_delta_star",
    "sweep_to_csv",
    "CSV_COLUMNS",
]


@dataclass(frozen=True)
class SimplexCoords:
    """Barycentric coordinates (lambda_c, lambda_0, lambda_1); must sum to 1."""

    lambda_c: float
    lambda_0: float
    lambda_1: float

    def __post_init__(self):
        total = self.lambda_c + self.lambda_0 + self.lambda_1
        if abs(total - 1.0) > COORD_SUM_ATOL:
            raise ValueError(f"barycentric coordinates must sum to 1, got {total}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.lambda_c, self.lambda_0, self.lambda_1)

    def in_simplex(self) -> bool:
        return min(self.as_tuple()) >= -MEMBERSHIP_ATOL


@dataclass(frozen=True)
class EnergyBudget:
    """Mean photons per symbol allowed to each of sender and jammer."""

    alpha_sq: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha_sq) and self.alpha_sq >= 0):
            raise ValueError(f"energy budget must be finite and nonnegative, got {self.alpha_sq}")

    @property
    def alpha(self) -> float:
        return math.sqrt(self.alpha_sq)


def vertices() -> tuple[BinaryJointDist, BinaryJointDist, BinaryJointDist]:
    """The triangle corners: common coin q_c, and uniform-u products q_0, q_1."""
    q_c = BinaryJointDist(0.5, 0.0, 0.0, 0.5)
    q_0 = BinaryJointDist(0.5, 0.0, 0.5, 0.0)
    q_1 = BinaryJointDist(0.0, 0.5, 0.0, 0.5)
    return q_c, q_0, q_1


def from_barycentric(coords: SimplexCoords) -> BinaryJointDist:
    """Mixture lambda_c q_c + lambda_0 q_0 + lambda_1 q_1 (coords must be in the simplex)."""
    lc, l0, l1 = coords.as_tuple()
    return BinaryJointDist(
        0.5 * (lc + l0), 0.5 * l1, 0.5 * l0, 0.5 * (lc + l1)
    )


def barycentric(q: BinaryJointDist) -> SimplexCoords:
    """Coordinates of q in the q_c/q_0/q_1 triangle.

    Defined only on the affine hull, where q00 + q01 = 1/2; there the
    decomposition is unique: lambda_0 = 2 q10, lambda_1 = 2 q01. Entries may
    be negative for q outside the triangle itself. A one-row call of
    _barycentric_arrays.
    """
    return SimplexCoords(*(float(x[0]) for x in _barycentric_arrays(q.as_array()[None])))


def _coords_in_shrunken(coords: SimplexCoords, delta: float, atol: float) -> bool:
    # Vertices q~_i = (1-delta) q_i + delta q_c, so mu_i = lambda_i / (1-delta).
    lc, l0, l1 = coords.as_tuple()
    if delta >= 1.0:
        return abs(l0) <= atol and abs(l1) <= atol
    scale = 1.0 - delta
    mu0 = l0 / scale
    mu1 = l1 / scale
    return mu0 >= -atol and mu1 >= -atol and 1.0 - mu0 - mu1 >= -atol


def in_delta_delta(q: BinaryJointDist, delta: float) -> bool:
    """Membership of q in the delta-shrunken triangle conv({q_c, q~_0, q~_1})."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    return _coords_in_shrunken(barycentric(q), delta, MEMBERSHIP_ATOL)


def default_squeezing(budget: EnergyBudget) -> float:
    """Squeezing that spends the whole sender budget: sinh^2 r = alpha^2."""
    return math.asinh(budget.alpha)


def _grid_candidates(budget: EnergyBudget,
                     resolution: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, B, a) of the anchors and every grid row, duplicates included."""
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    e = budget.alpha_sq
    edge = math.sqrt(2.0) * budget.alpha
    thermal = 0.5 * (2.0 * e + 1.0)
    # A + 1/(4A) <= 2e + 1 bounds the variance range; the rest goes to a^2/2.
    g = 2.0 * e + 1.0
    disc = math.sqrt(max(g * g - 1.0, 0.0))
    a_lo, a_hi = 0.5 * (g - disc), 0.5 * (g + disc)
    if not a_lo > 0.0:
        raise ValueError(f"jammer budget alpha^2 = {e!r} is too large: the grid's "
                         "least jammer variance rounds to 0")
    steps = np.arange(resolution)
    big_a = a_lo + (a_hi - a_lo) * steps / (resolution - 1)
    a_max = np.sqrt(np.maximum(g - big_a - 0.25 / big_a, 0.0))[:, None]
    spread = a_max > 0.0
    disp = np.where(spread, -a_max + 2.0 * a_max * steps / (resolution - 1), 0.0)
    keep = spread | (steps == 0)  # a row with no displacement room is one point
    rows = np.broadcast_to(big_a[:, None], keep.shape)[keep]
    cand_a = np.concatenate([[0.5, 0.5, 0.5, thermal], rows])
    cand_b = np.concatenate([[0.5, 0.5, 0.5, thermal], 0.25 / rows])
    cand_d = np.concatenate([[0.0, edge, -edge, 0.0], disp[keep]])
    return cand_a, cand_b, cand_d


def _near_chains(values: np.ndarray) -> np.ndarray:
    """Label of each value's chain of sorted neighbours less than 2e-12 apart.

    Doubles x, y with round(x, 12) == round(y, 12) lie in one chain: each is
    within 0.5e-12 of its 12-digit decimal, and those decimals round to one
    double K, so |x - y| <= 1e-12 + ulp(K). Where ulp(K) <= 2^-40 that is
    below 2e-12; where the doubles are 2^-39 or more apart, round(x, 12) is
    x itself and distinct doubles never share a key.
    """
    order = np.argsort(values, kind="stable")
    labels = np.empty(values.size, dtype=np.int64)
    labels[order] = np.concatenate(([0], np.cumsum(np.diff(values[order]) >= 2e-12)))
    return labels


def _first_of_each_key(cand_a: np.ndarray, cand_d: np.ndarray) -> np.ndarray:
    """Indices, ascending, of the first candidate of each (round(A, 12), round(a, 12)) key.

    Equal keys need both coordinates in one near chain, so Python's round is
    taken only for candidates that share their pair of chains with another;
    every other candidate holds a key of its own.
    """
    group = _near_chains(cand_a) * cand_a.size + _near_chains(cand_d)
    _, inverse, counts = np.unique(group, return_inverse=True, return_counts=True)
    keep = np.ones(cand_a.size, dtype=bool)
    seen = set()
    for i in np.flatnonzero(counts[inverse] > 1).tolist():
        key = (round(float(cand_a[i]), 12), round(float(cand_d[i]), 12))
        if key in seen:
            keep[i] = False
        else:
            seen.add(key)
    return np.flatnonzero(keep)


def _grid_arrays(budget: EnergyBudget, resolution: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, B, a) of the jammer grid, in jammer_grid's order; see there."""
    cand_a, cand_b, cand_d = _grid_candidates(budget, resolution)
    idx = _first_of_each_key(cand_a, cand_d)
    big_a, big_b, disp = cand_a[idx], cand_b[idx], cand_d[idx]
    ok = (big_a > 0.0) & (big_b > 0.0) & (big_a * big_b >= 0.25 - SYMMETRY_ATOL)
    if not np.all(ok):
        raise ValueError("jammer grid holds an unphysical single-mode covariance")
    return big_a, big_b, disp


def jammer_grid(budget: EnergyBudget, resolution: int) -> list[JammerGaussian]:
    """Gaussian jammer states covering the feasible x-quadrature region.

    Only (A, a) influence the measured quadratures, so the sweep fixes b = 0,
    C = 0 and the minimal-energy conjugate variance B = 1/(4A); that spends
    nothing on the irrelevant quadrature and therefore over-covers the
    reachable region. The named states vacuum, coherent(+-alpha) and
    thermal(alpha^2) are appended explicitly so boundary anchors are always
    present; duplicates are dropped.
    """
    big_a, big_b, disp = _grid_arrays(budget, resolution)
    return [JammerGaussian(A=x, B=y, a=z)
            for x, y, z in zip(big_a.tolist(), big_b.tolist(), disp.tolist())]


@dataclass(frozen=True, eq=False)
class SweepColumns:
    """The correlation-set sweep as columns; row i is jammer state i of the grid.

    A, B and a are the jammer's x variance, p variance and x displacement
    (C = b = 0). q[i] is the sign-bit law indexed [u, v], with BinaryJointDist's
    clamping at 0; lambda_c, lambda_0 and lambda_1 are the barycentric
    coordinates of the law before that clamping. rho is the x-x correlation
    of the mixed state, rho_bin and mi_bits the binarized correlation and the
    mutual information of q, NaN in a row where that statistic is undefined.
    """

    A: np.ndarray
    B: np.ndarray
    a: np.ndarray
    q: np.ndarray
    lambda_c: np.ndarray
    lambda_0: np.ndarray
    lambda_1: np.ndarray
    rho: np.ndarray
    rho_bin: np.ndarray
    mi_bits: np.ndarray

    def __len__(self) -> int:
        return self.A.size


def _check_source(r: float, eta: float) -> None:
    if not (math.isfinite(r) and r >= 0):
        raise ValueError(f"squeezing must be finite and nonnegative, got {r}")
    _check_squeezing(r)
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {eta}")


def _min_symplectic_eigenvalue(big_a: np.ndarray, big_b: np.ndarray, r: float,
                               eta: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Smallest symplectic eigenvalue of mix_tmsv_with_jammer(r, eta, tau), C = 0,
    and the determinant of its x-block (the homodyne covariance) divided by
    the scale g, with g.

    The covariance is X (+) P over the x and p quadratures, and the squared
    symplectic eigenvalues are the eigenvalues of X P. They are taken from the
    symmetric L^T P L (X = L L^T) with cosh^2 - sinh^2 = 1 folded in, so no
    term cancels, not even for pure or degenerate states. Every term is
    computed divided by g = 1 + (1 - eta) cosh 2r (the products by g^2, as
    m11 and m12 are, overflow a double from r of about 142 on), and the
    eigenvalue is scale-free.
    """
    c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
    u = 1.0 - eta
    g = 1.0 + u * c
    cg, sg = c / g, s / g
    det_x = 0.5 * cg * u * big_a + 0.25 * eta / g
    det_p = 0.5 * cg * u * big_b + 0.25 * eta / g
    var_p = u * big_b / g + 0.5 * eta * cg
    m11 = 0.25 / g / g + 0.25 * u * u * sg * sg + 0.5 * u * eta * sg * (s / c) * big_b / g
    m12 = np.sqrt(det_x / g) * math.sqrt(eta) * sg * u * (big_b / c - 0.5)
    m22 = var_p * det_x / (0.5 * c)
    nu_hi_sq = 0.5 * (m11 + m22) + np.hypot(0.5 * (m11 - m22), m12)
    return np.sqrt(det_x * det_p / nu_hi_sq), det_x, g


def _quadrant_arrays(big_a: np.ndarray, big_b: np.ndarray, disp: np.ndarray,
                     r: float, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Quadrant laws (N, 2, 2) and x-x correlations of the mixed states."""
    nu_min, det_x, scale = _min_symplectic_eigenvalue(big_a, big_b, r, eta)
    if not np.all(nu_min >= 0.5 - PHYSICALITY_ATOL):
        raise ValueError("mixed state violates the uncertainty principle")
    mean_b, var_b, rho = receiver_port_moments(big_a, disp, r, eta)
    if not np.all((var_b > 0.0) & (det_x > 1e-14 / scale)):
        raise ValueError("homodyne covariance must be positive definite (nondegenerate)")
    return quadrant_laws(mean_b / np.sqrt(var_b), rho), rho


def _barycentric_arrays(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Barycentric coordinates (lambda_c, lambda_0, lambda_1) of (N, 2, 2) laws, with
    the affine-hull check and SimplexCoords' sum check; both fail on NaN."""
    if not np.all(np.abs(q[:, 0, 0] + q[:, 0, 1] - 0.5) <= AFFINE_HULL_ATOL):
        raise ValueError("q is off the affine hull q00 + q01 = 1/2")
    l0 = 2.0 * q[:, 1, 0]
    l1 = 2.0 * q[:, 0, 1]
    lc = 1.0 - l0 - l1
    if not np.all(np.abs(lc + l0 + l1 - 1.0) <= COORD_SUM_ATOL):
        raise ValueError("barycentric coordinates must sum to 1")
    return lc, l0, l1


def _swept_blocks(budget: EnergyBudget, r: float, eta: float,
                  resolution: int) -> Iterator[tuple[np.ndarray, ...]]:
    """(A, B, a, q, rho) over the jammer grid, _BLOCK points at a time."""
    big_a, big_b, disp = _grid_arrays(budget, resolution)
    for lo in range(0, big_a.size, _BLOCK):
        part = slice(lo, lo + _BLOCK)
        q, rho = _quadrant_arrays(big_a[part], big_b[part], disp[part], r, eta)
        yield big_a[part], big_b[part], disp[part], q, rho


def sweep_records(
    budget: EnergyBudget, r: float, eta: float = 0.5, resolution: int = 64
) -> SweepColumns:
    """Every jammer state of the grid with its sign-bit statistics, as columns."""
    _check_source(r, eta)
    blocks = list(_swept_blocks(budget, r, eta, resolution))
    big_a, big_b, disp, q, rho = (np.concatenate(parts) for parts in zip(*blocks))
    lc, l0, l1 = _barycentric_arrays(q)
    # BinaryJointDist's checks and its max(0.0, v), which also turns -0.0 into 0.0
    total = q[:, 0, 0] + q[:, 0, 1] + q[:, 1, 0] + q[:, 1, 1]
    if not np.all(np.abs(total - 1.0) <= 1e-9):
        raise ValueError("a swept law does not sum to 1")
    law = np.where(q > 0.0, q, 0.0)
    return SweepColumns(big_a, big_b, disp, law, lc, l0, l1, rho,
                        binarized_correlation_array(law), mutual_information_bits_array(law))


def _margin(lc: np.ndarray, l0: np.ndarray, l1: np.ndarray) -> float:
    """Largest delta keeping every point (lc, l0, l1) inside the shrunken triangle.

    Closed form of membership with mu_i = lambda_i / (1 - delta) and slack
    atol: delta <= 1 - (lambda_0 + lambda_1) / (1 + atol) at every point, and
    delta <= 1 + lambda_i / atol wherever lambda_i < 0. No delta fits when a
    coordinate is below -atol (0 is returned); delta = 1 fits when every
    point is within atol of q_c.
    """
    atol = MEMBERSHIP_ATOL
    if min(lc.min(), l0.min(), l1.min()) < -atol:
        return 0.0
    if np.all((np.abs(l0) <= atol) & (np.abs(l1) <= atol)):
        return 1.0
    return float(min(np.min(1.0 - (l0 + l1) / (1.0 + atol)),
                     1.0 + min(l0.min(), l1.min(), 0.0) / atol))


def _largest_delta(budget: EnergyBudget, r: float, eta: float, resolution: int) -> float:
    """_margin over the sweep at one grid resolution."""
    coords = [_barycentric_arrays(q) for *_, q, _ in _swept_blocks(budget, r, eta, resolution)]
    return _margin(*(np.concatenate(parts) for parts in zip(*coords)))


def compute_delta_star(budget: EnergyBudget, r: float, eta: float = 0.5) -> float:
    """Containment margin delta* of the swept correlation set, as a grid estimate.

    At each grid resolution the margin is the closed-form largest delta that
    keeps every swept point in the shrunken triangle (no search); the
    resolution doubles from 16 until the answer moves by less than 1e-4, or
    reaches 512. The value returned is that grid's margin: a minimum over a
    subset of the jammer region, so an upper bound on the continuous margin.
    At alpha = 1 a dense scan of the energy boundary is lower by 1.5e-5.

    The margin is positive for r > 0. At fixed r it shrinks as the jammer
    budget grows, since a larger budget only adds jammer states. With
    r = default_squeezing(budget) the sender's squeezing grows with alpha too,
    and the margin is unimodal in alpha: 0.1888, 0.2970, 0.2960, 0.2005 at
    alpha = 0.25, 0.5, 1, 2.
    """
    if budget.alpha_sq <= 0:
        raise ValueError("delta* needs a positive jammer budget")
    _check_source(r, eta)
    if r == 0:
        raise ValueError("delta* needs positive squeezing")
    resolution = 16
    last = None
    while True:
        value = _largest_delta(budget, r, eta, resolution)
        if last is not None and abs(value - last) < 1e-4:
            return value
        if resolution >= 512:  # sweep map is smooth; this is far past convergence
            return value
        last = value
        resolution *= 2


CSV_COLUMNS = (
    "A", "a", "q00", "q01", "q10", "q11",
    "lambda_c", "lambda_0", "lambda_1", "rho", "rho_bin", "mi_bits",
)


def _reprs(values: np.ndarray) -> list[str]:
    """repr of each float64 in values, called once per distinct bit pattern."""
    keys, inverse = _distinct_bits(values)
    return np.array(list(map(repr, keys.tolist())), dtype=object)[inverse].tolist()


def sweep_to_csv(records: SweepColumns, fh: TextIO) -> None:
    """Write the sweep as CSV, one row per state, in the columns CSV_COLUMNS.

    The bytes are csv.writer's: "\r\n" line ends, and no field is quoted,
    since a float's repr holds no comma, quote or line break. Rows are
    formatted and written _CSV_ROWS at a time, so the text held in memory
    stays small however large the sweep is. Within those rows each column
    calls repr once per distinct value: A and rho are constant along a row
    of the jammer grid, so at alpha 1, resolution 64, 48,444 cells take
    36,998 calls.
    """
    columns = [records.q[:, int(name[1]), int(name[2])] if name[0] == "q"
               else getattr(records, name) for name in CSV_COLUMNS]
    fh.write(",".join(CSV_COLUMNS) + "\r\n")
    for lo in range(0, len(records), _CSV_ROWS):
        fields = [_reprs(col[lo:lo + _CSV_ROWS]) for col in columns]
        fh.write("\r\n".join(map(",".join, zip(*fields))) + "\r\n")
