"""Covariance-level Gaussian states and the passive optics used by the simulator.

Conventions (hbar = 1):
    quadrature ordering  (x_1, p_1, ..., x_n, p_n)
    vacuum covariance    I / 2
    symplectic form      Omega = direct sum of [[0, 1], [-1, 0]]

Everything here is a pure function on small dense numpy arrays; states are
frozen dataclasses and never mutated in place.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Physicality test: all symplectic eigenvalues of a valid covariance matrix
# are >= 1/2. Slack absorbs eigensolver noise for minimal-uncertainty states.
PHYSICALITY_ATOL = 1e-10
SYMMETRY_ATOL = 1e-12

__all__ = [
    "GaussianState",
    "JammerGaussian",
    "omega",
    "symplectic_eigenvalues",
    "is_physical",
    "coherent_state",
    "thermal_state",
    "tmsv_state",
    "tensor",
    "beamsplitter_symplectic",
    "apply_beamsplitter",
    "partial_trace",
    "mean_photon_number",
    "mix_tmsv_with_jammer",
    "receiver_port_moments",
]


def omega(n_modes: int) -> np.ndarray:
    """Symplectic form on n modes in (x_1, p_1, ..., x_n, p_n) ordering."""
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = block
    return out


def symplectic_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix, sorted ascending.

    The eigenvalues of Omega @ cov come in pairs +/- i*nu; the returned
    array holds each nu once.
    """
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0] // 2
    ev = np.linalg.eigvals(omega(n) @ cov)
    nus = np.sort(np.abs(ev))
    # pairs (nu, nu) after taking absolute values
    return nus[::2].copy()


def is_physical(cov: np.ndarray) -> bool:
    """True when cov + i*Omega/2 >= 0, i.e. min symplectic eigenvalue >= 1/2."""
    return bool(symplectic_eigenvalues(cov).min() >= 0.5 - PHYSICALITY_ATOL)


def _require_finite(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")


def _json_fields(cls, data, what: str) -> dict:
    """Constructor arguments of dataclass `cls` from a decoded JSON object.

    The object must name only fields of `cls` (plus an ignored
    `schema_version`) and every field without a default; a field annotated
    `tuple` takes a list. Lists become tuples; `__post_init__` checks the rest.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {data!r}")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(data) - {f.name for f in fields} - {"schema_version"})
    if unknown:
        raise ValueError(f"{what} has unknown field(s) {', '.join(map(repr, unknown))}")
    for f in fields:
        if f.name not in data and f.default is dataclasses.MISSING:
            raise ValueError(f"{what} missing field '{f.name}'")
        if f.type in ("tuple", tuple) and not isinstance(data.get(f.name, []), list):
            raise ValueError(f"{what} field '{f.name}' must be a list, got {data[f.name]!r}")
    return {f.name: tuple(data[f.name]) if isinstance(data[f.name], list) else data[f.name]
            for f in fields if f.name in data}


def _json_object(pairs) -> dict:
    """`dataclasses.asdict` factory for a JSON object: tuples and arrays become
    lists, and empty tuples (fields that do not apply) are left out."""
    out = {}
    for name, value in pairs:
        if isinstance(value, np.ndarray):
            value = value.tolist()
        elif isinstance(value, tuple):
            if not value:
                continue
            value = list(value)
        out[name] = value
    return out


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Gaussian state of n modes: mean vector (2n,) and covariance (2n, 2n)."""

    n_modes: int
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = _frozen(self.mean)
        cov = _frozen(self.cov)
        d = 2 * self.n_modes
        if mean.shape != (d,):
            raise ValueError(f"mean must have shape ({d},), got {mean.shape}")
        if cov.shape != (d, d):
            raise ValueError(f"cov must have shape ({d}, {d}), got {cov.shape}")
        if not np.allclose(cov, cov.T, atol=SYMMETRY_ATOL):
            raise ValueError("covariance matrix must be symmetric")
        if not is_physical(cov):
            raise ValueError(
                "covariance matrix violates the uncertainty principle "
                f"(min symplectic eigenvalue {symplectic_eigenvalues(cov).min():.6g} < 1/2)"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


def coherent_state(alpha_re: float, alpha_im: float = 0.0) -> GaussianState:
    """Coherent state |alpha>: vacuum covariance displaced to sqrt(2)*(Re a, Im a)."""
    mean = np.sqrt(2.0) * np.array([alpha_re, alpha_im])
    return GaussianState(1, mean, 0.5 * np.eye(2))


def thermal_state(mean_photons: float) -> GaussianState:
    """Thermal state with the given mean photon number E >= 0."""
    if mean_photons < 0:
        raise ValueError(f"mean photon number must be >= 0, got {mean_photons}")
    g = (2.0 * mean_photons + 1.0) / 2.0
    return GaussianState(1, np.zeros(2), g * np.eye(2))


def tmsv_state(r: float) -> GaussianState:
    """Two-mode squeezed vacuum with squeezing parameter r >= 0 (squeezing phase 0)."""
    if r < 0:
        raise ValueError(f"squeezing parameter must be >= 0, got {r}")
    c, s = np.cosh(r), np.sinh(r)
    rot = np.diag([1.0, -1.0])
    f = np.block([[c * np.eye(2), s * rot], [s * rot, c * np.eye(2)]])
    return GaussianState(2, np.zeros(4), 0.5 * (f @ f.T))


def tensor(a: GaussianState, b: GaussianState) -> GaussianState:
    """Product state of a and b (modes of b appended after modes of a)."""
    mean = np.concatenate([a.mean, b.mean])
    cov = np.block(
        [
            [a.cov, np.zeros((2 * a.n_modes, 2 * b.n_modes))],
            [np.zeros((2 * b.n_modes, 2 * a.n_modes)), b.cov],
        ]
    )
    return GaussianState(a.n_modes + b.n_modes, mean, cov)


def beamsplitter_symplectic(eta: float, n_modes: int, mode_a: int, mode_b: int) -> np.ndarray:
    """Symplectic matrix of a beamsplitter with transmissivity eta on (mode_a, mode_b).

    Output port a is sqrt(eta)*a + sqrt(1-eta)*b, port b is
    -sqrt(1-eta)*a + sqrt(eta)*b; modes are 0-indexed.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {eta}")
    if mode_a == mode_b or not (0 <= mode_a < n_modes and 0 <= mode_b < n_modes):
        raise ValueError(f"invalid mode pair ({mode_a}, {mode_b}) for {n_modes} modes")
    t, rcoef = np.sqrt(eta), np.sqrt(1.0 - eta)
    f = np.eye(2 * n_modes)
    a, b = 2 * mode_a, 2 * mode_b
    for off in range(2):
        f[a + off, a + off] = t
        f[a + off, b + off] = rcoef
        f[b + off, a + off] = -rcoef
        f[b + off, b + off] = t
    return f


def apply_beamsplitter(state: GaussianState, eta: float, modes: tuple[int, int]) -> GaussianState:
    """Mix two modes of `state` on a beamsplitter: cov -> F cov F^T, mean -> F mean."""
    f = beamsplitter_symplectic(eta, state.n_modes, modes[0], modes[1])
    return GaussianState(state.n_modes, f @ state.mean, f @ state.cov @ f.T)


def partial_trace(state: GaussianState, keep: Iterable[int]) -> GaussianState:
    """Reduced state on the kept modes (0-indexed, returned in ascending order)."""
    kept = sorted(set(int(m) for m in keep))
    if not kept:
        raise ValueError("must keep at least one mode")
    if kept[0] < 0 or kept[-1] >= state.n_modes:
        raise ValueError(f"mode indices {kept} out of range for {state.n_modes} modes")
    idx = np.array([2 * m + off for m in kept for off in range(2)])
    return GaussianState(len(kept), state.mean[idx], state.cov[np.ix_(idx, idx)])


def mean_photon_number(state: GaussianState) -> float:
    """Total mean photon number over all modes, including displacement energy."""
    total = 0.0
    for m in range(state.n_modes):
        x, p = 2 * m, 2 * m + 1
        total += (state.cov[x, x] + state.cov[p, p] - 1.0) / 2.0
        total += (state.mean[x] ** 2 + state.mean[p] ** 2) / 2.0
    return float(total)


@dataclass(frozen=True)
class JammerGaussian:
    """Single-mode Gaussian interferer: x/p variances A, B, covariance C, mean (a, b)."""

    A: float
    B: float
    C: float = 0.0
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        for name in ("A", "B", "C", "a", "b"):
            value = getattr(self, name)
            # plain finite floats, the common case, skip the slower general check
            if type(value) is not float or not math.isfinite(value):
                _require_finite(f"jammer state {name}", value)
        if self.A <= 0 or self.B <= 0:
            raise ValueError(f"variances must be positive, got A={self.A}, B={self.B}")
        if self.A * self.B - self.C**2 < 0.25 - SYMMETRY_ATOL:
            raise ValueError(
                f"unphysical single-mode covariance: AB - C^2 = {self.A * self.B - self.C ** 2:.6g} < 1/4"
            )

    def to_state(self) -> GaussianState:
        return GaussianState(
            1,
            np.array([self.a, self.b]),
            np.array([[self.A, self.C], [self.C, self.B]]),
        )

    @property
    def mean_photons(self) -> float:
        return (self.A + self.B - 1.0) / 2.0 + (self.a**2 + self.b**2) / 2.0


def mix_tmsv_with_jammer(r: float, eta: float, tau: JammerGaussian) -> GaussianState:
    """Kept TMSV mode and the receiver port after mixing with a jammer mode.

    The transmitted half of a TMSV (squeezing r, theta = 0) interferes with
    the jammer state tau on a beamsplitter of transmissivity eta; the jammer
    port is discarded. Closed form of tensor + beamsplitter + partial trace,
    kept as an independent construction so the two routes can be checked
    against each other.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {eta}")
    if r < 0:
        raise ValueError(f"squeezing parameter must be >= 0, got {r}")
    cr, sr = np.cosh(2.0 * r), np.sinh(2.0 * r)
    ep = 1.0 - eta
    se = np.sqrt(eta)
    cov = 0.5 * np.array(
        [
            [cr, 0.0, se * sr, 0.0],
            [0.0, cr, 0.0, -se * sr],
            [se * sr, 0.0, 2.0 * ep * tau.A + eta * cr, 2.0 * ep * tau.C],
            [0.0, -se * sr, 2.0 * ep * tau.C, 2.0 * ep * tau.B + eta * cr],
        ]
    )
    mean = np.array([0.0, 0.0, np.sqrt(ep) * tau.a, np.sqrt(ep) * tau.b])
    return GaussianState(2, mean, cov)


def receiver_port_moments(big_a, disp, r: float,
                          eta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x-block of `mix_tmsv_with_jammer` for arrays of jammer x-moments.

    big_a and disp are the jammer's x-variance A and x-mean a (any matching
    shapes; B, C and b do not enter the x-quadratures). Returns the receiver
    port's x-mean and x-variance and the correlation rho of its x record with
    the kept mode's, whose x-quadrature has mean 0 and variance cosh(2r)/2.
    """
    c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
    mean_b = math.sqrt(1.0 - eta) * np.asarray(disp, dtype=float)
    var_b = (1.0 - eta) * np.asarray(big_a, dtype=float) + eta * c / 2.0
    with np.errstate(over="ignore"):
        spread = np.sqrt(c / 2.0 * var_b)
    # where the product of the variances overflows, their roots are taken apart
    spread = np.where(np.isinf(spread), math.sqrt(c / 2.0) * np.sqrt(var_b), spread)
    rho = math.sqrt(eta) * s / (2.0 * spread)
    return mean_b, var_b, rho


def _check_squeezing(r: float) -> None:
    """Refuse a squeezing whose cosh(2r) overflows a double (r above about 355)."""
    try:
        math.cosh(2.0 * r)
    except OverflowError:
        raise ValueError(f"squeezing r = {r!r} is too large: cosh(2r) overflows") from None
