"""Finite channel tables for the jammed BPSK link and their algebra.

A ChannelTable is w(y | s, x): for every jammer letter s and sender letter x
a distribution over outputs y. The physical kernel for coherent/entangled
signaling reduces to binary symmetric channels in the cases of interest, so
BSC composition, capacity and symmetrizability live here too.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .bivariate import BinaryJointDist
from .gaussian import _json_fields, _json_object, _require_finite

ROW_ATOL = 1e-12
BSC_ATOL = 1e-10
LP_FEAS_TOL = 1e-9
WITNESS_ATOL = 1e-8

__all__ = [
    "ChannelTable",
    "BscParam",
    "LpNumericalError",
    "binary_entropy",
    "bsc_capacity",
    "crossover_probs",
    "bsc_table",
    "w0_table",
    "avc_kernel",
    "compose_bsc",
    "effective_channel",
    "is_bsc",
    "average_crossover",
    "symmetrizability_lp",
    "symmetrization_residual",
    "max_crossover_bounds",
    "pinsker_bound",
    "mutual_information_uniform",
]


class LpNumericalError(RuntimeError):
    """Simplex failed to terminate cleanly; distinct from proven infeasibility."""


@dataclass(frozen=True)
class BscParam:
    """Crossover probability of a binary symmetric channel."""

    t: float

    def __post_init__(self):
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"crossover probability must lie in [0, 1], got {self.t}")


@dataclass(frozen=True, eq=False)
class ChannelTable:
    """w[y | s, x] as an array indexed [state, input, output]."""

    states: tuple
    inputs: tuple
    outputs: tuple
    w: np.ndarray

    def __post_init__(self):
        try:
            w = np.array(self.w, dtype=float)
        except TypeError as exc:
            raise ValueError(f"w must be an array of numbers: {exc}") from None
        shape = (len(self.states), len(self.inputs), len(self.outputs))
        if w.shape != shape:
            raise ValueError(f"w must have shape {shape}, got {w.shape}")
        if w.size == 0:
            raise ValueError("channel table needs at least one state, input and output")
        # written so that NaN entries fail
        if not np.all(w >= -ROW_ATOL):
            raise ValueError("channel probabilities must be finite and nonnegative")
        if not np.all(np.abs(w.sum(axis=2) - 1.0) <= ROW_ATOL):
            raise ValueError("every (s, x) row must sum to 1")
        w = np.clip(w, 0.0, 1.0)
        w.setflags(write=False)
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        object.__setattr__(self, "w", w)

    def prob(self, y, s, x) -> float:
        return float(
            self.w[self.states.index(s), self.inputs.index(x), self.outputs.index(y)]
        )

    def restrict(self, states: Sequence = None, inputs: Sequence = None) -> "ChannelTable":
        """Sub-table on the given state/input letters (outputs unchanged)."""
        states = tuple(states) if states is not None else self.states
        inputs = tuple(inputs) if inputs is not None else self.inputs
        si = [self.states.index(s) for s in states]
        xi = [self.inputs.index(x) for x in inputs]
        return ChannelTable(states, inputs, self.outputs, self.w[np.ix_(si, xi)])

    def to_json_dict(self) -> dict:
        return {"schema_version": 1, **asdict(self, dict_factory=_json_object)}

    @classmethod
    def from_json_dict(cls, data) -> "ChannelTable":
        return cls(**_json_fields(cls, data, "channel table"))


def binary_entropy(t: float) -> float:
    """h(t) in bits; h(0) = h(1) = 0."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {t}")
    if t == 0.0 or t == 1.0:
        return 0.0
    return -t * math.log2(t) - (1.0 - t) * math.log2(1.0 - t)


def bsc_capacity(t: float) -> float:
    """Capacity 1 - h(t) of a binary symmetric channel."""
    return 1.0 - binary_entropy(t)


def crossover_probs(alpha: float) -> tuple[float, float]:
    """Crossover probabilities (p, p_tilde) of the sign-binarized link at amplitude alpha.

    p is the flip probability when the jammer plays the sender's coherent
    symbol; p_tilde when exactly one side contributes the entangled/thermal
    symbol. Both tend to 1/2 as alpha -> 0. As alpha grows p tends to 0 and
    p_tilde to erfc(1)/2, about 0.0786, which it takes where alpha * alpha
    overflows (alpha above about 1.34e154).
    """
    _require_finite("amplitude", alpha)
    if alpha <= 0:
        raise ValueError(f"amplitude must be positive, got {alpha}")
    p = 0.5 * math.erfc(2.0 * alpha)
    square = alpha * alpha
    ratio = alpha / math.sqrt(1.0 + square) if square < math.inf else 1.0
    p_tilde = 0.5 * math.erfc(ratio)
    return p, p_tilde


def _bsc_rows(t: float) -> np.ndarray:
    return np.array([[1.0 - t, t], [t, 1.0 - t]])


def bsc_table(t: float, n_states: int = 2) -> ChannelTable:
    """BSC(t) presented as a state-independent table over n_states jammer letters."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"crossover probability must lie in [0, 1], got {t}")
    rows = _bsc_rows(t)
    w = np.broadcast_to(rows, (n_states, 2, 2)).copy()
    return ChannelTable(tuple(range(n_states)), (0, 1), (0, 1), w)


def w0_table() -> ChannelTable:
    """Noiseless-when-matched binary kernel: identity if s == x, fair coin otherwise."""
    w = np.empty((2, 2, 2))
    for s in range(2):
        for x in range(2):
            w[s, x] = [1.0 - float(x), float(x)] if s == x else [0.5, 0.5]
    return ChannelTable((0, 1), (0, 1), (0, 1), w)


def avc_kernel(alpha: float) -> ChannelTable:
    """Sign-binarized kernel on inputs/states {0, 1, 2} and binary output.

    Letters 0/1 are the coherent BPSK symbols, letter 2 the entangled
    resource (transmitted half of a TMSV; thermal marginal). Matched BPSK
    letters give BSC(p), a lone letter-2 on either side gives BSC(p_tilde)
    relative to the remaining BPSK letter, everything else is a fair coin.
    """
    p, pt = crossover_probs(alpha)
    w = np.empty((3, 3, 2))
    for s in range(3):
        for x in range(3):
            if x != 2 and s == x:
                w[s, x] = _bsc_rows(p)[x]
            elif x != 2 and s == 2:
                w[s, x] = _bsc_rows(pt)[x]
            elif x == 2 and s != 2:
                w[s, x] = _bsc_rows(pt)[s]
            else:
                w[s, x] = [0.5, 0.5]
    return ChannelTable((0, 1, 2), (0, 1, 2), (0, 1), w)


def compose_bsc(t1: float, t2: float) -> float:
    """Crossover of two cascaded BSCs: t1 + t2 - 2 t1 t2."""
    for t in (t1, t2):
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"crossover probability must lie in [0, 1], got {t}")
    return t1 + t2 - 2.0 * t1 * t2


def effective_channel(q: BinaryJointDist, base: ChannelTable) -> ChannelTable:
    """Channel seen after XOR preprocessing with a shared bit pair (u, v) ~ q.

    The sender transmits x XOR u, the receiver outputs y XOR v, so
    w_eff(y | s, x) = sum_{u,v} q(u,v) w(y XOR v | s, x XOR u). Inputs and
    outputs of `base` must be the bits {0, 1}.

    For base = w0_table() and q = from_barycentric(lambda) every flip is
    w_eff(1-x | s, x) = 1/2 - lambda_c/4 + (-1)^(s XOR x) (lambda_1 - lambda_0)/4,
    so the result is a BSC only when lambda_0 = lambda_1. Its input-averaged
    crossover 1/2 - lambda_c/4 is state-independent everywhere (see
    average_crossover).
    """
    if base.inputs != (0, 1) or base.outputs != (0, 1):
        raise ValueError("effective_channel needs a binary-input binary-output base")
    return ChannelTable(base.states, base.inputs, base.outputs, _xor_mix(q.as_array(), base.w))


def _xor_mix(q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """out[..., x, y] = sum_{u,v} q[..., u, v] w[..., x XOR u, y XOR v], for bit-pair
    laws q and binary channels w over broadcast leading axes; the four terms
    are added to 0.0 in (u, v) order, so every caller gets the same bits."""
    out = 0.0
    for u in (0, 1):
        for v in (0, 1):
            out = out + q[..., u, v, None, None] * w[..., [u, 1 - u], :][..., [v, 1 - v]]
    return out


def is_bsc(table: ChannelTable) -> Optional[BscParam]:
    """BscParam(t) if the table is one state-independent BSC, else None."""
    if table.inputs != (0, 1) or table.outputs != (0, 1):
        return None
    offdiag = np.concatenate([table.w[:, 0, 1], table.w[:, 1, 0]])
    t = float(offdiag.mean())
    if np.abs(offdiag - t).max() > BSC_ATOL:
        return None
    return BscParam(t)


def average_crossover(table: ChannelTable) -> Optional[float]:
    """Input-averaged flip probability (w(1|s,0) + w(0|s,1)) / 2, if state-independent.

    Strictly weaker than is_bsc: a biased table whose two rows flip in
    opposite directions still has a well-defined average crossover, and the
    XOR-preprocessed kernels below are of exactly that kind.
    """
    if table.inputs != (0, 1) or table.outputs != (0, 1):
        return None
    per_state = 0.5 * (table.w[:, 0, 1] + table.w[:, 1, 0])
    t = float(per_state.mean())
    if np.abs(per_state - t).max() > BSC_ATOL:
        return None
    return t


# --- symmetrizability -----------------------------------------------------
#
# The jammer can emulate a second sender iff there is a row-stochastic
# u(s | x) with  sum_s u(s|x) w(y|s,x') = sum_s u(s|x') w(y|s,x)  for all
# x, x', y. That is a linear feasibility problem; the alphabets are tiny, so
# a phase-1 simplex with Bland's rule is enough and keeps the infeasibility
# certificate auditable. It runs on the basis inverse (the revised simplex of
# Dantzig and Orchard-Hays): a row keeps only its artificial block and rhs.


def _phase1_simplex(a_mat: np.ndarray, b_vec: np.ndarray, tol: float) -> Optional[np.ndarray]:
    """Nonnegative solution of A z = b, or None when infeasible.

    Runs in exact arithmetic. The kernel tables mix entries eight orders of
    magnitude apart (erfc(4) next to 1/2) and float pivoting on the tiny ones
    corrupts the tableau enough to lose feasible instances.

    Every float is dyadic, so A and b scale to an integer system [A~ | b~] by
    their largest power-of-two denominator `den` (rows with b_i < 0 negated).
    Tableau row i is r_i [A~ | I | b~] for its artificial block r_i, a
    positive multiple of row i of B^-1. Only r_i and its rhs are stored; an
    entry of column j is r_i times the sparse column j, computed only where
    Bland's rule reads it. A pivot on p sets another block to p r - f r_p,
    divided by the gcd of its entries, which is the gcd of the whole tableau
    row (the rest of the row is an integer combination of the block). The
    phase-1 objective is its artificial part o and a scale s > 0: column j's
    entry is (o + s) A~_j for structural j and o_j for artificial j, so
    (o + s) / s is the phase-1 multiplier vector y. Every row is a positive
    multiple of its rational row, which keeps every sign and ratio
    comparison: Bland's entering column and the ratio test make the same
    pivots as a rational tableau, and a basic value rhs / (its basic entry)
    rounds like the rational value it stands for.
    """
    m, n = a_mat.shape
    ratios = [[x.as_integer_ratio() for x in row] for row in a_mat.tolist()]
    rhs_ratios = [x.as_integer_ratio() for x in b_vec.tolist()]
    den = max(d for row in (*ratios, rhs_ratios) for _, d in row)
    # the sparse columns of [A~ | I] as (row, entry) pairs, and b~
    cols = [[] for _ in range(n)] + [[(k, 1)] for k in range(m)]
    rhs = []
    for i, (num, d) in enumerate(rhs_ratios):
        sign = -1 if num < 0 else 1
        rhs.append(sign * num * (den // d))
        for j, (num_j, d_j) in enumerate(ratios[i]):
            if num_j:
                cols[j].append((i, sign * num_j * (den // d_j)))
    col_sums = [sum(a for _, a in col) for col in cols[:n]] + [0] * m
    inv = [[int(k == i) for k in range(m)] for i in range(m)]
    obj, scale = [0] * m, 1
    basis = list(range(n, n + m))
    for _ in range(20000):
        for enter in range(n + m):  # Bland: first improving column
            if enter not in basis:
                f_obj = sum([obj[i] * a for i, a in cols[enter]]) + scale * col_sums[enter]
                if f_obj > 0:
                    break
        else:
            break  # no improving column: phase 1 is optimal
        f_col = [sum([r[i] * a for i, a in cols[enter]]) for r in inv]
        best_i = -1
        for i, f in enumerate(f_col):
            if f > 0:
                # ratio rhs[i] / f against the best, cross-multiplied
                if best_i < 0:
                    best_i, best_num, best_den = i, rhs[i], f
                    continue
                lhs, rhs_best = rhs[i] * best_den, best_num * f
                if lhs < rhs_best or (lhs == rhs_best and basis[i] < basis[best_i]):
                    best_i, best_num, best_den = i, rhs[i], f
        if best_i < 0:
            raise LpNumericalError("phase-1 objective unbounded; inconsistent tableau")
        pivot_row = inv[best_i]
        for i, f in enumerate(f_col):
            if f and i != best_i:
                row = [best_den * x - f * p for x, p in zip(inv[i], pivot_row)]
                row_rhs = best_den * rhs[i] - f * best_num
                g = math.gcd(*row)
                inv[i], rhs[i] = ([x // g for x in row], row_rhs // g) if g > 1 else (row, row_rhs)
        obj = [best_den * o - f_obj * p for o, p in zip(obj, pivot_row)]
        scale *= best_den
        g = math.gcd(scale, *obj)
        obj, scale = [o // g for o in obj], scale // g
        basis[best_i] = enter
    else:
        raise LpNumericalError("phase-1 simplex hit the iteration cap")
    # the artificial sum num / den_sum, each term rhs / (basic entry), is den
    # times the unscaled one; compare it with tol exactly
    num, den_sum = 0, 1
    z = np.zeros(n)
    for i, bi in enumerate(basis):
        if bi >= n:
            p = inv[i][bi - n]
            num, den_sum = num * p + rhs[i] * den_sum, den_sum * p
        else:
            z[bi] = rhs[i] / sum([inv[i][r] * a for r, a in cols[bi]])
    tol_num, tol_den = float(tol).as_integer_ratio()
    if num * tol_den > tol_num * den * den_sum:
        return None
    return np.maximum(z, 0.0)


def symmetrization_residual(table: ChannelTable, u: np.ndarray) -> float:
    """Max violation of the symmetrizing equalities by u[x, s] = u(s | x)."""
    w = table.w
    worst = 0.0
    nx, ns = len(table.inputs), len(table.states)
    for xi in range(nx):
        worst = max(worst, abs(u[xi].sum() - 1.0), max(0.0, -u[xi].min()))
        for xj in range(xi + 1, nx):
            lhs = u[xi] @ w[:, xj, :]
            rhs = u[xj] @ w[:, xi, :]
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def _symmetrizing_system(table: ChannelTable) -> tuple[np.ndarray, np.ndarray]:
    """(A, b) whose nonnegative solutions z = u.ravel() symmetrize the table."""
    nx, ns, ny = len(table.inputs), len(table.states), len(table.outputs)
    nvar = nx * ns
    rows = []
    rhs = []
    for xi in range(nx):
        for xj in range(xi + 1, nx):
            for yi in range(ny):
                row = np.zeros(nvar)
                row[xi * ns : (xi + 1) * ns] += table.w[:, xj, yi]
                row[xj * ns : (xj + 1) * ns] -= table.w[:, xi, yi]
                rows.append(row)
                rhs.append(0.0)
    for xi in range(nx):
        row = np.zeros(nvar)
        row[xi * ns : (xi + 1) * ns] = 1.0
        rows.append(row)
        rhs.append(1.0)
    return np.array(rows), np.array(rhs)


def symmetrizability_lp(table: ChannelTable) -> Optional[np.ndarray]:
    """Symmetrizing strategy u[x, s] = u(s | x) if one exists, else None.

    Feasibility is decided by a phase-1 simplex; a returned witness is
    re-checked against the defining equalities, and a witness that fails the
    recheck raises LpNumericalError instead of being reported either way.
    """
    z = _phase1_simplex(*_symmetrizing_system(table), LP_FEAS_TOL)
    if z is None:
        return None
    u = z.reshape(len(table.inputs), len(table.states))
    if symmetrization_residual(table, u) > WITNESS_ATOL:
        raise LpNumericalError("feasible point failed the witness recheck")
    return u


def max_crossover_bounds(delta: float, p_tilde: float) -> tuple[float, float]:
    """Worst-case effective crossovers given a simplex containment margin delta.

    Returns (bound for BPSK jammer letters, bound for the entangled letter):
    (1/2 - delta/4, delta * p_tilde + (1 - delta) / 2).
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"margin must lie in [0, 1], got {delta}")
    if not 0.0 < p_tilde < 0.5:
        raise ValueError(f"p_tilde must lie in (0, 1/2), got {p_tilde}")
    return 0.5 - delta / 4.0, delta * p_tilde + (1.0 - delta) / 2.0


def mutual_information_uniform(rows: np.ndarray) -> float:
    """I(X; Y) in bits for a row-stochastic channel matrix under uniform input."""
    rows = np.asarray(rows, dtype=float)
    nx = rows.shape[0]
    out = rows.mean(axis=0)
    total = 0.0
    for xi in range(nx):
        for yi, pyx in enumerate(rows[xi]):
            if pyx > 0.0:
                total += (pyx / nx) * math.log2(pyx / out[yi])
    return total


def pinsker_bound(table: ChannelTable, lam: Sequence[float]) -> tuple[float, float]:
    """Quadratic lower bound and exact uniform-input mutual information.

    For the state mixture lam the averaged binary channel omega has
    I(X; Y) >= 0.5 * |omega(0|0) - omega(0|1)|^2; both sides are returned
    as (bound, exact). Requires binary inputs and outputs.
    """
    if table.inputs != (0, 1) or table.outputs != (0, 1):
        raise ValueError("pinsker_bound needs a binary-input binary-output table")
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (len(table.states),) or lam.min() < -1e-12 or abs(lam.sum() - 1.0) > 1e-9:
        raise ValueError("lam must be a distribution over the table's states")
    omega_rows = np.einsum("s,sxy->xy", lam, table.w)
    bound = 0.5 * abs(omega_rows[0, 0] - omega_rows[1, 0]) ** 2
    exact = mutual_information_uniform(omega_rows)
    if exact < bound - 1e-12:
        raise AssertionError("mutual information fell below its Pinsker bound")
    return float(bound), float(exact)
