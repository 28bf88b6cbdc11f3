"""Monte Carlo harness for the three-phase jammed-channel protocol.

Phase 1 transmits the entangled resource to build correlated sign bits
(u, v); phase 2 turns them into identical seed bits at both ends by
repetition coding over the XOR-corrected channel; phase 3 sends data with a
random codebook selected by the shared seed. Receivers decode by exact
likelihood against the candidate schedule set from the config (the realised
schedule stays hidden), which reduces to Hamming-distance decoding whenever
the candidate channel is binary symmetric. An exact small-instance error
evaluator covers the regimes where Monte Carlo is the wrong tool.

All randomness is counter-based: every (strategy, trial, phase) triple gets
its own Philox key derived from the master seed, so reports are bit-identical
for any worker count.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .bivariate import (
    BinaryJointDist,
    quadrant_distribution,  # noqa: F401  perfbench traces this module attribute
    quadrant_laws,
    std_normal_cdf,  # noqa: F401  perfbench traces this module attribute
    std_normal_cdf_array,
)
from .channels import ChannelTable, _xor_mix, binary_entropy
from .gaussian import (JammerGaussian, _json_fields, _json_object, _require_finite,
                       receiver_port_moments)

_MASK64 = (1 << 64) - 1

# phase tags for sub-seed derivation; values are arbitrary but frozen
_TAG_PHASE1 = 1
_TAG_SEED = 2
_TAG_PHASE2 = 3
_TAG_MESSAGE = 4
_TAG_PHASE3 = 5
_TAG_FREE_SEED = 6
_TAG_CODEBOOK = 7

CODE_MODES = ("deterministic", "common-randomness", "correlation-assisted")
SOURCES = ("tmsv", "thermal")

__all__ = [
    "JammerStrategy",
    "SimConfig",
    "SimReport",
    "canonical_schedules",
    "jammer_state_for_symbol",
    "run_correlation_phase",
    "run_cr_phase",
    "run_data_phase",
    "random_codebook",
    "schedule_set_decoder",
    "evaluate_code_error_exact",
    "symmetrizing_attack_error",
    "simulate",
    "wilson_interval",
]


def jammer_state_for_symbol(s: int, alpha: float) -> JammerGaussian:
    """Gaussian state behind each jammer letter: +-alpha coherent, or thermal."""
    if s == 0:
        return JammerGaussian(A=0.5, B=0.5, a=math.sqrt(2.0) * alpha)
    if s == 1:
        return JammerGaussian(A=0.5, B=0.5, a=-math.sqrt(2.0) * alpha)
    if s == 2:
        half = 0.5 * (2.0 * alpha * alpha + 1.0)
        return JammerGaussian(A=half, B=half)
    raise ValueError(f"jammer symbol must be 0, 1 or 2, got {s}")


def _require_integer(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class JammerStrategy:
    """Per-round jammer behaviour: a symbol schedule, a state list, or a worst-case set.

    Symbol and state schedules are tiled cyclically to the blocklength.
    `worst_of` evaluates every option and reports the maximum error.
    """

    kind: str
    symbols: tuple = ()
    states: tuple = ()
    options: tuple = ()
    label: str = ""

    def __post_init__(self):
        if self.kind not in ("symbols", "gaussian", "worst_of"):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        own = {"symbols": "symbols", "gaussian": "states", "worst_of": "options"}[self.kind]
        for name in ("symbols", "states", "options"):
            if name != own and getattr(self, name):
                raise ValueError(f"a {self.kind} strategy takes no {name}")
        if not isinstance(self.label, str):
            raise ValueError(f"strategy label must be a string, got {self.label!r}")
        if self.kind == "symbols":
            for s in self.symbols:
                _require_integer("jammer symbol", s)
            if not self.symbols or any(s not in (0, 1, 2) for s in self.symbols):
                raise ValueError("symbol schedules need a nonempty tuple over {0,1,2}")
            object.__setattr__(self, "symbols", tuple(int(s) for s in self.symbols))
        if self.kind == "gaussian" and not self.states:
            raise ValueError("gaussian schedules need at least one state")
        if self.kind == "worst_of":
            if len(self.options) < 1:
                raise ValueError("worst_of needs at least one option")
            if any(o.kind == "worst_of" for o in self.options):
                raise ValueError("worst_of does not nest")
            if len({o.label for o in self.options}) < len(self.options):
                raise ValueError("worst_of options need distinct labels (the report keys)")
        if not self.label:
            object.__setattr__(self, "label", self._default_label())

    def _default_label(self) -> str:
        if self.kind == "symbols":
            return "symbols-" + "".join(str(s) for s in self.symbols)
        if self.kind == "gaussian":
            return f"gaussian-{len(self.states)}"
        return "worst-of-" + ",".join(o.label for o in self.options)

    @classmethod
    def from_symbols(cls, symbols: Sequence[int], label: str = "") -> "JammerStrategy":
        return cls(kind="symbols", symbols=tuple(symbols), label=label)

    @classmethod
    def from_states(cls, states: Sequence[JammerGaussian], label: str = "") -> "JammerStrategy":
        return cls(kind="gaussian", states=tuple(states), label=label)

    @classmethod
    def worst_of(cls, options: Sequence["JammerStrategy"], label: str = "") -> "JammerStrategy":
        return cls(kind="worst_of", options=tuple(options), label=label)

    def leaves(self) -> tuple["JammerStrategy", ...]:
        return self.options if self.kind == "worst_of" else (self,)

    def round_params(self, n_rounds: int, alpha: float,
                     offset: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """(A_i, a_i) of the jammer state for global rounds [offset, offset + n_rounds).

        The schedule is one sequence over the whole block; phases read their
        own slice of it, so a cyclic schedule keeps its global phase.
        """
        if self.kind == "worst_of":
            raise ValueError("round_params is defined on leaf strategies only")
        if self.kind == "symbols":
            plays = [jammer_state_for_symbol(s, alpha) for s in self.symbols]
        else:
            plays = list(self.states)
        idx = (offset + np.arange(n_rounds)) % len(plays)
        big_a = np.array([p.A for p in plays])[idx]
        disp = np.array([p.a for p in plays])[idx]
        return big_a, disp

    def to_json_dict(self) -> dict:
        """The fields, without the (empty) ones of the other kinds."""
        return asdict(self, dict_factory=_json_object)

    @classmethod
    def from_json_dict(cls, data) -> "JammerStrategy":
        kw = _json_fields(cls, data, "jammer")
        if "states" in kw:
            kw["states"] = tuple(JammerGaussian(**_json_fields(JammerGaussian, st, "jammer state"))
                                 for st in kw["states"])
        if "options" in kw:
            # checked before recursing, so no nesting depth exhausts the stack
            if any(isinstance(o, dict) and o.get("options") for o in kw["options"]):
                raise ValueError("worst_of does not nest")
            kw["options"] = tuple(cls.from_json_dict(o) for o in kw["options"])
        return cls(**kw)


def canonical_schedules() -> JammerStrategy:
    """The four standing schedules: each pure letter, plus cycling through all three."""
    return JammerStrategy.worst_of(
        [
            JammerStrategy.from_symbols((0,), "all-0"),
            JammerStrategy.from_symbols((1,), "all-1"),
            JammerStrategy.from_symbols((2,), "all-2"),
            JammerStrategy.from_symbols((0, 1, 2), "alternating"),
        ],
        label="canonical-4",
    )


@dataclass(frozen=True)
class SimConfig:
    """Run parameters for `simulate`.

    k side rounds split evenly between the correlation and seed phases; the
    remaining n - k rounds carry data at the given rate. `cr_seed_bits` fixes
    how many shared seed bits phase 2 transfers (plus one parity slot).
    Real fields must be finite and integer fields plain integers (not bool,
    not 2.0), so a config that constructs can be simulated and is a sound
    key for the per-run decoder tables.
    """

    alpha: float
    n: int
    k: int
    rate: float
    jammer: JammerStrategy
    code_mode: str = "correlation-assisted"
    source: str = "tmsv"
    master_seed: int = 0
    trials: int = 1
    eta: float = 0.5
    r: Optional[float] = None
    cr_seed_bits: int = 8
    max_block_bits: int = 13

    def __post_init__(self):
        for name in ("alpha", "rate", "eta"):
            _require_finite(name, getattr(self, name))
        if self.r is not None:
            _require_finite("r", self.r)
        for name in ("n", "k", "trials", "master_seed", "cr_seed_bits", "max_block_bits"):
            _require_integer(name, getattr(self, name))
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.n < 1:
            raise ValueError("blocklength must be at least 1")
        if not 0 <= self.k < self.n:
            raise ValueError("side-phase length k must satisfy 0 <= k < n")
        if self.k % 2:
            raise ValueError("k must be even (split between two side phases)")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.rate > 1:
            # a binary-input channel carries at most one bit per use; this also
            # gives every data sub-block at least one round (see _block_plan)
            raise ValueError("rate must be at most 1 bit per channel use")
        if self.code_mode not in CODE_MODES:
            raise ValueError(f"code_mode must be one of {CODE_MODES}")
        if self.source not in SOURCES:
            raise ValueError(f"source must be one of {SOURCES}")
        if self.code_mode == "correlation-assisted" and self.k < 2:
            raise ValueError("correlation-assisted mode needs k >= 2 side rounds")
        if self.code_mode != "correlation-assisted" and self.k != 0:
            raise ValueError("only correlation-assisted mode uses side rounds (k > 0)")
        if not 0 <= self.master_seed <= _MASK64:
            raise ValueError("master_seed must fit in 64 bits")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")
        if self.r is not None and self.r <= 0:
            raise ValueError("squeezing r must be positive when given")
        if self.cr_seed_bits < 1:
            raise ValueError("cr_seed_bits must be at least 1")
        if not 1 <= self.max_block_bits <= 16:
            raise ValueError("max_block_bits must lie in [1, 16]")

    @property
    def squeezing(self) -> float:
        return math.asinh(self.alpha) if self.r is None else self.r

    @classmethod
    def defaults(cls, alpha: float, n: int, rate: float, jammer: JammerStrategy,
                 **kw) -> "SimConfig":
        """Side-phase length defaulting to the 2 log2 n scaling, rounded even.

        The seed width is clamped to what k/2 transfer rounds can carry
        (each of the cr_seed_bits + 1 frame slots needs both mask phases).
        """
        k = kw.pop("k", None)
        if k is None:
            k = 2 * math.ceil(math.log2(n)) if n > 1 else 0
        if "cr_seed_bits" not in kw:
            kw["cr_seed_bits"] = min(8, max(1, (k // 2) // 2 - 1))
        return cls(alpha=alpha, n=n, k=k, rate=rate, jammer=jammer, **kw)

    def to_json_dict(self) -> dict:
        return {"schema_version": 1, **asdict(self, dict_factory=_json_object)}

    @classmethod
    def from_json_dict(cls, data) -> "SimConfig":
        kw = _json_fields(cls, data, "config")
        return cls(**dict(kw, jammer=JammerStrategy.from_json_dict(kw["jammer"])))


# two-sided 95% quantile of the standard normal
_Z95 = 1.959963984540054


def wilson_interval(failures: int, trials: int) -> tuple[float, float]:
    """Two-sided 95% Wilson score interval (Wilson 1927) of a binomial rate.

    Unlike the normal approximation it stays inside [0, 1] and does not
    collapse to a point at 0 or `trials` failures.
    """
    _require_integer("failures", failures)
    _require_integer("trials", trials)
    if not 0 <= failures <= trials or trials < 1:
        raise ValueError(f"need 0 <= failures <= trials and trials >= 1, "
                         f"got {failures} of {trials}")
    p = failures / trials
    zz = _Z95 * _Z95 / trials
    centre = (p + zz / 2.0) / (1.0 + zz)
    half = _Z95 * math.sqrt(p * (1.0 - p) / trials + zz / (4.0 * trials)) / (1.0 + zz)
    # the ends are exactly 0 and 1 there; centre -/+ half rounds off them
    low = 0.0 if failures == 0 else centre - half
    high = 1.0 if failures == trials else centre + half
    return low, high


@dataclass(frozen=True)
class SimReport:
    """Aggregated simulation outcome; deterministic given the config.

    Error rates come with 95% Wilson score intervals (`wilson_interval`).
    Per strategy, failed seed transfers are split into those the parity
    slot flagged and those it missed (silent).
    """

    config: SimConfig
    per_strategy: dict
    per_trial: tuple
    worst_error: float
    worst_error_ci95: tuple
    estimated_crossover: float
    capacity_estimate: float

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 2,
            "config": self.config.to_json_dict(),
            "per_strategy": self.per_strategy,
            "per_trial": list(self.per_trial),
            "worst_error": self.worst_error,
            "worst_error_ci95": list(self.worst_error_ci95),
            "estimated_crossover": self.estimated_crossover,
            "capacity_estimate": self.capacity_estimate,
            "seed_provenance": {
                "master_seed": self.config.master_seed,
                "scheme": "philox128(key = master_seed || strategy<<48 | trial<<16 | phase)",
            },
        }


# --- channel sampling -------------------------------------------------------


def _philox(hi: int, strategy_idx: int, trial: int, tag: int) -> np.random.Philox:
    """Philox on the key (hi, strategy << 48 | trial << 16 | tag)."""
    lo = ((strategy_idx & 0xFFFF) << 48) | ((trial & 0xFFFFFFFF) << 16) | (tag & 0xFFFF)
    return np.random.Philox(key=np.array([lo, hi & _MASK64], dtype=np.uint64))


def _rng(master_seed: int, strategy_idx: int, trial: int, tag: int) -> np.random.Generator:
    return np.random.Generator(_philox(master_seed, strategy_idx, trial, tag))


def _bits_to_int(bits) -> int:
    """The integer whose binary digits, most significant first, are `bits`."""
    return functools.reduce(lambda value, b: (value << 1) | int(b), bits, 0)


def _bpsk_law(big_a: np.ndarray, disp: np.ndarray, alpha: float,
              eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Homodyne law of the receiver quadrature for BPSK input x (0 -> +alpha).

    Returns mean[i, x] and sd[i] under round i's jammer x-moments (A, a).
    """
    shift = math.sqrt(1.0 - eta) * disp
    mean = math.sqrt(2.0 * eta) * alpha * np.array([1.0, -1.0]) + shift[:, None]
    return mean, np.sqrt(eta / 2.0 + (1.0 - eta) * big_a)


def _bpsk_outputs(x: np.ndarray, big_a: np.ndarray, disp: np.ndarray,
                  alpha: float, eta: float, rng: np.random.Generator) -> np.ndarray:
    """Receiver bit per round for BPSK inputs x in {0, 1}: 0 iff quadrature >= 0."""
    mean, sd = _bpsk_law(big_a, disp, alpha, eta)
    quad = mean[np.arange(x.shape[0]), x] + sd * rng.standard_normal(x.shape)
    return (quad < 0.0).astype(np.int64)


def _pair_outputs(big_a: np.ndarray, disp: np.ndarray, r: float, eta: float,
                  rng: np.random.Generator, source: str) -> tuple[np.ndarray, np.ndarray]:
    """Sign bits (u, v), 1 for a nonnegative quadrature, for the entangled symbol."""
    n_rounds = big_a.shape[0]
    z1 = rng.standard_normal(n_rounds)
    z2 = rng.standard_normal(n_rounds)
    mean_b, var_b, rho = receiver_port_moments(big_a, disp, r, eta)
    if source == "thermal":
        # unentangled substitute: same receiver marginal, sender tosses a coin
        u = rng.integers(0, 2, size=n_rounds, dtype=np.int64)
        quad_b = mean_b + np.sqrt(var_b) * z2
        return u, (quad_b >= 0.0).astype(np.int64)
    quad_b = mean_b + np.sqrt(var_b) * (rho * z1 + np.sqrt(1.0 - rho * rho) * z2)
    return (z1 >= 0.0).astype(np.int64), (quad_b >= 0.0).astype(np.int64)


# --- receiver-side channel models --------------------------------------------
#
# The decoder knows the protocol and the candidate schedule set (the leaves of
# the configured strategy), never the realised schedule. Everything below is a
# deterministic function of the config, so decoding stays reproducible.


def _bpsk_flip_table(big_a: np.ndarray, disp: np.ndarray,
                     alpha: float, eta: float) -> np.ndarray:
    """p1[i, x] = P(y = 1 | x) per round, from the homodyne quadrature law."""
    mean, sd = _bpsk_law(big_a, disp, alpha, eta)
    return std_normal_cdf_array(-mean / sd[:, None])


def _pair_joint_table(big_a: np.ndarray, disp: np.ndarray,
                      config: SimConfig) -> np.ndarray:
    """qa[i, u, v] = joint law of the sign-bit pair under round i's jammer state.

    Only the x-quadrature moments (A, a) enter, so states are deduplicated on
    that pair and the laws come from one `quadrant_laws` call. The thermal
    source keeps the receiver marginal but carries no correlation: the
    sender's bit is an independent coin.
    """
    keys, inverse = np.unique(np.column_stack([big_a, disp]), axis=0, return_inverse=True)
    mean_b, var_b, rho = receiver_port_moments(keys[:, 0], keys[:, 1], config.squeezing,
                                               config.eta)
    b = mean_b / np.sqrt(var_b)
    if config.source == "thermal":
        pv1 = std_normal_cdf_array(b)
        table = np.empty((keys.shape[0], 2, 2))
        table[:, :, 0] = 0.5 * (1.0 - pv1)[:, None]
        table[:, :, 1] = 0.5 * pv1[:, None]
    else:
        table = quadrant_laws(b, rho)
    return table[inverse.reshape(-1)]


def _vote_model(leaf: JammerStrategy, rounds: int, masks: np.ndarray,
                config: SimConfig) -> np.ndarray:
    """vm[i, f, w] = P(vote_i = w | frame bit f) under one candidate schedule.

    Round i of the transfer phase is global round k/2 + i and consumes the
    sign-bit pair of global round i, so the two schedule slices differ for
    cyclic schedules. The vote is the XOR-effective channel of round i's
    pair law and BPSK law (`channels._xor_mix`) read at input f XOR m and
    output w XOR m, m the public mask.
    """
    qa = _pair_joint_table(*leaf.round_params(rounds, config.alpha, 0), config)
    p1 = _bpsk_flip_table(*leaf.round_params(rounds, config.alpha, config.k // 2),
                          config.alpha, config.eta)
    eff = _xor_mix(qa, np.stack([1.0 - p1, p1], axis=-1))
    m = masks[:, None, None]
    bit = np.arange(2)
    return eff[np.arange(rounds)[:, None, None], bit[:, None] ^ m, bit ^ m]


# The decoders' tables depend only on the config (whose jammer lists the
# candidate leaves) and the phase length, so each is built once per run rather
# than once per trial; a run needs one entry of each cache.
@functools.lru_cache(maxsize=4)
def _vote_logliks(config: SimConfig, rounds: int, n_slots: int) -> np.ndarray:
    """ll[h, i, f, w] = log P(vote_i = w | frame bit f) under leaf h; read-only."""
    masks = (np.arange(rounds) // n_slots) % 2
    vm = np.stack([_vote_model(leaf, rounds, masks, config) for leaf in config.jammer.leaves()])
    ll = np.log(np.clip(vm, 1e-300, None))
    ll.flags.writeable = False
    return ll


@functools.lru_cache(maxsize=4)
def _data_flip_tables(config: SimConfig, rounds: int) -> np.ndarray:
    """p1[h, i, x] of the data phase under leaf h; read-only."""
    p1 = np.stack([
        _bpsk_flip_table(*leaf.round_params(rounds, config.alpha, config.k),
                         config.alpha, config.eta)
        for leaf in config.jammer.leaves()
    ])
    p1.flags.writeable = False
    return p1


# --- protocol phases --------------------------------------------------------


def run_correlation_phase(rounds: int, strategy: JammerStrategy, config: SimConfig,
                          rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sign-bit pairs (u, v) from `rounds` uses of the entangled symbol."""
    if rounds == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    big_a, disp = strategy.round_params(rounds, config.alpha)
    return _pair_outputs(big_a, disp, config.squeezing, config.eta, rng, config.source)


def run_cr_phase(u_bits: np.ndarray, v_bits: np.ndarray, rounds: int,
                 strategy: JammerStrategy, config: SimConfig,
                 seed_bits: np.ndarray, rng: np.random.Generator) -> dict:
    """Transfer `seed_bits` by repetition over the XOR-corrected channel.

    Each round carries one frame slot (seed bits plus a final parity slot).
    The public mask flips every full frame pass, so every slot sees both row
    biases of the effective channel equally. The receiver decodes each slot
    from its votes by exact per-round likelihood, profiled over the candidate
    schedules in the config (rounds with a crossover above 1/2 then count as
    negative evidence, which plain majority voting would throw away); ties
    resolve to 0. Agreement is checked via the parity slot and reported, not
    enforced.
    """
    if rounds == 0:
        raise ValueError("seed transfer needs at least one round")
    if len(u_bits) < rounds or len(v_bits) < rounds:
        raise ValueError("not enough correlated bits for the requested rounds")
    n_slots = len(seed_bits) + 1
    if rounds < 2 * n_slots:
        raise ValueError(
            f"{rounds} rounds cannot carry {len(seed_bits)} seed bits with both mask phases"
        )
    frame = np.concatenate([seed_bits, [seed_bits.sum() % 2]])
    slots = np.arange(rounds) % n_slots
    masks = (np.arange(rounds) // n_slots) % 2
    x = frame[slots] ^ masks ^ u_bits[:rounds]
    big_a, disp = strategy.round_params(rounds, config.alpha, config.k // 2)
    y = _bpsk_outputs(x, big_a, disp, config.alpha, config.eta, rng)
    votes = y ^ masks ^ v_bits[:rounds]
    idx = np.arange(rounds)
    best_total = -np.inf
    decoded = np.zeros(n_slots, dtype=np.int64)
    for ll in _vote_logliks(config, rounds, n_slots):
        sums0 = np.bincount(slots, weights=ll[idx, 0, votes], minlength=n_slots)
        sums1 = np.bincount(slots, weights=ll[idx, 1, votes], minlength=n_slots)
        total = float(np.maximum(sums0, sums1).sum())
        if total > best_total:
            best_total = total
            decoded = (sums1 > sums0).astype(np.int64)  # tie -> 0
    received = decoded[:-1]
    parity_ok = bool(decoded[-1] == received.sum() % 2)
    # self-referential crossover estimate: votes against the decoded frame
    t_hat = float((votes != decoded[slots]).mean())
    return {
        "received": received,
        "parity_ok": parity_ok,
        "t_hat": t_hat,
        "agree": bool(np.array_equal(received, seed_bits)),
    }


def _block_plan(rounds: int, rate: float, max_block_bits: int) -> list[tuple[int, int]]:
    """(rounds, message bits) per sub-block, message bits capped at max_block_bits."""
    # min() first: a subnormal rate makes the quotient inf
    cap_rounds = int(min(max_block_bits / rate, rounds))
    plan = []
    done = 0
    while done < rounds:
        length = min(cap_rounds, rounds - done)
        bits = math.ceil(rate * length)
        if bits > 0:
            plan.append((length, bits))
        done += length
    return plan


def random_codebook(n_messages: int, length: int, master_seed: int, strategy_idx: int,
                    trial: int, seed_bits: np.ndarray, block: int) -> np.ndarray:
    """Random binary codebook selected by the shared seed bits (and public context).

    Returns the codebook packed as uint8 of shape (n_messages, ceil(length / 8)):
    bit i of a codeword is bit i % 8 (least significant first) of its byte
    i // 8, and the padding bits of the last byte are zero. The bytes are the
    little-endian bytes of `Philox.random_raw`, row after row, each row
    starting on a byte boundary; so one stream bit serves each codeword bit,
    and a row needs ceil(length / 8) stream bytes. The `_philox` key has the
    codebook tag, and as hi the master seed mixed with seed value and block.
    """
    seed_int = _bits_to_int(seed_bits)
    hi = master_seed ^ (seed_int * 0x9E3779B97F4A7C15) ^ (block << 1)
    row_bytes = (length + 7) // 8
    n_bytes = n_messages * row_bytes
    raw = _philox(hi, strategy_idx, trial, _TAG_CODEBOOK).random_raw((n_bytes + 7) // 8)
    packed = raw.astype("<u8", copy=False).view(np.uint8)[:n_bytes].reshape(n_messages, row_bytes)
    if length % 8:
        packed[:, -1] &= (1 << (length % 8)) - 1
    return packed


# messages per decoder block: its gathered terms take 8 KB per byte column
# and leaf (557 KB for 17 columns and 4 leaves), so they stay in cache and
# add little to the peak memory of a run
_DECODE_BLOCK = 1024


def schedule_set_decoder(codebook: np.ndarray, y: np.ndarray,
                         p1: np.ndarray) -> int:
    """Exact likelihood decoding against a candidate set of per-round laws.

    `codebook` is packed as `random_codebook` returns it: uint8 rows of
    ceil(L/8) bytes, L the number of rounds in `p1`, with zero padding bits.
    An unpacked 0/1 codebook is rejected, since its entries would be read as
    byte values. p1[h, i, x] = P(y_i = 1 | x) under candidate schedule h; candidates
    get a uniform prior and the per-block likelihoods are mixed exactly. For
    a single candidate whose rounds form one binary symmetric channel with
    crossover below 1/2 the ranking reduces to Hamming distance.

    No BLAS product is involved, and every sum runs in a fixed order, so the
    pick does not depend on the BLAS kernel. (The logarithms and the
    log-sum-exp use numpy's exp/log, whose last bit can depend on the SIMD
    code numpy dispatches to.) Under leaf h a
    message scores base[h] (the log-likelihood of the all-zero word, summed
    round by round), then plus one table entry per byte column, columns in
    order. The entry for byte value v of column j adds the log-likelihood
    differences of rounds 8j + t over the set bits t of v, lowest bit first.
    The leaves are mixed by log-sum-exp with their terms added in leaf
    order. Identical codewords therefore score identically and go to the
    lowest message index. Distinct codewords whose exact scores tie (equal
    agreement counts under one law) can score apart in the last bit, always
    the same way.
    """
    p1 = np.clip(p1, 1e-300, 1.0 - 1e-16)
    ll = np.where(y[None, :, None] == 1, np.log(p1), np.log1p(-p1))
    n_leaves, length, _ = ll.shape
    if codebook.dtype != np.uint8 or codebook.ndim != 2 or codebook.shape[1] != (length + 7) // 8:
        raise ValueError(f"codebook must be packed uint8 rows of {(length + 7) // 8} bytes "
                         f"for {length} rounds, got {codebook.dtype} of shape {codebook.shape}")
    n_messages, row_bytes = codebook.shape
    base = np.cumsum(ll[:, :, 0], axis=1)[:, -1]
    # tables[j, v, h] by 8 doublings: the values with top bit t are those
    # below 2^t plus round 8j + t's difference; padding rounds add zero
    steps = np.zeros((row_bytes, 8, n_leaves))
    steps.reshape(-1, n_leaves)[:length] = (ll[:, :, 1] - ll[:, :, 0]).T
    tables = np.zeros((row_bytes, 256, n_leaves))
    for t in range(8):
        tables[:, 1 << t : 2 << t] = tables[:, : 1 << t] + steps[:, t, None]
    tables = tables.reshape(-1, n_leaves)
    offsets = (256 * np.arange(row_bytes))[:, None]
    # messages are scored in blocks only to bound the gathered terms' memory;
    # every message's arithmetic is the same in any block. The two buffers
    # are reused from block to block: allocating them afresh for each block
    # made an 8192-message call about 1.7 times slower.
    scores = np.empty((n_leaves, n_messages))
    rows = terms = None
    for start in range(0, n_messages, _DECODE_BLOCK):
        block = codebook[start : start + _DECODE_BLOCK]
        if rows is None or rows.shape[1] != block.shape[0]:
            rows = np.empty((row_bytes, block.shape[0]), dtype=np.intp)
            terms = np.empty((row_bytes, block.shape[0], n_leaves))
        np.add(block.T, offsets, out=rows)
        tables.take(rows, axis=0, out=terms, mode="clip")
        acc = base + terms[0]
        for j in range(1, row_bytes):
            acc += terms[j]
        scores[:, start : start + block.shape[0]] = acc.T
    top = scores.max(axis=0)
    total = np.exp(scores[0] - top)
    for h in range(1, n_leaves):
        total += np.exp(scores[h] - top)
    return int(np.argmax(top + np.log(total)))


def run_data_phase(message_bits: np.ndarray, sender_seed: np.ndarray,
                   receiver_seed: np.ndarray, rounds: int, strategy: JammerStrategy,
                   config: SimConfig, strategy_idx: int, trial: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Send message_bits raw (no XOR layer) in seed-keyed random sub-blocks.

    The sender and receiver build their codebooks from their own seed copies
    (equal copies select the same codebook, so it is drawn once), and the
    sender unpacks only the row it sends; a seed mismatch yields
    independently wrong codebooks and hence garbage decoding, which is the
    honest failure mode. Decoding is exact likelihood against the candidate
    schedule set, which the receiver knows from the config; the realised
    schedule stays hidden.
    """
    plan = _block_plan(rounds, config.rate, config.max_block_bits)
    if sum(b for _, b in plan) != len(message_bits):
        raise ValueError("message length does not match the block plan")
    big_a, disp = strategy.round_params(rounds, config.alpha, config.k)
    p1 = _data_flip_tables(config, rounds)
    # the codebook key depends only on the seed value, so equal copies share one draw
    shared = np.array_equal(sender_seed, receiver_seed)
    decoded = np.zeros_like(message_bits)
    pos_rounds = 0
    pos_bits = 0
    for block, (length, bits) in enumerate(plan):
        m = _bits_to_int(message_bits[pos_bits : pos_bits + bits])
        cb_send = random_codebook(1 << bits, length, config.master_seed, strategy_idx,
                                  trial, sender_seed, block)
        x = np.unpackbits(cb_send[m], count=length, bitorder="little").astype(np.int64)
        y = _bpsk_outputs(
            x,
            big_a[pos_rounds : pos_rounds + length],
            disp[pos_rounds : pos_rounds + length],
            config.alpha, config.eta, rng,
        )
        cb_recv = cb_send if shared else random_codebook(
            1 << bits, length, config.master_seed, strategy_idx, trial, receiver_seed, block)
        m_hat = schedule_set_decoder(cb_recv, y,
                                     p1[:, pos_rounds : pos_rounds + length, :])
        decoded[pos_bits : pos_bits + bits] = [(m_hat >> j) & 1 for j in range(bits - 1, -1, -1)]
        pos_rounds += length
        pos_bits += bits
    return decoded


# --- exact evaluation (desk scale) ------------------------------------------


def evaluate_code_error_exact(codebook: np.ndarray, decoder: np.ndarray,
                              q: BinaryJointDist, s_seq: Sequence, base: ChannelTable) -> float:
    """Exact average error of a correlated code against the state sequence s_seq.

    codebook[u, m] is the length-n word for message m given sender bit u;
    decoder[v, y_index] the decoded message given receiver bit v, with y^n
    indexed most-significant-bit first. Exhaustive over all y^n: n <= 12 and
    at most 16 messages.
    """
    codebook = np.asarray(codebook, dtype=np.int64)
    decoder = np.asarray(decoder, dtype=np.int64)
    if codebook.ndim != 3 or codebook.shape[0] not in (1, 2):
        raise ValueError("codebook must have shape (n_u, M, n) with n_u in {1, 2}")
    n_u, n_messages, n = codebook.shape
    if n > 12:
        raise ValueError(f"exhaustive evaluation is capped at n = 12, got {n}")
    if n_messages > 16:
        raise ValueError(f"exhaustive evaluation is capped at 16 messages, got {n_messages}")
    if decoder.ndim != 2 or decoder.shape[1] != 1 << n:
        raise ValueError("decoder must have shape (n_v, 2^n)")
    n_v = decoder.shape[0]
    if base.outputs != (0, 1):
        raise ValueError("exact evaluation needs a binary-output base channel")
    if len(s_seq) != n:
        raise ValueError("state sequence length must equal the blocklength")
    qa = q.as_array()
    if n_u == 1:
        qa = qa.sum(axis=0, keepdims=True)
    if n_v == 1:
        qa = qa.sum(axis=1, keepdims=True)
    s_idx = [base.states.index(s) for s in s_seq]
    p_correct = 0.0
    for u in range(n_u):
        for v in range(n_v):
            weight = float(qa[u, v])
            if weight == 0.0:
                continue
            for m in range(n_messages):
                joint = np.ones(1)
                for i in range(n):
                    xi = base.inputs.index(int(codebook[u, m, i]))
                    joint = np.kron(joint, base.w[s_idx[i], xi])
                p_correct += weight * float(joint[decoder[v] == m].sum())
    return 1.0 - p_correct / n_messages


def symmetrizing_attack_error(codebook: np.ndarray, decoder: np.ndarray,
                              q: BinaryJointDist, base: ChannelTable) -> float:
    """Average exact error when the jammer plays the codeword of a random message."""
    codebook = np.asarray(codebook, dtype=np.int64)
    n_u, n_messages, _ = codebook.shape
    total = 0.0
    for m_hat in range(n_messages):
        s_seq = [int(b) for b in codebook[n_u - 1, m_hat]]
        total += evaluate_code_error_exact(codebook, decoder, q, s_seq, base)
    return total / n_messages


# --- orchestration -----------------------------------------------------------


def _message_bit_count(config: SimConfig) -> int:
    return sum(b for _, b in _block_plan(config.n - config.k,
                                         config.rate, config.max_block_bits))


def _run_trial(config: SimConfig, strategy: JammerStrategy, strategy_idx: int,
               trial: int) -> dict:
    half = config.k // 2
    seed = config.master_seed
    if config.code_mode == "correlation-assisted":
        u_bits, v_bits = run_correlation_phase(
            half, strategy, config, _rng(seed, strategy_idx, trial, _TAG_PHASE1))
        sender_seed = _rng(seed, strategy_idx, trial, _TAG_SEED).integers(
            0, 2, size=config.cr_seed_bits, dtype=np.int64)
        cr = run_cr_phase(u_bits, v_bits, half, strategy, config, sender_seed,
                          _rng(seed, strategy_idx, trial, _TAG_PHASE2))
    else:
        # no side phase: both ends hold a free seed, of no width in
        # deterministic mode, as if a flawless transfer had delivered it
        width = config.cr_seed_bits if config.code_mode == "common-randomness" else 0
        sender_seed = _rng(seed, strategy_idx, trial, _TAG_FREE_SEED).integers(
            0, 2, size=width, dtype=np.int64)
        cr = {"received": sender_seed, "agree": True, "parity_ok": True, "t_hat": 0.0}
    message = _rng(seed, strategy_idx, trial, _TAG_MESSAGE).integers(
        0, 2, size=_message_bit_count(config), dtype=np.int64)
    decoded = run_data_phase(message, sender_seed, cr["received"],
                             config.n - config.k, strategy, config, strategy_idx,
                             trial, _rng(seed, strategy_idx, trial, _TAG_PHASE3))
    return {
        "strategy": strategy.label,
        "trial": trial,
        "message_ok": bool(np.array_equal(message, decoded)),
        "bit_errors": int((message != decoded).sum()),
        "message_bits": int(len(message)),
        "seed_ok": cr["agree"],
        "parity_ok": cr["parity_ok"],
        "t_hat": cr["t_hat"],
    }


def _pool_size(requested: int, tasks: int) -> int:
    """Worker processes worth starting: no more than tasks or CPUs, at least 1."""
    return max(1, min(requested, tasks, os.cpu_count() or 1))


def simulate(config: SimConfig, workers: int = 1) -> SimReport:
    """Run all trials against every leaf strategy and aggregate the worst case.

    The report is a pure function of the config: trials draw from
    counter-based sub-streams and are merged in a fixed order, so any worker
    count produces the identical report.
    """
    leaves = config.jammer.leaves()
    tasks = [
        (config, leaf, si, t)
        for si, leaf in enumerate(leaves)
        for t in range(config.trials)
    ]
    workers = _pool_size(workers, len(tasks))
    if workers == 1:
        records = [_run_trial(*task) for task in tasks]
    else:
        # imported here: multiprocessing costs every process that never opens
        # a pool about 2 MB of resident memory
        from concurrent.futures import ProcessPoolExecutor

        # map returns results in task order, whatever order they finish in
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_trial, *zip(*tasks), chunksize=8))
    per_strategy = {}
    failures = []
    for si, leaf in enumerate(leaves):
        rows = records[si * config.trials : (si + 1) * config.trials]
        failures.append(sum(not row["message_ok"] for row in rows))
        per_strategy[leaf.label] = {
            "empirical_error": failures[-1] / len(rows),
            "error_ci95": list(wilson_interval(failures[-1], len(rows))),
            "mean_crossover": sum(row["t_hat"] for row in rows) / len(rows),
            "seed_agreement_rate": sum(float(row["seed_ok"]) for row in rows) / len(rows),
            "parity_flag_rate": sum(1.0 - float(row["parity_ok"]) for row in rows) / len(rows),
            "seed_failures_flagged": sum(not row["seed_ok"] and not row["parity_ok"]
                                         for row in rows),
            "seed_failures_silent": sum(not row["seed_ok"] and row["parity_ok"]
                                        for row in rows),
            "trials": len(rows),
        }
    worst_error = max(v["empirical_error"] for v in per_strategy.values())
    t_worst = max(v["mean_crossover"] for v in per_strategy.values())
    capacity = 1.0 - binary_entropy(min(max(t_worst, 0.0), 0.5))
    return SimReport(
        config=config,
        per_strategy=per_strategy,
        per_trial=tuple(records),
        worst_error=worst_error,
        worst_error_ci95=wilson_interval(max(failures), config.trials),
        estimated_crossover=t_worst,
        capacity_estimate=capacity,
    )
