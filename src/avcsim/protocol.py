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

import csv
import math
import numbers
import os
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple, Optional, Sequence, TextIO

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .bivariate import (
    RHO_LIMIT,
    BinaryJointDist,
    _math_map,
    quadrant_distribution,  # noqa: F401  perfbench traces this module attribute
    quadrant_laws,
    std_normal_cdf,  # noqa: F401  perfbench traces this module attribute
    std_normal_cdf_array,
)
from .channels import ChannelTable, _xor_mix, binary_entropy
from .gaussian import (JammerGaussian, _check_squeezing, _json_fields, _json_object,
                       _require_finite, receiver_port_moments)

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
    "trials_to_csv",
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

    def _plays(self, alpha: float) -> tuple[JammerGaussian, ...]:
        """One period of a leaf's schedule, as jammer states."""
        if self.kind == "worst_of":
            raise ValueError("a schedule is defined on leaf strategies only")
        if self.kind == "symbols":
            return tuple(jammer_state_for_symbol(s, alpha) for s in self.symbols)
        return self.states

    def round_params(self, n_rounds: int, alpha: float,
                     offset: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """(A_i, a_i) of the jammer state for global rounds [offset, offset + n_rounds).

        The schedule is one sequence over the whole block; phases read their
        own slice of it, so a cyclic schedule keeps its global phase.
        """
        plays = self._plays(alpha)
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


def _frame_capacity(k: int) -> int:
    """Most seed bits k/2 transfer rounds carry: k/2 >= 2 (cr_seed_bits + 1)."""
    return (k // 2) // 2 - 1


@dataclass(frozen=True)
class SimConfig:
    """Run parameters for `simulate`; they fix the run's shape.

    k side rounds split evenly between the correlation and seed phases; the
    remaining n - k rounds carry data at the given rate. `cr_seed_bits` fixes
    how many shared seed bits phase 2 transfers (plus one parity slot), and
    k/2 transfer rounds must carry that frame in both mask phases. Real
    fields must be finite and integer fields plain integers (not bool, not
    2.0); the squeezing's cosh(2r) must be finite, and with the entangled
    source no jammer state may correlate the sign-bit quadratures past
    `RHO_LIMIT`. So a config that constructs can be simulated.
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
        if self.code_mode == "correlation-assisted" and self.cr_seed_bits > _frame_capacity(self.k):
            raise ValueError(f"k/2 = {self.k // 2} transfer rounds cannot carry {self.cr_seed_bits} "
                             "seed bits and a parity slot in both mask phases")
        if not 1 <= self.max_block_bits <= 16:
            raise ValueError("max_block_bits must lie in [1, 16]")
        _check_squeezing(self.squeezing)
        # building the states checks the symbol states at this alpha
        states = [s for leaf in self.jammer.leaves() for s in leaf._plays(self.alpha)]
        if self.source == "tmsv":
            _, _, rho = receiver_port_moments([s.A for s in states], [s.a for s in states],
                                              self.squeezing, self.eta)
            if not np.all(np.abs(rho) <= RHO_LIMIT):
                raise ValueError(f"a jammer state correlates the sign bits' quadratures at "
                                 f"|rho| = {np.max(np.abs(rho))!r}, above {RHO_LIMIT}: "
                                 "lower r, alpha or eta")

    @property
    def squeezing(self) -> float:
        return math.asinh(self.alpha) if self.r is None else self.r

    @classmethod
    def defaults(cls, alpha: float, n: int, rate: float, jammer: JammerStrategy,
                 **kw) -> "SimConfig":
        """A config whose k and seed width default from the blocklength.

        In correlation-assisted mode (the default) k defaults to the 2 log2 n
        scaling, rounded even, and the seed width to the most k/2 transfer
        rounds carry, clamped to [1, 8]. The default k then needs n >= 9:
        k/2 = 4 transfer rounds are the fewest that carry one seed bit and
        its parity slot, and k < n; a smaller n raises ValueError. The other
        modes have no side phase, so k defaults to 0 and the seed width to
        the field's default.
        """
        side_phase = kw.get("code_mode", "correlation-assisted") == "correlation-assisted"
        k = kw.pop("k", None)
        if k is None and not side_phase:
            k = 0
        elif k is None:
            if n < 9:
                raise ValueError(f"the default side-phase length k = 2 ceil(log2 n) cannot hold "
                                 f"a transfer phase below n = 9, got n = {n}")
            k = 2 * math.ceil(math.log2(n))
        if side_phase and "cr_seed_bits" not in kw:
            kw["cr_seed_bits"] = min(8, max(1, _frame_capacity(k)))
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
    slot flagged and those it missed (silent), and the trials' estimated
    vote crossover (`mean_crossover`) stands beside the decoder model's
    (`model_crossover`, None without a transfer phase), its cross-check.
    """

    config: SimConfig
    per_strategy: dict
    per_trial: tuple
    worst_error: float
    worst_error_ci95: tuple
    estimated_crossover: float
    capacity_estimate: float

    def to_json_dict(self) -> dict:
        # one level deep: asdict's deep copy of the trial records costs 30 times as much
        return {
            **_json_object((f.name, getattr(self, f.name)) for f in fields(self)),
            "schema_version": 3,
            "config": self.config.to_json_dict(),
            "seed_provenance": {
                "master_seed": self.config.master_seed,
                "scheme": "philox128(key = master_seed || strategy<<48 | trial<<16 | phase)",
            },
        }


# --- channel sampling -------------------------------------------------------


class _Key(ISeedSequence):
    """A Philox key handed over as the generator's seed state.

    `Philox(_Key(key))` is `Philox(key=key)`, the same stream, but without
    the `SeedSequence()` that `Philox(key=...)` first builds from 128 bits
    of OS entropy and then discards: Philox asks its seed state for two
    uint64 words and gets the key.
    """

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or dtype is not np.uint64:
            raise ValueError("a Philox key is two uint64 words")
        return self.key


def _philox(hi: int, strategy_idx: int, trial: int, tag: int) -> np.random.Philox:
    """Philox on the key (hi, strategy << 48 | trial << 16 | tag), built from
    the key alone (`_Key`)."""
    lo = ((strategy_idx & 0xFFFF) << 48) | ((trial & 0xFFFFFFFF) << 16) | (tag & 0xFFFF)
    return np.random.Philox(_Key(np.array([lo, hi & _MASK64], dtype=np.uint64)))


def _rng(master_seed: int, strategy_idx: int, trial: int, tag: int) -> np.random.Generator:
    return np.random.Generator(_philox(master_seed, strategy_idx, trial, tag))


def _bits_to_int(bits) -> int:
    """The integer whose binary digits, most significant first, are `bits`."""
    return int.from_bytes(np.packbits(bits).tobytes(), "big") >> (-len(bits) % 8)


def _bpsk_law(big_a: np.ndarray, disp: np.ndarray, alpha: float,
              eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Homodyne law of the receiver quadrature for BPSK input x (0 -> +alpha).

    Returns mean[i, x] and sd[i] under round i's jammer x-moments (A, a).
    """
    shift = math.sqrt(1.0 - eta) * disp
    mean = math.sqrt(2.0 * eta) * alpha * np.array([1.0, -1.0]) + shift[:, None]
    return mean, np.sqrt(eta / 2.0 + (1.0 - eta) * big_a)


def _per_trial(rng, draw):
    """draw(rng) for one generator; for a sequence of generators, one trial's
    each, the rows draw(rng[i]) stacked along a leading trial axis."""
    if isinstance(rng, np.random.Generator):
        return draw(rng)
    return np.stack([draw(gen) for gen in rng])


def _bpsk_outputs(x: np.ndarray, law: tuple[np.ndarray, np.ndarray], rng) -> np.ndarray:
    """Receiver bit per round for BPSK inputs x in {0, 1} under the rounds'
    `_bpsk_law` (mean, sd): 0 iff quadrature >= 0. Rounds run along the last
    axis; with a sequence of generators (`_per_trial`), x[i] is trial i's."""
    mean, sd = law
    n_rounds = x.shape[-1]
    noise = _per_trial(rng, lambda gen: gen.standard_normal(n_rounds))
    quad = mean[np.arange(n_rounds), x] + sd * noise
    return (quad < 0.0).astype(np.int64)


def _pair_law(big_a: np.ndarray, disp: np.ndarray, r: float, eta: float,
              source: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Law of the entangled symbol's rounds under jammer x-moments (A, a):
    the receiver port's x-mean and x-sd, and rho, the correlation of its x
    record with the kept mode's. The thermal source has the same receiver
    marginal and rho = 0: its sender's sign bit is independent of it."""
    mean_b, var_b, rho = receiver_port_moments(big_a, disp, r, eta)
    if source == "thermal":
        rho = np.zeros_like(rho)
    return mean_b, np.sqrt(var_b), rho


def _pair_outputs(law: tuple, rng) -> tuple[np.ndarray, np.ndarray]:
    """Sign bits (u, v), 1 for a nonnegative quadrature, for the entangled
    symbol under the rounds' `_pair_law`; with a sequence of generators
    (`_per_trial`), one row per trial. Each generator draws z1, then z2."""
    mean_b, sd_b, rho = law
    n_rounds = mean_b.shape[0]
    z1 = _per_trial(rng, lambda gen: gen.standard_normal(n_rounds))
    z2 = _per_trial(rng, lambda gen: gen.standard_normal(n_rounds))
    quad_b = mean_b + sd_b * (rho * z1 + np.sqrt(1.0 - rho * rho) * z2)
    return (z1 >= 0.0).astype(np.int64), (quad_b >= 0.0).astype(np.int64)


# --- the run's shape: the config alone fixes it ------------------------------
#
# The tables from here to the protocol phases are functions of the config (and
# a leaf of its jammer). `simulate` builds them once into the run's `_Run`
# (`_run_tables`) and hands that to every task, so a run builds each table
# once, not once per trial, and none outlives the run.


class _LeafTables(NamedTuple):
    """One leaf's laws over the block: the `_pair_law` (mean, sd, rho) of
    phase 1 (the k/2 sign-pair rounds), which its sampler and the seed-phase
    vote model both read, and the `_bpsk_law` (mean, sd) of phase 2 (the k/2
    transfer rounds) and phase 3 (the n - k data rounds)."""

    pair: tuple[np.ndarray, np.ndarray, np.ndarray]
    transfer: tuple[np.ndarray, np.ndarray]
    data: tuple[np.ndarray, np.ndarray]


def _leaf_tables(rounds: tuple[np.ndarray, np.ndarray], config: SimConfig) -> _LeafTables:
    """The `_LeafTables` of a leaf whose `round_params` over the block's n
    rounds are `rounds`."""
    half, k = config.k // 2, config.k
    big_a, disp = rounds
    return _LeafTables(
        _pair_law(big_a[:half], disp[:half], config.squeezing, config.eta, config.source),
        _bpsk_law(big_a[half:k], disp[half:k], config.alpha, config.eta),
        _bpsk_law(big_a[k:], disp[k:], config.alpha, config.eta),
    )


def _frame_layout(config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Slot and public mask of each transfer round: the frame is the seed
    bits and a parity slot, and the mask flips after each pass of it."""
    passes, slots = np.divmod(np.arange(config.k // 2), config.cr_seed_bits + 1)
    return slots, passes % 2


def _block_plan(config: SimConfig) -> tuple[tuple[int, int], ...]:
    """(rounds, message bits) per data sub-block, message bits capped at max_block_bits."""
    rounds = config.n - config.k
    # min() first: a subnormal rate makes the quotient inf
    cap = int(min(config.max_block_bits / config.rate, rounds))
    # the quotient can round up to a length whose rate * length lands just
    # above the cap; one round fewer then fits (rate <= 1 keeps cap >= 1)
    while math.ceil(config.rate * cap) > config.max_block_bits:
        cap -= 1
    full, rest = divmod(rounds, cap)
    lengths = [cap] * full + ([rest] if rest else [])
    return tuple((length, math.ceil(config.rate * length)) for length in lengths)


# --- receiver-side channel models --------------------------------------------
#
# The decoder knows the protocol and the candidate schedule set (the leaves of
# the configured strategy), never the realised schedule. Everything below is a
# deterministic function of the config, so decoding stays reproducible.


def _bpsk_flip_table(mean: np.ndarray, sd: np.ndarray) -> np.ndarray:
    """p1[i, x] = P(y = 1 | x) per round, from the rounds' `_bpsk_law`.

    The mean is clipped to 40 sd first, so that mean / sd cannot overflow:
    the normal CDF is exactly 0 or 1 in double precision beyond 38.5 sd.
    """
    bound = 40.0 * sd[:, None]
    return std_normal_cdf_array(-np.clip(mean, -bound, bound) / sd[:, None])


def _pair_joint_table(law: tuple) -> np.ndarray:
    """qa[i, u, v] = joint law of round i's sign-bit pair under its `_pair_law`.

    A leaf's rounds share few (b, rho), so the kernel evaluates each distinct
    pair once (-0.0 folded into +0.0, which gives the same law) and every
    round gathers its own.
    """
    mean_b, sd_b, rho = law
    keys, inverse = _unique_rows(np.column_stack([mean_b / sd_b, rho]) + 0.0)
    return quadrant_laws(keys[:, 0], keys[:, 1])[inverse]


def _vote_model(tables: _LeafTables, masks: np.ndarray) -> np.ndarray:
    """vm[i, f, w] = P(vote_i = w | frame bit f) under one candidate schedule,
    from its `_LeafTables`: the sign-pair law the phase-1 sampler draws from
    and the transfer phase's BPSK law.

    Round i of the transfer phase is global round k/2 + i and consumes the
    sign-bit pair of global round i, so the two schedule slices differ for
    cyclic schedules. The vote is the XOR-effective channel of round i's
    pair law and BPSK law (`channels._xor_mix`) read at input f XOR m and
    output w XOR m, m the public mask.
    """
    qa = _pair_joint_table(tables.pair)
    p1 = _bpsk_flip_table(*tables.transfer)
    eff = _xor_mix(qa, np.stack([1.0 - p1, p1], axis=-1))
    m = masks[:, None, None]
    bit = np.arange(2)
    return eff[np.arange(m.shape[0])[:, None, None], bit[:, None] ^ m, bit ^ m]


def _vote_tables(tables: tuple, masks: np.ndarray,
                 config: SimConfig) -> tuple["_BlockLaws", tuple[float, ...]]:
    """`_block_laws(vm[..., 1])` of the `_vote_model`s vm[h, i, f, w] =
    P(vote_i = w | frame bit f) under leaf h, and per leaf the crossover
    averaged over inputs and rounds (the report's `model_crossover`)."""
    vm = np.stack([_vote_model(leaf, masks) for leaf in tables])
    if config.source == "thermal":
        # u is a coin, so both frame bits have one vote law; float rounding
        # tells them apart in the last bit, and their mean ties every slot
        vm = 0.5 * (vm + vm[:, :, ::-1])
    crossover = 0.5 * (vm[:, :, 0, 1] + vm[:, :, 1, 0])
    return _block_laws(vm[..., 1]), tuple(math.fsum(row) / len(row) for row in crossover.tolist())


def _data_block_laws(tables: tuple, plan: tuple) -> tuple["_BlockLaws", ...]:
    """`_block_laws` of each data sub-block's slice of the data phase's flip
    tables p1[h, i, x] under every leaf; p1 itself is not kept."""
    p1 = np.stack([_bpsk_flip_table(*leaf.data) for leaf in tables])
    starts = np.cumsum([0] + [length for length, _ in plan])
    return tuple(_block_laws(p1[:, a:b]) for a, b in zip(starts[:-1], starts[1:]))


class _Run(NamedTuple):
    """A run's tables, all functions of its config: each leaf's `_LeafTables`,
    the `_frame_layout`, the `_block_plan`, the `_vote_tables` (None without a
    transfer phase) and the `_data_block_laws`. `simulate` builds one with
    `_run_tables` and hands it to every task, pickled to a pool worker. The
    phases below take it and the index of the leaf that jams, `strategy_idx`.
    Its arrays are read-only, and so are those of an unpickled copy."""

    config: SimConfig
    tables: tuple[_LeafTables, ...]
    frame: tuple[np.ndarray, np.ndarray]
    plan: tuple[tuple[int, int], ...]
    votes: Optional["_BlockLaws"]
    crossovers: Optional[tuple[float, ...]]
    data: tuple["_BlockLaws", ...]

    def __reduce__(self):
        # pickle drops numpy's read-only flag, so the copy a pool worker
        # unpickles gets it back there
        return _read_only_run, tuple(self)


def _read_only_run(*fields) -> _Run:
    return _read_only(_Run(*fields))


def _read_only(value):
    """`value`, with every ndarray in it and in its nested tuples made
    read-only."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, tuple):
        for item in value:
            _read_only(item)
    return value


def _run_tables(config: SimConfig) -> _Run:
    """The config's read-only `_Run`, from one `round_params` call per leaf."""
    tables = tuple(_leaf_tables(leaf.round_params(config.n, config.alpha), config)
                   for leaf in config.jammer.leaves())
    frame, plan = _frame_layout(config), _block_plan(config)
    votes = crossovers = None
    if config.code_mode == "correlation-assisted":
        votes, crossovers = _vote_tables(tables, frame[1], config)
    return _read_only(_Run(config, tables, frame, plan, votes, crossovers,
                           _data_block_laws(tables, plan)))


# --- protocol phases --------------------------------------------------------


def run_correlation_phase(run: _Run, strategy_idx: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Sign-bit pairs (u, v) from the k/2 uses of the entangled symbol.

    `rng` is one trial's generator, or a sequence of them, one per trial of
    a chunk; u and v then have a leading trial axis, and row i is what
    rng[i] alone would give.
    """
    return _pair_outputs(run.tables[strategy_idx].pair, rng)


def _slot_sums(terms: np.ndarray, width: int) -> np.ndarray:
    """sums[..., s, :, :] = the sum of terms[..., j, :, :] over the rounds j
    with j % width == s, in int64: the rounds as a (passes, width) view,
    zero-padded to whole passes when width does not divide them, summed over
    the passes."""
    lead, rounds, tail = terms.shape[:-3], terms.shape[-3], terms.shape[-2:]
    pad = -rounds % width
    if pad:
        terms = np.concatenate([terms, np.zeros(lead + (pad,) + tail, dtype=terms.dtype)],
                               axis=-3)
    return terms.reshape(lead + (-1, width) + tail).sum(axis=-4, dtype=np.int64)


def run_cr_phase(u_bits: np.ndarray, v_bits: np.ndarray, run: _Run, strategy_idx: int,
                 seed_bits: np.ndarray, rng) -> dict:
    """Transfer `seed_bits` by repetition over the XOR-corrected channel.

    Each round carries one frame slot (seed bits plus a final parity slot).
    The public mask flips every full frame pass, so every slot sees both row
    biases of the effective channel equally. The receiver decodes the slots
    by exact per-round likelihood, profiled over the candidate schedules in
    the config (rounds with a crossover above 1/2 then count as negative
    evidence, which plain majority voting would throw away): sums[s, h, f]
    adds the run's vote laws' fixed-point log-likelihoods (`_vote_tables`) in
    int64, the leaf with the largest sum_s max_f wins (an exact tie: the
    lowest leaf), and a slot decodes to 1 only if its f = 1 sum is strictly
    larger. Agreement is checked via the parity slot and reported, not
    enforced. Bits of the wrong shape raise ValueError.

    With a sequence of generators, one per trial of a chunk, the bits have a
    leading trial axis, and so do the returned arrays ("parity_ok", "t_hat"
    and "agree" are then arrays too); trial i's entries are those of a call
    with its own rows and rng[i].
    """
    config = run.config
    lead = () if isinstance(rng, np.random.Generator) else (len(rng),)
    for name, bits, width in (("seed_bits", seed_bits, config.cr_seed_bits),
                              ("u_bits", u_bits, config.k // 2), ("v_bits", v_bits, config.k // 2)):
        if np.shape(bits) != lead + (width,):
            raise ValueError(f"{name} must have shape {lead + (width,)}, got {np.shape(bits)}")
    slots, masks = run.frame
    frame = np.concatenate([seed_bits, seed_bits.sum(axis=-1, keepdims=True) % 2], axis=-1)
    x = frame[..., slots] ^ masks ^ u_bits
    y = _bpsk_outputs(x, run.tables[strategy_idx].transfer, rng)
    votes = y ^ masks ^ v_bits
    laws = run.votes
    sums = _slot_sums(np.take(laws.q, 2 * laws.labels + votes, axis=0), frame.shape[-1])
    best = sums.max(axis=-1).sum(axis=-2).argmax(axis=-1)
    chosen = np.take_along_axis(sums, np.reshape(best, lead + (1, 1, 1)), axis=-2)[..., 0, :]
    decoded = (chosen[..., 1] > chosen[..., 0]).astype(np.int64)
    received = decoded[..., :-1]
    parity_ok = decoded[..., -1] == received.sum(axis=-1) % 2
    # self-referential crossover estimate: votes against the decoded frame
    t_hat = (votes != decoded[..., slots]).mean(axis=-1)
    agree = (received == seed_bits).all(axis=-1)
    if not lead:
        parity_ok, t_hat, agree = bool(parity_ok), float(t_hat), bool(agree)
    return {
        "received": received,
        "parity_ok": parity_ok,
        "t_hat": t_hat,
        "agree": agree,
    }


def _codebook_rows(start: int, stop: int, length: int, master_seed: int, strategy_idx: int,
                   trial: int, seed_bits: np.ndarray, block: int) -> np.ndarray:
    """Rows [start, stop) of the `random_codebook` with these arguments.

    The rows are packed as uint8 of shape (stop - start, ceil(length / 8)):
    bit i of a codeword is bit i % 8 (least significant first) of its byte
    i // 8, and the padding bits of the last byte are zero. The bytes are the
    little-endian bytes of `Philox.random_raw`, row after row, each row
    starting on a byte boundary; so one stream bit serves each codeword bit,
    and a row needs ceil(length / 8) stream bytes. Each Philox counter step
    yields 4 words (32 bytes), so the draw skips the whole steps before row
    `start` with `advance`. The `_philox` key has the codebook tag, and as
    hi the master seed mixed with seed value and block.
    """
    seed_int = _bits_to_int(seed_bits)
    hi = master_seed ^ (seed_int * 0x9E3779B97F4A7C15) ^ (block << 1)
    row_bytes = (length + 7) // 8
    skip, first = divmod(start * row_bytes, 32)
    n_bytes = (stop - start) * row_bytes
    bitgen = _philox(hi, strategy_idx, trial, _TAG_CODEBOOK)
    bitgen.advance(skip)
    raw = bitgen.random_raw((first + n_bytes + 7) // 8)
    packed = raw.astype("<u8", copy=False).view(np.uint8)[first : first + n_bytes]
    packed = packed.reshape(stop - start, row_bytes)
    if length % 8:
        packed[:, -1] &= (1 << (length % 8)) - 1
    return packed


def random_codebook(n_messages: int, length: int, master_seed: int, strategy_idx: int,
                    trial: int, seed_bits: np.ndarray, block: int) -> np.ndarray:
    """Random binary codebook selected by the shared seed bits (and public context).

    Returns the codebook packed as uint8 of shape (n_messages, ceil(length / 8)),
    in the layout `_codebook_rows` states.
    """
    return _codebook_rows(0, n_messages, length, master_seed, strategy_idx, trial,
                          seed_bits, block)


# --- schedule-set decoding ---------------------------------------------------


def _words(bits: np.ndarray) -> np.ndarray:
    """0/1 (or bool) entries along the last axis as uint64 words: entry i is
    bit i % 64 of word i // 64, the layout in which `_count_scores` reads a
    packed codeword, and the bits past the last entry are zero."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    n_bytes = packed.shape[-1]
    padded = np.zeros(packed.shape[:-1] + (-(-n_bytes // 8) * 8,), dtype=np.uint8)
    padded[..., :n_bytes] = packed
    return padded.view("<u8")


class _BlockLaws(NamedTuple):
    """A block's rounds (a data block, or the votes with f as x) grouped by
    law, with fixed-point log-likelihoods. Rounds with equal p1[:, i, :] (one
    law under every candidate leaf) share a law, and labels[i] is round i's;
    masks[g] holds law g's rounds as `_words`. q[2 g + y, h, x] is 2^shift
    log P(y | x) under law g and leaf h, rounded to an integer; the
    logarithms are `math.log` and `math.log1p` of p1 clipped to
    [1e-300, 1 - 1e-16]. shift is the largest exponent that keeps the
    block's summed largest |log P| below 2^52 once scaled; rounding adds at
    most 1/2 a round, so the rounds' summed largest |q| stays below
    2^52 + L/2. Both log-likelihoods of a round are <= 0, so a step
    q[., h, 1] - q[., h, 0] is at most the larger |q| of its law in
    magnitude. So every score, and every partial sum of its terms in any
    order, is an integer below 2^53 in magnitude, which float64 holds
    exactly (`_count_scores` relies on this); so is every slot's sum in
    `run_cr_phase`.

    The rest is `schedule_set_decoder`'s plan, which depends on the block
    alone. Class 2 g + b is the rounds of law g that received bit b. Each
    nonzero word w of a law's mask is listed twice, once per class: entry j
    is class pair_class[j] in word pair_word[j], with law mask pair_mask[j],
    and pair_flip[j] all ones for b = 0 (so that the class mask is
    pair_mask AND (y's word XOR pair_flip)). steps[h, c] = q[c, h, 1] -
    q[c, h, 0] as float64, the matrix the count product reads, and
    count_dtype the narrowest unsigned type that holds the block length.
    """

    labels: np.ndarray
    masks: np.ndarray
    q: np.ndarray
    shift: int
    pair_class: np.ndarray
    pair_word: np.ndarray
    pair_mask: np.ndarray
    pair_flip: np.ndarray
    steps: np.ndarray
    count_dtype: np.dtype


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`np.unique(rows, axis=0, return_inverse=True)` of a 2-D array of finite
    floats without a signed zero: the distinct rows in lexicographic order,
    and each row's index among them. One `np.lexsort` gives it; `np.unique`
    sorts the rows as structured scalars, 13 times slower on a 400-round
    block of 4 leaves."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    first = np.ones(len(rows), dtype=bool)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=first[1:])
    labels = np.empty(len(rows), dtype=np.intp)
    labels[order] = np.cumsum(first) - 1
    return ranked[first], labels


def _block_laws(p1: np.ndarray) -> _BlockLaws:
    """The `_BlockLaws` of p1[h, i, x] = P(y_i = 1 | x) under leaf h."""
    n_leaves, length, _ = p1.shape
    rows = np.clip(p1, 1e-300, 1.0 - 1e-16).transpose(1, 0, 2).reshape(length, 2 * n_leaves)
    laws, labels = _unique_rows(rows)
    masks = _words(labels == np.arange(len(laws))[:, None])
    ll = np.stack([_math_map(math.log1p, -laws), _math_map(math.log, laws)], axis=1)
    # fsum is exact, so the bound (and the shift) is that of the rounds in any order
    bound = math.fsum(np.abs(ll).max(axis=(1, 2))[labels].tolist())
    shift = 52 - math.frexp(bound)[1]
    q = np.rint(np.ldexp(ll, shift)).astype(np.int64).reshape(2 * len(laws), n_leaves, 2)
    law, word = np.nonzero(masks)
    bit = np.tile(np.arange(2), len(law))
    plan = (2 * np.repeat(law, 2) + bit, np.repeat(word, 2), np.repeat(masks[law, word], 2),
            np.where(bit == 0, np.uint64(_MASK64), np.uint64(0)),
            np.ascontiguousarray((q[:, :, 1] - q[:, :, 0]).T, dtype=np.float64))
    return _BlockLaws(labels, masks, q, shift, *plan, np.min_scalar_type(length))


def _count_scores(codebook: np.ndarray, pairs, steps: np.ndarray,
                  count_dtype: np.dtype) -> np.ndarray:
    """scores[h, m] = sum_c n_c steps[h, c] as float64, n_c the set bits of
    codeword m in class c: popcount(word w AND mask) summed over the
    (c, w, mask) triples of `pairs`, w indexing the codeword's uint64 words
    (the layout of `_words`) and mask a uint64.

    The counts are kept in `count_dtype`, which must hold each class's
    count (the block length does), and the sum is one float64 product,
    which is exact. Both log-likelihoods of a round are <= 0, so
    |steps[h, c]| <= max(|q0|, |q1|) of its law, and `_BlockLaws` keeps the
    rounds' summed largest |q| below 2^52 plus at most L/2 from rounding.
    So every product n_c steps[h, c], and every partial sum of them in any
    order, is an integer below 2^53, which float64 holds exactly: no BLAS
    kernel, blocking, thread split or fused multiply-add can round one, and
    the scores are the integer sums.
    """
    n_messages, row_bytes = codebook.shape
    n_words = -(-row_bytes // 8)
    flat = np.ascontiguousarray(codebook).reshape(-1)
    # words[w, m] is bytes 8w to 8w + 7 of row m. A row's last word runs on
    # into the next row, but those bits lie past the row's rounds, where no
    # class mask has a bit; only the last rows' would run past the end, and
    # they are read from a zero-padded copy.
    spill = -(-(8 * n_words - row_bytes) // row_bytes)
    head = max(0, n_messages - spill)
    tail = np.zeros((n_messages - head) * row_bytes + 8, dtype=np.uint8)
    tail[:-8] = flat[head * row_bytes:]
    words = np.empty((n_words, n_messages), dtype="<u8")
    words[:, :head] = np.ndarray((n_words, head), "<u8", flat, strides=(8, row_bytes))
    words[:, head:] = np.ndarray((n_words, n_messages - head), "<u8", tail,
                                 strides=(8, row_bytes))
    counts = np.zeros((steps.shape[1], n_messages), dtype=count_dtype)
    word = np.empty(n_messages, dtype=np.uint64)
    ones = np.empty(n_messages, dtype=np.uint8)
    for c, w, mask in pairs:
        np.bitwise_and(words[w], mask, out=word)
        count = counts[c]
        np.add(count, np.bitwise_count(word, out=ones), out=count)
    return steps @ counts


def _float_at_most(value: int) -> float:
    """The largest float64 that is at most the integer `value`."""
    nearest = float(value)
    return nearest if nearest <= value else math.nextafter(nearest, -math.inf)


def _mixture_pick(scores: np.ndarray, base: np.ndarray, shift: int) -> int:
    """The message whose leaf mixture log sum_h exp(s_h) is highest, s_h =
    2^-shift (scores[h, m] + base[h]); an exact tie goes to the lowest index.

    scores (float64) and base (int64) hold integers, and so does each sum,
    all below 2^53 in magnitude (float64 holds the scores exactly). A
    mixture lies in [max_h s_h, max_h s_h + log H]. So only messages whose
    best leaf is within log H of the overall best (plus two units, for the
    rounding of the mixing) can win, and only they are mixed, with
    `math.exp` and `math.fsum`, from sums taken in Python integers. They are
    found leaf by leaf, scores[h] against the threshold less base[h], so no
    sum is formed over all messages. That threshold can pass 2^53 in
    magnitude and is rounded down to a float, which can admit a message
    just below the window; being below it, that message cannot win either.
    """
    base = base.tolist()
    best = max(int(peak) + b for peak, b in zip(scores.max(axis=1).tolist(), base))
    window = math.ceil(math.ldexp(math.log(len(base)), shift)) + 2
    cuts = np.array([_float_at_most(best - window - b) for b in base])
    near = np.flatnonzero((scores >= cuts[:, None]).any(axis=0))
    pick, pick_value = -1, -math.inf
    for m, column in zip(near.tolist(), scores[:, near].T.tolist()):
        row = [int(s) + b for s, b in zip(column, base)]
        top = max(row)
        value = math.ldexp(top, -shift) + math.log(
            math.fsum(math.exp(math.ldexp(s - top, -shift)) for s in row))
        if value > pick_value:
            pick, pick_value = m, value
    return pick


def schedule_set_decoder(codebook: np.ndarray, y: np.ndarray,
                         laws: np.ndarray | _BlockLaws) -> int:
    """Exact likelihood decoding against a candidate set of per-round laws.

    `codebook` is packed as `random_codebook` returns it: uint8 rows of
    ceil(L/8) bytes, L the number of rounds. An unpacked 0/1 codebook is
    rejected, since its entries would be read as byte values, and so is a y
    that is not one 0 or 1 (or bool) per round. `laws` is the
    candidate set, either as the array p1[h, i, x] = P(y_i = 1 | x) under
    candidate schedule h, each with a uniform prior, or as its
    `_block_laws(p1)`, which a run builds once per data block. On one binary
    symmetric channel with crossover below 1/2 the ranking reduces to
    Hamming distance.

    A leaf's score is an exact integer, the sum of the rounds' fixed-point
    log-likelihoods (`_BlockLaws`): base_h + sum_c n_c d_{h,c} over the
    classes c (the rounds of one law that received one bit), with n_c =
    popcount(codeword AND mask_c). The block's plan (its law word masks, the
    d's as a float64 matrix and the count type) is built with its laws, once
    per block in a run; a decode packs y into words once, takes
    the class masks as law AND NOT y and law AND y, and counts the classes
    that y leaves nonempty. Codewords with equal counts score equal. The sum
    over classes is a BLAS product, but of integers that float64 holds
    exactly (`_count_scores`), and base_h is added after it, so no score or
    pick depends on the BLAS kernel, its thread count or a SIMD path.
    `_mixture_pick` adds base_h and mixes the leaves; an exact tie goes to
    the lowest message index. Each class costs a pass over the codewords, so a block
    whose rounds all have their own law (a `gaussian` leaf of many states)
    takes one pass per round.
    """
    if not isinstance(laws, _BlockLaws):
        laws = _block_laws(laws)
    length = laws.labels.size
    if codebook.dtype != np.uint8 or codebook.ndim != 2 or codebook.shape[1] != (length + 7) // 8:
        raise ValueError(f"codebook must be packed uint8 rows of {(length + 7) // 8} bytes "
                         f"for {length} rounds, got {codebook.dtype} of shape {codebook.shape}")
    y = np.asarray(y)
    if y.shape != (length,):
        raise ValueError(f"y must hold one output per round, {length}, got shape {y.shape}")
    ones = y == 1
    if not (ones | (y == 0)).all():
        raise ValueError("y must hold binary outputs, 0 or 1")
    sizes = np.bincount(2 * laws.labels + ones, minlength=len(laws.q))
    present = np.flatnonzero(sizes)
    masks = laws.pair_mask & (_words(ones)[laws.pair_word] ^ laws.pair_flip)
    live = masks != 0
    # count row i is class present[i], whose steps are column i
    rows = np.searchsorted(present, laws.pair_class[live])
    scores = _count_scores(codebook, zip(rows.tolist(), laws.pair_word[live].tolist(),
                                         masks[live]),
                           laws.steps[:, present], laws.count_dtype)
    # base after the product, not inside it: base and the product's terms are
    # each below 2^52 + L/2 in magnitude, and so is a score, but a partial sum
    # of base and some of the terms can pass 2^53
    return _mixture_pick(scores, sizes @ laws.q[:, :, 0], laws.shift)


def run_data_phase(message_bits: np.ndarray, sender_seed: np.ndarray,
                   receiver_seed: np.ndarray, run: _Run, strategy_idx: int, trial: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Send message_bits raw (no XOR layer) in seed-keyed random sub-blocks.

    The sender and receiver build their codebooks from their own seed copies:
    the receiver draws the whole codebook, and the sender draws only the row
    it sends (which it reads from the receiver's draw when the copies are
    equal, since they then select the same codebook). A seed mismatch yields
    independently wrong codebooks and hence garbage decoding, which is the
    honest failure mode. Decoding is exact likelihood against the candidate
    schedule set, which the receiver knows from the config; the realised
    schedule stays hidden.
    """
    plan = run.plan
    if sum(b for _, b in plan) != len(message_bits):
        raise ValueError("message length does not match the block plan")
    mean, sd = run.tables[strategy_idx].data
    # the codebook key depends only on the seed value, so equal copies share one draw
    shared = np.array_equal(sender_seed, receiver_seed)
    key = (run.config.master_seed, strategy_idx, trial)
    decoded = np.zeros_like(message_bits)
    pos_rounds = 0
    pos_bits = 0
    for block, (length, bits) in enumerate(plan):
        m = _bits_to_int(message_bits[pos_bits : pos_bits + bits])
        cb_recv = random_codebook(1 << bits, length, *key, receiver_seed, block)
        row = cb_recv[m] if shared else _codebook_rows(m, m + 1, length, *key, sender_seed,
                                                       block)[0]
        x = np.unpackbits(row, count=length, bitorder="little").astype(np.int64)
        rounds = slice(pos_rounds, pos_rounds + length)
        y = _bpsk_outputs(x, (mean[rounds], sd[rounds]), rng)
        m_hat = schedule_set_decoder(cb_recv, y, run.data[block])
        decoded[pos_bits : pos_bits + bits] = (m_hat >> np.arange(bits - 1, -1, -1)) & 1
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


# trials per task, the same for every worker count: a chunk of one leaf's
# trials runs its side phases as arrays with a leading trial axis
_CHUNK = 8


def _run_trial(run: _Run, strategy_idx: int, trials: range) -> list[dict]:
    """The records of a chunk of trials of leaf `strategy_idx` of the run's
    jammer, in trial order.

    Each trial draws every stream from its own `_rng` key, so a record does
    not depend on the chunk it ran in. Phase 1 and the seed transfer take
    the chunk's generators at once (`run_correlation_phase`, `run_cr_phase`);
    the data phase runs one trial at a time.
    """
    config = run.config
    seed = config.master_seed

    def rngs(tag: int) -> list[np.random.Generator]:
        return [_rng(seed, strategy_idx, trial, tag) for trial in trials]

    if config.code_mode == "correlation-assisted":
        u_bits, v_bits = run_correlation_phase(run, strategy_idx, rngs(_TAG_PHASE1))
        sender_seed = _per_trial(rngs(_TAG_SEED), lambda gen: gen.integers(
            0, 2, size=config.cr_seed_bits, dtype=np.int64))
        cr = run_cr_phase(u_bits, v_bits, run, strategy_idx, sender_seed, rngs(_TAG_PHASE2))
    else:
        # no side phase: both ends hold a free seed, of no width in
        # deterministic mode, as if a flawless transfer had delivered it
        width = config.cr_seed_bits if config.code_mode == "common-randomness" else 0
        sender_seed = _per_trial(rngs(_TAG_FREE_SEED), lambda gen: gen.integers(
            0, 2, size=width, dtype=np.int64))
        cr = {"received": sender_seed, "agree": np.ones(len(trials), dtype=bool),
              "parity_ok": np.ones(len(trials), dtype=bool), "t_hat": np.zeros(len(trials))}
    message_bits = sum(bits for _, bits in run.plan)
    records = []
    for trial, sent, received, agree, parity_ok, t_hat in zip(
            trials, sender_seed, cr["received"], cr["agree"].tolist(), cr["parity_ok"].tolist(),
            cr["t_hat"].tolist()):
        message = _rng(seed, strategy_idx, trial, _TAG_MESSAGE).integers(
            0, 2, size=message_bits, dtype=np.int64)
        decoded = run_data_phase(message, sent, received, run, strategy_idx, trial,
                                 _rng(seed, strategy_idx, trial, _TAG_PHASE3))
        records.append({
            "strategy": config.jammer.leaves()[strategy_idx].label,
            "trial": trial,
            "message_ok": bool(np.array_equal(message, decoded)),
            "bit_errors": int((message != decoded).sum()),
            "message_bits": int(len(message)),
            "seed_ok": agree,
            "parity_ok": parity_ok,
            "t_hat": t_hat,
        })
    return records


def trials_to_csv(records: Sequence[dict], fh: TextIO) -> None:
    """Write a report's per_trial as CSV, one row per trial: the columns are the
    record's keys in order, bools are written as 0/1 (csv.writer writes floats by repr).
    No records raise ValueError, since there is no header to write."""
    if not records:
        raise ValueError("no trial records")
    writer = csv.writer(fh)
    writer.writerow(records[0])
    for record in records:
        writer.writerow(int(v) if isinstance(v, bool) else v for v in record.values())


def _check_workers(workers) -> None:
    """A worker count must be an integer of at least 1, else ValueError."""
    _require_integer("workers", workers)
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")


def _pool_size(requested: int, tasks: int) -> int:
    """Worker processes worth starting: no more than tasks (chunks of trials)
    or CPUs, at least 1."""
    return max(1, min(requested, tasks, os.cpu_count() or 1))


def simulate(config: SimConfig, workers: int = 1) -> SimReport:
    """Run all trials against every leaf strategy and aggregate the worst case.

    The report is a pure function of the config: trials draw from
    counter-based sub-streams and are merged in a fixed order, so any worker
    count produces the identical report. A worker count that is not an
    integer of at least 1 raises ValueError before any trial runs. The run's
    tables (`_Run`) are built once, before the first trial, and are gone
    when the call returns.
    """
    _check_workers(workers)
    leaves = config.jammer.leaves()
    run = _run_tables(config)
    tasks = [
        (run, si, range(t, min(t + _CHUNK, config.trials)))
        for si in range(len(leaves))
        for t in range(0, config.trials, _CHUNK)
    ]
    workers = _pool_size(workers, len(tasks))
    if workers == 1:
        chunks = [_run_trial(*task) for task in tasks]
    else:
        # imported here: multiprocessing costs every process that never
        # opens a pool about 2 MB of resident memory
        from concurrent.futures import ProcessPoolExecutor

        # map returns results in task order, whatever order they finish in;
        # each task carries the run's tables, pickled
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_trial, *zip(*tasks)))
    crossovers = run.crossovers or (None,) * len(leaves)
    records = [record for chunk in chunks for record in chunk]
    per_strategy = {}
    failures = []
    for si, leaf in enumerate(leaves):
        rows = records[si * config.trials : (si + 1) * config.trials]
        failures.append(sum(not row["message_ok"] for row in rows))
        per_strategy[leaf.label] = {
            "empirical_error": failures[-1] / len(rows),
            "error_ci95": list(wilson_interval(failures[-1], len(rows))),
            "mean_crossover": sum(row["t_hat"] for row in rows) / len(rows),
            "model_crossover": crossovers[si],
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
