"""Protocol phases, decoders, exact evaluation, and the simulation harness."""

import dataclasses
import io
import json
import math
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from avcsim.bivariate import (BinaryJointDist, quadrant_distribution, quadrant_laws, homodyne_xx,
                              std_normal_cdf, std_normal_cdf_array)
from avcsim.channels import avc_kernel, binary_entropy, bsc_table, crossover_probs
from avcsim.gaussian import JammerGaussian, mix_tmsv_with_jammer, receiver_port_moments
from avcsim.protocol import (
    CODE_MODES,
    SOURCES,
    JammerStrategy,
    SimConfig,
    canonical_schedules,
    evaluate_code_error_exact,
    jammer_state_for_symbol,
    random_codebook,
    run_correlation_phase,
    run_cr_phase,
    run_data_phase,
    schedule_set_decoder,
    simulate,
    symmetrizing_attack_error,
    trials_to_csv,
    wilson_interval,
)
from avcsim import protocol
from avcsim.protocol import (
    _block_laws,
    _block_plan,
    _bpsk_law,
    _bpsk_flip_table,
    _bpsk_outputs,
    _count_scores,
    _pair_law,
    _pair_outputs,
    _pool_size,
    _rng,
    _run_tables,
    _vote_model,
    _words,
)

from oracles import (
    cr_decode_float,
    cr_decode_reference,
    cr_slot_sums_reference,
    hamming_decoder,
    random_codebook_reference,
    repetition_majority_error,
    schedule_set_decoder_reference,
    schedule_set_exact_scores,
    trial_record_reference,
    vote_model_reference,
)


def _pack(bits) -> np.ndarray:
    """(M, L) 0/1 codewords in `random_codebook`'s packed layout."""
    return np.packbits(np.asarray(bits, dtype=np.uint8), axis=-1, bitorder="little")


def test_jammer_state_for_symbol():
    plus = jammer_state_for_symbol(0, 1.5)
    minus = jammer_state_for_symbol(1, 1.5)
    assert plus.a == pytest.approx(math.sqrt(2.0) * 1.5)
    assert minus.a == pytest.approx(-plus.a)
    assert plus.A == plus.B == 0.5
    thermal = jammer_state_for_symbol(2, 1.5)
    assert thermal.A == thermal.B == pytest.approx(0.5 * (2.0 * 2.25 + 1.0))
    assert thermal.mean_photons == pytest.approx(2.25)
    with pytest.raises(ValueError):
        jammer_state_for_symbol(3, 1.0)


def test_strategy_validation_and_labels():
    s = JammerStrategy.from_symbols((0, 1, 2))
    assert s.label == "symbols-012"
    assert s.leaves() == (s,)
    g = JammerStrategy.from_states([JammerGaussian(A=0.5, B=0.5)], label="vac")
    assert g.label == "vac"
    w = JammerStrategy.worst_of([s, g])
    assert w.leaves() == (s, g)
    with pytest.raises(ValueError):
        JammerStrategy(kind="nope")
    with pytest.raises(ValueError):
        JammerStrategy.from_symbols(())
    with pytest.raises(ValueError):
        JammerStrategy.from_symbols((0, 7))
    for bad in ((0, 1.5), (0, 1.0), (0, True), ("0",)):
        with pytest.raises(ValueError, match="^jammer symbol must be an integer"):
            JammerStrategy.from_symbols(bad)
    assert JammerStrategy.from_symbols(np.array([0, 2])).symbols == (0, 2)
    with pytest.raises(ValueError):
        JammerStrategy.from_states([])
    with pytest.raises(ValueError):
        JammerStrategy.worst_of([w])  # no nesting
    with pytest.raises(ValueError, match="distinct labels"):
        JammerStrategy.worst_of([s, JammerStrategy.from_symbols((1,), label=s.label)])
    with pytest.raises(ValueError, match="takes no states"):
        JammerStrategy(kind="symbols", symbols=(0,), states=g.states)
    with pytest.raises(ValueError, match="label must be a string"):
        JammerStrategy.from_symbols((0,), label=5)


def test_strategy_round_params_tiling_and_offset():
    s = JammerStrategy.from_symbols((0, 1, 2))
    big_a, disp = s.round_params(5, 1.0)
    states = [jammer_state_for_symbol(i % 3, 1.0) for i in range(5)]
    assert np.allclose(big_a, [st.A for st in states])
    assert np.allclose(disp, [st.a for st in states])
    # offset slices the same global schedule
    big_a2, disp2 = s.round_params(3, 1.0, offset=2)
    assert np.allclose(big_a2, big_a[2:5])
    assert np.allclose(disp2, disp[2:5])
    with pytest.raises(ValueError):
        canonical_schedules().round_params(4, 1.0)


def test_strategy_json_round_trip():
    strategies = [
        JammerStrategy.from_symbols((2, 0), "mix"),
        JammerStrategy.from_states([JammerGaussian(A=0.7, B=0.5, C=0.1, a=0.3)]),
        canonical_schedules(),
    ]
    for s in strategies:
        data = json.loads(json.dumps(s.to_json_dict()))
        clone = JammerStrategy.from_json_dict(data)
        assert clone == s
        assert clone.to_json_dict() == data
    with pytest.raises(ValueError):
        JammerStrategy.from_json_dict({"kind": "mystery"})


def test_canonical_schedules_cover_the_four_cases():
    leaves = canonical_schedules().leaves()
    assert [leaf.label for leaf in leaves] == ["all-0", "all-1", "all-2", "alternating"]
    assert leaves[2].symbols == (2,)
    assert leaves[3].symbols == (0, 1, 2)


def test_sim_config_validation():
    jam = canonical_schedules()
    good = dict(alpha=1.0, n=64, k=8, rate=0.2, jammer=jam, cr_seed_bits=1)
    SimConfig(**good)
    SimConfig(**dict(good, rate=1.0))
    for bad in (
        dict(good, alpha=0.0),
        dict(good, n=0),
        dict(good, k=-2),
        dict(good, k=64),
        dict(good, k=7),  # odd
        dict(good, rate=0.0),
        dict(good, code_mode="magic"),
        dict(good, source="laser"),
        dict(good, k=0),  # correlation-assisted needs side rounds
        dict(good, code_mode="deterministic"),  # k must be 0 outside corr mode
        dict(good, master_seed=1 << 64),
        dict(good, trials=0),
        dict(good, eta=0.0),
        dict(good, eta=1.1),
        dict(good, r=-1.0),
        dict(good, cr_seed_bits=0),
        dict(good, max_block_bits=0),
        dict(good, max_block_bits=17),
    ):
        with pytest.raises(ValueError):
            SimConfig(**bad)
    SimConfig(**dict(good, k=0, code_mode="deterministic"))
    SimConfig(**dict(good, k=0, code_mode="common-randomness"))


# (overrides of a small config, the start of the refusal) for configs that
# would fail inside `simulate` if they constructed
UNRUNNABLE = [
    ({"k": 2}, "k/2 = 1 transfer rounds cannot carry 1 seed bits"),
    ({"k": 4}, "k/2 = 2 transfer rounds cannot carry 1 seed bits"),
    ({"cr_seed_bits": 3}, "k/2 = 4 transfer rounds cannot carry 3 seed bits"),
    ({"cr_seed_bits": 8, "k": 32}, "k/2 = 16 transfer rounds cannot carry 8 seed bits"),
    ({"r": 20.0}, "a jammer state correlates"),  # rho rounds to 1
    ({"r": 300.0}, "a jammer state correlates"),
    ({"alpha": 1e6, "eta": 1.0}, "a jammer state correlates"),
    ({"r": 400.0}, "squeezing r = 400.0 is too large"),
    ({"alpha": 1e200}, "squeezing r = 461.2"),
    ({"alpha": 1e200, "source": "thermal"}, "squeezing r = 461.2"),
    ({"alpha": 1e200, "r": 1.0}, "jammer state A must be a finite number"),
]


@pytest.mark.parametrize("overrides,message", UNRUNNABLE,
                         ids=[json.dumps(o) for o, _ in UNRUNNABLE])
def test_sim_config_refuses_a_config_that_cannot_run(overrides, message):
    kw = dict(alpha=1.0, n=40, k=8, rate=0.3, jammer=canonical_schedules(), cr_seed_bits=1)
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        SimConfig(**dict(kw, **overrides))


def test_thermal_source_runs_where_the_entangled_one_is_refused():
    # the thermal source carries no correlation, so only cosh(2r) bounds it;
    # past 177.6 the receiver port's variance product overflows a double
    for r in (20.0, 200.0, 300.0):
        cfg = SimConfig(alpha=1.0, n=40, k=8, rate=0.3, jammer=canonical_schedules(),
                        cr_seed_bits=1, r=r, source="thermal")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert simulate(cfg).per_strategy["all-0"]["trials"] == 1


def test_sim_config_defaults_and_squeezing():
    jam = canonical_schedules()
    cfg = SimConfig.defaults(1.0, 256, 0.1, jam)
    assert cfg.k == 2 * math.ceil(math.log2(256))  # 16
    assert cfg.cr_seed_bits == 3  # clamped so 8 transfer rounds fit 4 slots twice
    assert cfg.squeezing == pytest.approx(math.asinh(1.0))
    cfg2 = SimConfig.defaults(1.0, 256, 0.1, jam, r=0.25)
    assert cfg2.squeezing == 0.25
    cfg3 = SimConfig.defaults(1.0, 1024, 0.1, jam, k=800, cr_seed_bits=1)
    assert cfg3.k == 800 and cfg3.cr_seed_bits == 1


def test_sim_config_defaults_need_n_of_at_least_9_for_a_transfer_phase():
    # k/2 = 4 transfer rounds are the fewest that carry a seed bit and its
    # parity slot; n = 9 is the first blocklength whose default k has them
    jam = canonical_schedules()
    for n in range(1, 9):
        # the error names the default k, which the caller never gave
        with pytest.raises(ValueError, match=rf"default side-phase length .* cannot hold a "
                                             rf"transfer phase below n = 9, got n = {n}$"):
            SimConfig.defaults(1.0, n, 0.5, jam)
    cfg = SimConfig.defaults(1.0, 9, 0.5, jam)
    assert (cfg.k, cfg.cr_seed_bits) == (8, 1)
    # the other modes have no transfer phase: k defaults to 0 and the seed
    # width to the field's default
    field_bits = SimConfig.__dataclass_fields__["cr_seed_bits"].default
    for mode in ("common-randomness", "deterministic"):
        for n in (8, 1024):
            cfg = SimConfig.defaults(1.0, n, 0.5, jam, code_mode=mode)
            assert (cfg.k, cfg.cr_seed_bits, cfg.code_mode) == (0, field_bits, mode)
        assert SimConfig.defaults(1.0, 1024, 0.5, jam, code_mode=mode, cr_seed_bits=3,
                                  ).cr_seed_bits == 3
    assert SimConfig.defaults(1.0, 8, 0.5, jam, k=0, code_mode="common-randomness").n == 8


def test_sim_config_json_round_trip():
    cfg = SimConfig.defaults(1.0, 128, 0.15, canonical_schedules(),
                             master_seed=99, trials=3, source="thermal")
    clone = SimConfig.from_json_dict(json.loads(json.dumps(cfg.to_json_dict())))
    assert clone == cfg
    with pytest.raises(ValueError, match="missing field 'jammer'"):
        SimConfig.from_json_dict({"alpha": 1.0, "n": 8, "k": 0, "rate": 0.1})
    with pytest.raises(ValueError, match="unknown field"):
        SimConfig.from_json_dict(dict(cfg.to_json_dict(), trails=50))


_POSITIVE = st.floats(1e-6, 1e6, allow_nan=False)
_REAL = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def _jammer_states(draw):
    big_a, big_b = draw(st.floats(0.5, 100.0)), draw(st.floats(0.5, 100.0))
    # |C| stays below the largest value AB - C^2 >= 1/4 allows
    c = draw(st.floats(-0.99, 0.99)) * math.sqrt(big_a * big_b - 0.25)
    return JammerGaussian(A=big_a, B=big_b, C=c, a=draw(_REAL), b=draw(_REAL))


_LEAVES = st.one_of(
    st.builds(JammerStrategy.from_symbols,
              st.lists(st.integers(0, 2), min_size=1, max_size=6), st.text(max_size=8)),
    st.builds(JammerStrategy.from_states,
              st.lists(_jammer_states(), min_size=1, max_size=3), st.text(max_size=8)),
)
_JAMMERS = st.one_of(
    _LEAVES,
    st.builds(JammerStrategy.worst_of,
              st.lists(_LEAVES, min_size=1, max_size=4, unique_by=lambda leaf: leaf.label),
              st.text(max_size=8)),
)


@st.composite
def _sim_configs(draw):
    n = draw(st.integers(1, 10**6))
    # correlation-assisted mode needs an even k < n with k/2 >= 2 (cr_seed_bits + 1)
    mode = draw(st.sampled_from(CODE_MODES if n > 8 else ("deterministic", "common-randomness")))
    if mode == "correlation-assisted":
        cr_seed_bits = draw(st.integers(1, min(64, (n - 1) // 4 - 1)))
        k = 2 * draw(st.integers(2 * (cr_seed_bits + 1), (n - 1) // 2))
    else:
        cr_seed_bits, k = draw(st.integers(1, 64)), 0
    try:
        return SimConfig(
            alpha=draw(_POSITIVE), n=n, k=k, rate=draw(st.floats(1e-9, 1.0)),
            jammer=draw(_JAMMERS), code_mode=mode, source=draw(st.sampled_from(SOURCES)),
            master_seed=draw(st.integers(0, 2**64 - 1)), trials=draw(st.integers(1, 10**6)),
            eta=draw(st.floats(1e-9, 1.0)), r=draw(st.none() | _POSITIVE),
            cr_seed_bits=cr_seed_bits, max_block_bits=draw(st.integers(1, 16)))
    except ValueError:
        reject()  # a squeezing the source cannot carry


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_sim_configs())
def test_sim_config_json_round_trip_property(cfg):
    assert SimConfig.from_json_dict(json.loads(json.dumps(cfg.to_json_dict()))) == cfg


_MODERATE = st.floats(0.05, 3.0)
_SMALL_LEAVES = st.one_of(
    st.builds(JammerStrategy.from_symbols,
              st.lists(st.integers(0, 2), min_size=1, max_size=4), st.text(max_size=4)),
    st.builds(JammerStrategy.from_states,
              st.lists(st.builds(JammerGaussian, A=st.floats(0.5, 4.0), B=st.floats(0.5, 4.0),
                                 a=st.floats(-3.0, 3.0)), min_size=1, max_size=3),
              st.text(max_size=4)),
)


@st.composite
def _small_sim_configs(draw):
    """Small runs over every mode, source and jammer kind, at moderate
    amplitudes, squeezings and jammer moments, where runs that open a pool
    stay cheap; `test_any_config_that_constructs_runs` draws the extremes."""
    n = draw(st.integers(1, 64))
    # modes most involved first, and thermal first: Hypothesis draws early
    # elements most often, and with these orders the ten examples meet every
    # mode and source pair but (correlation-assisted, tmsv), which
    # test_simulate_report_shape_and_worker_determinism runs
    modes = CODE_MODES[::-1] if n > 8 else ("common-randomness", "deterministic")
    mode = draw(st.sampled_from(modes))
    # correlation-assisted mode needs an even k < n with k/2 >= 2 (cr_seed_bits + 1)
    k = 4 * draw(st.integers(2, (n - 1) // 4)) if mode == "correlation-assisted" else 0
    return SimConfig(
        alpha=draw(_MODERATE), n=n, k=k, rate=draw(st.floats(0.01, 1.0)),
        jammer=draw(st.one_of(st.builds(
            JammerStrategy.worst_of, st.lists(_SMALL_LEAVES, min_size=1, max_size=3,
                                              unique_by=lambda leaf: leaf.label)),
            _SMALL_LEAVES)),
        code_mode=mode, source=draw(st.sampled_from(SOURCES[::-1])),
        master_seed=draw(st.integers(0, 2**64 - 1)), trials=draw(st.integers(2, 3)),
        eta=draw(st.floats(0.05, 1.0)), r=draw(st.none() | _MODERATE),
        cr_seed_bits=draw(st.integers(1, max(1, k // 4 - 1))),
        max_block_bits=draw(st.integers(1, 8)))


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(_small_sim_configs())
def test_simulate_report_does_not_depend_on_the_worker_count(cfg):
    # two or more trials, so two workers open a pool of two processes
    assert simulate(cfg, 1).to_json_dict() == simulate(cfg, 2).to_json_dict()


# anything, and moderate values, where most configs construct
_ANY_POSITIVE = st.floats(0.0, 1e300, exclude_min=True) | st.floats(1e-3, 10.0)
_UNIT = st.floats(0.0, 1.0, exclude_min=True)


@st.composite
def _any_sim_kwargs(draw):
    """SimConfig arguments with alpha and r up to 1e300, any eta and rate,
    every mode, source and jammer kind (at `_JAMMERS`' moments), and frames
    that fit; some of them construct no config."""
    n = draw(st.integers(1, 64))
    mode = draw(st.sampled_from(CODE_MODES[::-1] if n > 8 else CODE_MODES[:2]))
    if mode == "correlation-assisted":
        k = 4 * draw(st.integers(2, (n - 1) // 4))
        cr_seed_bits = draw(st.integers(1, k // 4 - 1))
    else:
        k, cr_seed_bits = 0, draw(st.integers(1, 8))
    return dict(alpha=draw(_ANY_POSITIVE), n=n, k=k, rate=draw(_UNIT), jammer=draw(_JAMMERS),
                code_mode=mode, source=draw(st.sampled_from(SOURCES[::-1])),
                master_seed=draw(st.integers(0, 2**64 - 1)), eta=draw(_UNIT),
                r=draw(st.none() | _ANY_POSITIVE), cr_seed_bits=cr_seed_bits,
                max_block_bits=draw(st.integers(1, 16)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_any_sim_kwargs())
def test_any_config_that_constructs_runs(kw):
    try:
        cfg = SimConfig(**kw)
    except ValueError:
        reject()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = simulate(cfg)
    assert len(report.per_trial) == len(cfg.jammer.leaves())


def test_nested_worst_of_is_a_value_error_at_any_depth():
    # parsing checks the options before recursing into them, so a nesting
    # too deep for the interpreter's stack is still reported as invalid
    data = {"kind": "symbols", "symbols": [0]}
    for _ in range(5000):
        data = {"kind": "worst_of", "options": [data]}
    with pytest.raises(ValueError, match="worst_of does not nest"):
        JammerStrategy.from_json_dict(data)


def test_bpsk_sampler_matches_kernel_crossover():
    # matched jammer letter: flip rate = p; thermal letter: p_tilde; at
    # eta = 1/2 the opposing letter cancels the signal: flip rate 1/2
    p, pt = crossover_probs(1.0)
    n = 200_000
    rng = np.random.default_rng(61)
    for x, letter, expected in ((0, 0, p), (0, 2, pt), (1, 1, p), (1, 2, pt),
                                (0, 1, 0.5), (1, 0, 0.5)):
        tau = jammer_state_for_symbol(letter, 1.0)
        big_a = np.full(n, tau.A)
        disp = np.full(n, tau.a)
        y = _bpsk_outputs(np.full(n, x), _bpsk_law(big_a, disp, 1.0, 0.5), rng)
        sigma = math.sqrt(expected * (1 - expected) / n)
        assert abs((y != x).mean() - expected) <= 4 * sigma + 1e-9, (x, letter)


def test_pair_sampler_matches_quadrant_law():
    r, eta = math.asinh(1.0), 0.5
    tau = jammer_state_for_symbol(0, 1.0)
    q = quadrant_distribution(homodyne_xx(mix_tmsv_with_jammer(r, eta, tau)))
    n = 200_000
    rng = np.random.default_rng(62)
    u, v = _pair_outputs(_pair_law(np.full(n, tau.A), np.full(n, tau.a), r, eta, "tmsv"), rng)
    counts = np.bincount(2 * u + v, minlength=4) / n
    for qij, fij in zip((q.q00, q.q01, q.q10, q.q11), counts):
        sigma = math.sqrt(max(qij * (1 - qij), 1e-9) / n)
        assert abs(qij - fij) <= 4 * sigma


def test_thermal_pair_sampler_has_uncorrelated_sender_bit():
    r, eta = math.asinh(1.0), 0.5
    tau = jammer_state_for_symbol(0, 1.0)
    n = 100_000
    rng = np.random.default_rng(63)
    u, v = _pair_outputs(_pair_law(np.full(n, tau.A), np.full(n, tau.a), r, eta, "thermal"),
                         rng)
    assert abs(u.mean() - 0.5) <= 4 * math.sqrt(0.25 / n)
    corr = np.corrcoef(u, v)[0, 1]
    assert abs(corr) <= 4 / math.sqrt(n)


def test_schedule_set_decoder_reduces_to_hamming_on_a_bsc():
    rng = np.random.default_rng(65)
    for _ in range(50):
        m, length = 8, 24
        codebook = rng.integers(0, 2, size=(m, length))
        y = rng.integers(0, 2, size=length)
        p1 = np.empty((1, length, 2))
        p1[0, :, 0] = 0.2   # P(y=1 | x=0) = t
        p1[0, :, 1] = 0.8   # P(y=1 | x=1) = 1 - t
        choice = schedule_set_decoder(_pack(codebook), y, p1)
        dists = (codebook != y).sum(axis=1)
        assert dists[choice] == dists[hamming_decoder(codebook, y)]


def test_schedule_set_decoder_uses_the_round_structure():
    # one round is flipped with certainty; likelihood decoding must un-flip it
    codebook = np.array([[0, 0, 0, 0], [1, 1, 1, 1]])
    y = np.array([1, 0, 0, 0])
    p1 = np.full((1, 4, 2), 0.0)
    p1[0, :, 1] = 1.0          # clean rounds
    p1[0, 0, 0] = 1.0          # round 0 inverts the sent bit
    p1[0, 0, 1] = 0.0
    assert schedule_set_decoder(_pack(codebook), y, p1) == 0
    assert hamming_decoder(codebook, y) == 0  # distance 1 vs 3 agrees here
    y2 = np.array([0, 1, 1, 1])
    assert schedule_set_decoder(_pack(codebook), y2, p1) == 1


@pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64])
def test_schedule_set_decoder_rejects_an_unpacked_codebook(dtype):
    # the (M, L) 0/1 layout would otherwise be read as byte values
    rng = np.random.default_rng(5)
    length = 16
    y = rng.integers(0, 2, size=length)
    p1 = np.empty((1, length, 2))
    p1[0, :, 0], p1[0, :, 1] = 0.2, 0.8
    bits = rng.integers(0, 2, size=(4, length))
    with pytest.raises(ValueError, match="packed"):
        schedule_set_decoder(bits.astype(dtype), y, p1)
    packed = _pack(bits)
    with pytest.raises(ValueError, match="packed"):
        schedule_set_decoder(packed.astype(np.int64), y, p1)
    with pytest.raises(ValueError, match="packed"):
        schedule_set_decoder(packed[:, :1], y, p1)
    with pytest.raises(ValueError, match="packed"):
        schedule_set_decoder(packed[0], y, p1)
    dists = (bits != y).sum(axis=1)
    assert dists[schedule_set_decoder(packed, y, p1)] == dists.min()


def test_random_codebook_is_seed_keyed_and_deterministic():
    seed = np.array([1, 0, 1], dtype=np.int64)
    a = random_codebook(4, 10, 7, 0, 3, seed, 0)
    b = random_codebook(4, 10, 7, 0, 3, seed, 0)
    assert np.array_equal(a, b)
    assert a.shape == (4, 2)  # 10 bits packed into 2 bytes per row
    assert a.dtype == np.uint8
    assert not (a[:, 1] & 0xFC).any()  # the 6 padding bits are zero
    c = random_codebook(4, 10, 7, 0, 3, np.array([1, 1, 1], dtype=np.int64), 0)
    assert not np.array_equal(a, c)
    d = random_codebook(4, 10, 7, 0, 3, seed, 1)
    assert not np.array_equal(a, d)


# odd bit counts, 511/512/513 rows, the 130-round block both benchmark configs
# start with, and the 114-round last block of the common-randomness one
CODEBOOK_SHAPES = [(1, 1), (3, 7), (5, 13), (511, 130), (512, 130), (513, 130),
                   (4096, 114), (8192, 130)]
# (master_seed, strategy_idx, trial, seed_bits, block)
CODEBOOK_KEYS = [
    (0, 0, 0, np.zeros(0, dtype=np.int64), 0),
    (20260813, 3, 24, np.array([1], dtype=np.int64), 7),
    ((1 << 64) - 1, 1, 5, np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.int64), 2),
]


# the test keeps the name it had when the codebook was the integers(0, 2) draw
@pytest.mark.parametrize("shape", CODEBOOK_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_random_codebook_equals_the_integers_draw(shape):
    """The packed codebook is the stream rebuilt bit by bit, padding bits zero."""
    rows, length = shape
    for key in CODEBOOK_KEYS:
        got = random_codebook(*shape, *key)
        assert got.dtype == np.uint8 and got.shape == (rows, (length + 7) // 8)
        assert np.array_equal(got, _pack(random_codebook_reference(*shape, *key)))


@pytest.mark.parametrize("shape", CODEBOOK_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_a_single_row_draw_equals_the_codebooks_row(shape):
    """The sender's one-row draw skips whole 32-byte Philox steps and lands
    on the codebook's row: the first, the last, and one that crosses a step."""
    rows, length = shape
    row_bytes = (length + 7) // 8
    crossing = [m for m in range(rows)
                if (m * row_bytes) // 32 != (m * row_bytes + row_bytes - 1) // 32]
    picks = {0, rows - 1, *crossing[:1]}
    if rows * row_bytes > 32:
        assert crossing  # every shape that spans two steps has a crossing row
    for key in CODEBOOK_KEYS:
        book = random_codebook(*shape, *key)
        for m in picks:
            row = protocol._codebook_rows(m, m + 1, length, *key)
            assert row.dtype == np.uint8 and row.shape == (1, row_bytes)
            assert np.array_equal(row[0], book[m])


# every phase tag, then keys at the edges of the layout: the widest strategy
# and trial fields and a hi word of all ones, given as a negative master seed
STREAM_KEYS = [(20260813, 3, 24, tag) for tag in sorted(
    v for k, v in vars(protocol).items() if k.startswith("_TAG_"))] + [
    (0, 0xFFFF, 2**32 - 1, protocol._TAG_CODEBOOK),
    ((1 << 64) - 1, 0xFFFF, 2**32 - 1, 0xFFFF),
    (-1, 0, 0, protocol._TAG_PHASE1),
    (-(2**63), 7, 1, protocol._TAG_MESSAGE),
]


@pytest.mark.parametrize("key", STREAM_KEYS, ids=str)
def test_key_only_streams_equal_philox_from_its_key(key, monkeypatch):
    """`_philox` is `np.random.Philox(key=...)` on the documented key, draw
    for draw, and builds it without reading OS entropy."""
    hi, strategy_idx, trial, tag = key
    lo = (strategy_idx << 48) | (trial << 16) | tag
    expected = np.array([lo, hi % 2**64], dtype=np.uint64)

    def reference():
        return np.random.Philox(key=expected)

    def no_entropy(bits):
        raise AssertionError("OS entropy was read")

    # SeedSequence() takes its entropy from this name; with it patched, the
    # reference constructor fails and the key-only one must not
    monkeypatch.setattr(np.random.bit_generator, "randbits", no_entropy)
    with pytest.raises(AssertionError, match="entropy"):
        reference()
    got = protocol._philox(hi, strategy_idx, trial, tag)
    monkeypatch.undo()
    want = reference()
    assert np.array_equal(got.state["state"]["key"], expected)
    got.advance(3)
    want.advance(3)
    assert np.array_equal(got.random_raw(9), want.random_raw(9))
    got, want = (np.random.Generator(protocol._philox(hi, strategy_idx, trial, tag)),
                 np.random.Generator(reference()))
    assert np.array_equal(got.standard_normal(7), want.standard_normal(7))
    assert np.array_equal(got.integers(0, 2, 13), want.integers(0, 2, 13))
    assert np.array_equal(got.integers(0, 2**40, 5), want.integers(0, 2**40, 5))


@pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 64, 65, 130])
def test_bits_to_int_reads_the_bits_most_significant_first(width):
    bits = np.random.default_rng(width).integers(0, 2, width)
    value = 0
    for b in bits.tolist():
        value = (value << 1) | b
    assert protocol._bits_to_int(bits) == value


@pytest.mark.parametrize("length", [1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 130, 136])
def test_schedule_set_decoder_reads_the_last_rows_words(length):
    """A row's last uint64 word runs past the codebook's end for its last few
    rows (up to 7 of them), which are read from a padded copy; the picks equal
    the round-by-round oracle's, also when the received word is a last row."""
    rng = np.random.default_rng(length)
    for rows in (1, 2, 3, 8, 64):
        p1 = rng.uniform(0.02, 0.98, (2, length, 2))
        bits = rng.integers(0, 2, (rows, length))
        for y in (rng.integers(0, 2, length), bits[-1], bits[max(0, rows - 3)]):
            pick = schedule_set_decoder(_pack(bits), y, p1)
            assert pick == schedule_set_decoder_reference(bits, y, p1)


def _plan_edge_case(case: str, rng: np.random.Generator) -> tuple:
    """(p1, y, laws) of a decode-plan edge; laws is None where the decoder
    builds them from p1, else the run's laws of the block."""
    three = rng.uniform(0.02, 0.98, (3, 3, 2))  # 3 leaves, 3 laws in turn
    if case == "gaussian-130":
        # one law per round: 130 classes, one round each
        states = [JammerGaussian(A=0.5 + 0.01 * i, B=0.5, a=0.01 * i - 0.6) for i in range(130)]
        jam = JammerStrategy.worst_of([JammerStrategy.from_symbols((2,)),
                                       JammerStrategy.from_states(states)])
        cfg = SimConfig(alpha=1.0, n=1024, k=0, rate=0.1, jammer=jam,
                        code_mode="common-randomness")
        assert _block_plan(cfg)[0] == (130, 13)
        run = _run_tables(cfg)
        p1 = np.stack([_bpsk_flip_table(*tables.data)[:130] for tables in run.tables])
        laws = run.data[0]
        assert len(np.unique(laws.labels)) == 130
        return p1, rng.integers(0, 2, 130), laws
    length = {"y-all-0": 130, "y-all-1": 130, "one-round": 1, "last-word-one-round": 129}[case]
    p1 = three[:, np.arange(length) % 3]
    y = {"y-all-0": np.zeros(length, dtype=np.int64),
         "y-all-1": np.ones(length, dtype=np.int64)}.get(case, rng.integers(0, 2, length))
    return p1, y, None


@pytest.mark.parametrize("case", ["y-all-0", "y-all-1", "one-round", "last-word-one-round",
                                  "gaussian-130"])
def test_decode_plan_edges_match_the_round_by_round_reference(case, monkeypatch):
    """Each score is the Python-int sum of the rounds' fixed-point
    log-likelihoods, and each pick the round-by-round oracle's: with half
    the classes empty (y all 0 or all 1), a 1-round block, a block whose
    last word holds one round, and one class per round."""
    rng = np.random.default_rng(len(case))
    scores = []
    real = protocol._mixture_pick

    def recording(product, base, shift):
        scores.append([[int(s) + b for s in row] for row, b in zip(product.tolist(),
                                                                    base.tolist())])
        return real(product, base, shift)

    monkeypatch.setattr(protocol, "_mixture_pick", recording)
    for _ in range(4):
        p1, y, laws = _plan_edge_case(case, rng)
        laws = _block_laws(p1) if laws is None else laws
        length = len(y)
        bits = rng.integers(0, 2, (64, length))
        # the received word, a near miss and an exact tie with a later row
        bits[5], bits[9] = y, y
        bits[7] = y ^ (np.arange(length) == length - 1)
        pick = schedule_set_decoder(_pack(bits), y, laws)
        assert pick == schedule_set_decoder_reference(bits, y, p1)
        q, labels = laws.q.tolist(), laws.labels.tolist()
        exact = [[sum(q[2 * g + b][h][x] for g, b, x in zip(labels, y.tolist(), word))
                  for word in bits.tolist()] for h in range(p1.shape[0])]
        assert scores.pop() == exact


def test_schedule_set_decoder_wants_one_output_per_round():
    p1 = np.full((1, 9, 2), 0.3)
    codebook = _pack(np.zeros((4, 9), dtype=np.int64))
    for y in (np.zeros(8, dtype=np.int64), np.zeros(10, dtype=np.int64),
              np.zeros((1, 9), dtype=np.int64)):
        with pytest.raises(ValueError, match="one output per round"):
            schedule_set_decoder(codebook, y, p1)
    # an entry other than 0 or 1 is no output; read as 0, a y of 2s would
    # pick what a y of 0s picks
    for bad in (2, -1):
        y = np.zeros(9, dtype=np.int64)
        y[4] = bad
        with pytest.raises(ValueError, match="binary outputs"):
            schedule_set_decoder(codebook, y, p1)
    # bool outputs are binary
    assert schedule_set_decoder(codebook, np.ones(9, dtype=bool), p1) == 0


# the test keeps the name it had when the reference was the int64 product
def test_schedule_set_decoder_matches_the_int64_reference():
    """Picks equal the round-by-round oracle's, and each is the lowest index
    of the exact maximum."""
    rng = np.random.default_rng(20260814)
    # (rows, leaves, length, one constant law per leaf)
    cases = [(rows, leaves, int(rng.integers(1, 131)), False)
             for rows in (1, 2, 511, 512, 513, 3 * 512 + 1) for leaves in (1, 2, 3, 4)]
    # constant laws on short blocks make exact ties common: codewords with
    # equal counts of ones among the rounds that received 0 and among those
    # that received 1 tie exactly, and the lowest index must win
    cases += [(rows, 4, 16, True) for rows in (513, 3 * 512 + 1) for _ in range(100)]
    for rows, leaves, length, constant in cases:
        if constant:
            p1 = np.broadcast_to(rng.uniform(0.02, 0.98, (leaves, 1, 2)), (leaves, length, 2))
        else:
            p1 = rng.uniform(0.02, 0.98, (leaves, length, 2))
        bits = rng.integers(0, 2, size=(rows, length))
        y = rng.integers(0, 2, size=length)
        pick = schedule_set_decoder(_pack(bits), y, p1)
        assert pick == schedule_set_decoder_reference(bits, y, p1)
        exact = schedule_set_exact_scores(bits, y, p1)
        assert exact[pick] >= max(exact) - 1e-9 * abs(max(exact))
        assert pick == exact.index(max(exact))


@pytest.mark.parametrize("first,second,rows", [(511, 512, 1024), (0, 1536, 3 * 512 + 1)])
def test_schedule_set_decoder_breaks_an_exact_tie_to_the_lowest_index(first, second, rows):
    rng = np.random.default_rng(first + second)
    length = 130
    codebook = rng.integers(0, 2, size=(rows, length)).astype(bool)
    y = rng.integers(0, 2, size=length)
    codebook[[first, second]] = y
    # two leaves with every crossover below 1/2: the received word itself is
    # the most likely codeword under both, and it sits at first and second
    t = rng.uniform(0.05, 0.45, length)
    p1 = np.empty((2, length, 2))
    p1[0, :, 0], p1[0, :, 1] = 0.1, 0.9
    p1[1, :, 0], p1[1, :, 1] = t, 1.0 - t
    assert schedule_set_decoder(_pack(codebook), y, p1) == first


def test_unique_rows_equal_numpy_unique_along_axis_0():
    """The block laws' dedupe gives np.unique's distinct rows, in its order,
    and its inverse, on rows with many repeats and ties in leading columns."""
    rng = np.random.default_rng(2022)
    values = np.array([1e-300, 1e-17, 0.25, 0.5, 0.75, 1.0 - 1e-16])
    for n_rows, n_cols, n_values in ((1, 2, 6), (7, 1, 2), (400, 8, 2), (130, 10, 3),
                                     (300, 4, 6), (64, 2, 1)):
        rows = rng.choice(values[:n_values], size=(n_rows, n_cols))
        laws, labels = protocol._unique_rows(rows)
        expected, inverse = np.unique(rows, axis=0, return_inverse=True)
        assert np.array_equal(laws, expected) and laws.dtype == expected.dtype
        assert labels.tolist() == inverse.reshape(-1).tolist()


def _class_pairs(round_class: np.ndarray, present: np.ndarray, steps: np.ndarray) -> tuple:
    """`_count_scores`' arguments after the codebook for the classes `present`
    (steps[i] is class present[i]'s), from each round's class: the nonzero
    words of each class's `_words` mask, the steps as (leaves, classes)
    float64 and the count type of the block length."""
    masks = _words(round_class == present[:, None])
    classes, at = np.nonzero(masks)
    return (zip(classes.tolist(), at.tolist(), masks[classes, at]), steps.T.astype(float),
            np.min_scalar_type(len(round_class)))


def test_count_scores_equal_the_round_by_round_integer_sum():
    """The class-count kernel adds up the fixed-point log-likelihoods to the
    round-by-round integer sum, with one class per round or a few shared."""
    rng = np.random.default_rng(20261019)
    for length in (1, 7, 8, 63, 64, 65, 130, 300):
        for n_laws in (1, 3, length):
            leaves, rows = int(rng.integers(1, 6)), int(rng.integers(1, 700))
            p1 = rng.uniform(0.01, 0.99, (leaves, n_laws, 2))[:, rng.integers(0, n_laws, length)]
            y = rng.integers(0, 2, length)
            bits = rng.integers(0, 2, (rows, length))
            laws = _block_laws(p1)
            round_class = 2 * laws.labels + y
            present = np.unique(round_class)
            steps = laws.q[present, :, 1] - laws.q[present, :, 0]
            counted = _count_scores(_pack(bits), *_class_pairs(round_class, present, steps))
            per_round = laws.q[round_class, :, 1] - laws.q[round_class, :, 0]
            exact = (bits.astype(object) @ per_round.astype(object)).T
            # float64 against Python ints: == is exact both ways
            assert counted.dtype == np.float64 and counted.tolist() == exact.tolist()


@pytest.mark.parametrize("length", [255, 256, 300, 65537])
def test_count_scores_stay_exact_at_the_float64_edge(length):
    """Laws at the clip bounds make the scores as large as `_BlockLaws`
    allows (at least 2^51, below 2^53), and the class counts reach the block
    length, so the float64 product and the count type (uint8, uint16, then
    uint32) are both pushed to their edge; the scores still equal the
    Python-int sums."""
    rng = np.random.default_rng(length)
    low, high = 1e-300, 1.0 - 1e-16
    # leaf 0 reads y = 1 as strong evidence for x = 1 and leaf 1 for x = 0;
    # leaf 2 has laws beyond the clip bounds, which clip onto them
    edge = np.array([[low, high], [high, low], [0.0, 1.0]])
    for y_kind in ("ones", "mixed"):
        p1 = np.repeat(edge[:, None, :], length, axis=1)
        if y_kind == "mixed":
            # a second law on a few rounds, so there are several classes
            p1[:, rng.integers(0, length, 5)] = edge[:, None, ::-1]
        y = np.ones(length, dtype=np.int64) if y_kind == "ones" else rng.integers(0, 2, length)
        bits = np.vstack([np.ones(length, dtype=np.int64), np.zeros(length, dtype=np.int64),
                          rng.integers(0, 2, (2, length))])
        laws = _block_laws(p1)
        round_class = 2 * laws.labels + y
        present = np.unique(round_class)
        steps = laws.q[present, :, 1] - laws.q[present, :, 0]
        counted = _count_scores(_pack(bits), *_class_pairs(round_class, present, steps))
        per_round = laws.q[round_class, :, 1] - laws.q[round_class, :, 0]
        exact = (bits.astype(object) @ per_round.astype(object)).T
        assert counted.dtype == np.float64 and counted.tolist() == exact.tolist()
        assert not counted[:, 1].any()  # the all-zeros row
        largest = int(np.abs(counted).max())
        if y_kind == "ones":
            assert 2**51 <= largest < 2**53
        else:
            assert largest < 2**53


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), leaves=st.integers(1, 4), length=st.integers(1, 140),
       n_laws=st.integers(1, 4), rows=st.integers(1, 300), at=st.floats(0.0, 1.0))
def test_equal_class_counts_score_equal(seed, leaves, length, n_laws, rows, at):
    """A copy of the pick with its bits permuted within each class (rounds of
    one law that received one bit) ties with it exactly; the lower index wins."""
    rng = np.random.default_rng(seed)
    label = rng.integers(0, n_laws, length)
    p1 = rng.uniform(0.02, 0.98, (leaves, n_laws, 2))[:, label]
    y = rng.integers(0, 2, length)
    bits = rng.integers(0, 2, (rows, length))
    pick = schedule_set_decoder(_pack(bits), y, p1)
    twin = bits[pick].copy()
    round_class = 2 * label + y
    for c in np.unique(round_class):
        idx = np.flatnonzero(round_class == c)
        twin[idx] = twin[rng.permutation(idx)]
    where = int(at * rows)
    doubled = np.insert(bits, where, twin, axis=0)
    assert schedule_set_decoder(_pack(doubled), y, p1) == (where if where <= pick else pick)


def _data_config(rounds: int, rate: float, max_block_bits: int) -> SimConfig:
    """A config whose data phase has the given rounds, rate and block cap."""
    return SimConfig(alpha=1.0, n=rounds + 32, k=32, rate=rate, jammer=canonical_schedules(),
                     cr_seed_bits=3, max_block_bits=max_block_bits)


def test_block_plan_caps_and_covers():
    plan = _block_plan(_data_config(224, 0.1, 13))
    assert sum(length for length, _ in plan) == 224
    assert all(bits <= 13 for _, bits in plan)
    assert all(bits == math.ceil(0.1 * length) for length, bits in plan)
    assert _block_plan(_data_config(5, 1.0, 1)) == ((1, 1),) * 5
    # 13 / rate overflows to inf
    assert _block_plan(_data_config(64, 5e-324, 13)) == ((64, 1),)


def _assert_plan_caps_and_covers(rounds: int, rate: float, max_block_bits: int) -> None:
    cfg = SimConfig(alpha=1.0, n=rounds, k=0, rate=rate, max_block_bits=max_block_bits,
                    code_mode="deterministic", jammer=JammerStrategy.from_symbols((0,)))
    plan = _block_plan(cfg)
    assert sum(length for length, _ in plan) == rounds
    for length, bits in plan:
        assert bits == math.ceil(rate * length) <= max_block_bits, (rate, max_block_bits, plan)


def test_block_plan_never_exceeds_the_bit_cap():
    # max_block_bits / rate rounds up to 273 here, and 3/273 * 273 is just
    # above 3: 273-round blocks would carry 4 bits, 16 messages and not 8
    cfg = SimConfig(alpha=1.0, n=600, k=0, rate=3 / 273, max_block_bits=3,
                    code_mode="deterministic", jammer=JammerStrategy.from_symbols((0,)))
    assert _block_plan(cfg)[0] == (272, 3)
    for max_block_bits in range(1, 17):
        for d in range(max_block_bits, 400):
            _assert_plan_caps_and_covers(600, max_block_bits / d, max_block_bits)
    rng = np.random.default_rng(273)
    for _ in range(300):
        _assert_plan_caps_and_covers(int(rng.integers(1, 5000)), float(rng.uniform(1e-4, 1.0)),
                                     int(rng.integers(1, 17)))


def test_run_correlation_phase_counts():
    # k/2 pairs; the shortest correlation-assisted config has k = 8
    cfg = SimConfig(alpha=1.0, n=32, k=8, rate=0.2, jammer=canonical_schedules(),
                    cr_seed_bits=1)
    u, v = run_correlation_phase(_run_tables(cfg), 0, np.random.default_rng(1))
    assert u.shape == v.shape == (4,)
    longer = dataclasses.replace(cfg, k=30)
    u, v = run_correlation_phase(_run_tables(longer), 0, np.random.default_rng(1))
    assert u.shape == v.shape == (15,)


def test_run_cr_phase_agreement_and_errors():
    jam = canonical_schedules()
    cfg = SimConfig(alpha=1.0, n=1024, k=200, rate=0.1, jammer=jam, cr_seed_bits=2)
    run = _run_tables(cfg)
    agree = 0
    for trial in range(20):
        u, v = run_correlation_phase(run, 0, _rng(5, 0, trial, 1))
        seed_bits = _rng(5, 0, trial, 2).integers(0, 2, size=cfg.cr_seed_bits,
                                                  dtype=np.int64)
        out = run_cr_phase(u, v, run, 0, seed_bits, _rng(5, 0, trial, 3))
        assert out["received"].shape == (cfg.cr_seed_bits,)
        assert 0.0 <= out["t_hat"] <= 1.0
        agree += out["agree"]
    assert agree >= 18  # ~33 votes per slot at an effective crossover near 1/4
    # bits of the wrong shape are refused: no round carries a 4-bit seed's
    # last two slots, nor a frame from sign bits of the wrong length
    seed_bits = np.zeros(2, dtype=np.int64)
    for bad in ((u, v, np.zeros(4, dtype=np.int64)), (u, v, seed_bits[None]),
                (u[:-1], v, seed_bits), (u, v[None], seed_bits)):
        with pytest.raises(ValueError, match="must have shape"):
            run_cr_phase(bad[0], bad[1], run, 0, bad[2], _rng(5, 0, 0, 3))
    # a transfer phase too short for the frame is refused with the config,
    # before any phase runs
    with pytest.raises(ValueError, match="cannot carry"):
        dataclasses.replace(cfg, k=8)
    with pytest.raises(ValueError, match="cannot carry"):
        dataclasses.replace(cfg, k=4, cr_seed_bits=1)


@pytest.fixture
def transfer(monkeypatch):
    """`run_cr_phase` returning also its decoded frame, the votes it decoded
    (from the outputs it drew with `_bpsk_outputs`) and the rounds' slots."""
    outputs = []

    def recording(*args):
        outputs.append(_bpsk_outputs(*args))
        return outputs[-1]

    monkeypatch.setattr(protocol, "_bpsk_outputs", recording)

    def transfer_and_votes(u, v, run, strategy_idx, seed_bits, rng):
        out = run_cr_phase(u, v, run, strategy_idx, seed_bits, rng)
        slots, masks = run.frame
        votes = outputs.pop() ^ masks ^ v
        parity = int(out["received"].sum() % 2)
        frame = out["received"].tolist() + [parity if out["parity_ok"] else 1 - parity]
        # t_hat is the votes' disagreement with that frame
        assert out["t_hat"] == float((votes != np.array(frame)[slots]).mean())
        return out, frame, votes, slots

    return transfer_and_votes


def _vote_models(cfg: SimConfig) -> np.ndarray:
    """vm[h, i, f, w] = P(vote_i = w | frame bit f) under leaf h of the
    config's jammer, each from its `_vote_model`."""
    masks = protocol._frame_layout(cfg)[1]
    return np.stack([_vote_model(tables, masks) for tables in _run_tables(cfg).tables])


_SEED_JAMMERS = {
    "canonical": canonical_schedules(),
    "cyclic-and-gaussian": JammerStrategy.worst_of([
        JammerStrategy.from_symbols((2, 0, 1, 1, 2)),
        JammerStrategy.from_states([JammerGaussian(A=0.7, B=0.5, a=0.3),
                                    JammerGaussian(A=1.5, B=0.3, a=-1.0)])]),
    # one law per round
    "gaussian-31": JammerStrategy.from_states(
        [JammerGaussian(A=0.5 + 0.04 * i, B=0.5, a=0.07 * i - 1.0) for i in range(31)]),
}


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("jammer", sorted(_SEED_JAMMERS))
def test_seed_decision_matches_the_integer_reference_and_the_float_form(transfer, source,
                                                                         jammer):
    jam = _SEED_JAMMERS[jammer]
    leaves = jam.leaves()
    cfg = SimConfig(alpha=1.1, n=200, k=62, rate=0.2, jammer=jam, source=source,
                    cr_seed_bits=3)
    run = _run_tables(cfg)
    laws = run.votes
    vm = _vote_models(cfg)
    unit = 2.0 ** -laws.shift
    rng = np.random.default_rng(18)
    checked = 0
    for trial in range(24):
        u, v = rng.integers(0, 2, size=(2, cfg.k // 2))
        seed_bits = rng.integers(0, 2, size=cfg.cr_seed_bits)
        _, frame, votes, slots = transfer(u, v, run, trial % len(leaves), seed_bits,
                                          _rng(18, 0, trial, 3))
        reference, best = cr_decode_reference(votes, slots, laws)
        assert frame == reference
        # the float form may pick another leaf only within the fixed-point
        # slack of its totals, and it decides every slot its margin puts
        # beyond that slack as the integers do
        decoded, totals, margins = cr_decode_float(votes, slots, vm)
        if int(np.argmax(totals)) != best:
            assert totals.max() - totals[best] <= len(votes) * unit
            continue
        sure = np.abs(margins) > np.bincount(slots) * unit
        assert np.array_equal(decoded[sure], np.array(frame)[sure])
        checked += int(sure.sum())
    # the thermal source's votes carry no evidence, so its margins are all slack
    assert checked >= (48 if source == "tmsv" else 0)


@pytest.mark.parametrize("alpha, eta, k, bits", [(1.0, 0.5, 32, 3), (3.7, 0.2, 8, 1),
                                                 (1.0, 0.2, 64, 5), (2.0, 0.9, 8, 1)])
def test_thermal_seed_slots_tie_and_decode_to_the_all_zero_frame(alpha, eta, k, bits):
    # the sender's bit is a coin, so the vote law is one under both frame
    # bits; the float model tells them apart in the last bit, and at these
    # configs that once reached the fixed-point laws
    jam = canonical_schedules()
    cfg = SimConfig(alpha=alpha, n=k + 64, k=k, rate=0.1, jammer=jam, source="thermal",
                    eta=eta, cr_seed_bits=bits)
    run = _run_tables(cfg)
    laws = run.votes
    assert np.array_equal(laws.q[..., 0], laws.q[..., 1])
    rng = np.random.default_rng(k)
    for trial in range(8):
        u, v = rng.integers(0, 2, size=(2, k // 2))
        seed_bits = rng.integers(0, 2, size=bits)
        out = run_cr_phase(u, v, run, trial % 4, seed_bits, _rng(k, 0, trial, 3))
        assert not out["received"].any() and out["parity_ok"]


def test_equal_leaf_totals_go_to_the_lowest_leaf(transfer):
    cfg = SimConfig(alpha=1.0, n=128, k=32, rate=0.1, jammer=canonical_schedules(),
                    cr_seed_bits=3)
    run = _run_tables(cfg)
    one = run.votes._replace(q=run.votes.q[:, :1])
    # leaf 1 reads leaf 0's laws with the frame bit flipped, so the leaves'
    # totals tie exactly and their decodes differ on every slot not tied
    mirrored = one._replace(q=np.concatenate([one.q, one.q[..., ::-1]], axis=1))
    run = run._replace(votes=mirrored)
    rng = np.random.default_rng(4)
    for trial in range(6):
        u, v = rng.integers(0, 2, size=(2, cfg.k // 2))
        seed_bits = rng.integers(0, 2, size=cfg.cr_seed_bits)
        _, frame, votes, slots = transfer(u, v, run, 0, seed_bits, _rng(4, 0, trial, 3))
        assert (frame, 0) == cr_decode_reference(votes, slots, mirrored)
        assert frame == cr_decode_reference(votes, slots, one)[0]
        assert frame != cr_decode_reference(votes, slots, one._replace(q=one.q[..., ::-1]))[0]


def test_criterion_10_tied_parity_slot_decodes_to_0(transfer):
    # all-0 trial 150 of criterion 10's run: its parity slot ties exactly,
    # which the float sums had at a margin of 4.3e-14, decoding to 1
    cfg = SimConfig(alpha=1.0, n=1024, k=800, rate=0.1, jammer=canonical_schedules(),
                    master_seed=20260813, trials=200, cr_seed_bits=1)
    run, seed, trial = _run_tables(cfg), cfg.master_seed, 150
    u, v = run_correlation_phase(run, 0, _rng(seed, 0, trial, protocol._TAG_PHASE1))
    seed_bits = _rng(seed, 0, trial, protocol._TAG_SEED).integers(0, 2, size=1, dtype=np.int64)
    out, frame, votes, slots = transfer(u, v, run, 0, seed_bits,
                                        _rng(seed, 0, trial, protocol._TAG_PHASE2))
    laws = run.votes
    parity = slots == 1
    sums = laws.q[2 * laws.labels[parity] + votes[parity], 0].sum(axis=0)
    assert sums[0] == sums[1]
    assert frame == [0, 0] and out["parity_ok"] and out["agree"]
    # leaves all-0 and all-1 have one vote law here, so their totals tie too
    assert cr_decode_reference(votes, slots, laws) == (frame, 0)
    decoded, _, margins = cr_decode_float(votes, slots, _vote_models(cfg))
    assert decoded.tolist() == [0, 1]
    assert 0 < margins[1] < np.count_nonzero(parity) * 2.0 ** -laws.shift


@pytest.mark.parametrize("source", SOURCES)
def test_slot_sums_of_a_frame_that_does_not_divide_the_transfer_rounds(transfer, monkeypatch,
                                                                       source):
    # k/2 = 400 rounds of a 3-slot frame: 133 whole passes and one round of
    # a 134th, which the sums' (passes, slots) view pads with zeros
    cfg = SimConfig(alpha=1.0, n=1024, k=800, rate=0.1, jammer=canonical_schedules(),
                    source=source, r=20.0 if source == "thermal" else None, cr_seed_bits=2)
    assert (cfg.k // 2) % (cfg.cr_seed_bits + 1) == 1
    run = _run_tables(cfg)
    if source == "thermal":
        # the port's rho rounds above 1 at this squeezing, where sqrt(1 - rho^2)
        # would warn; the thermal law's rho is 0
        big_a, disp = cfg.jammer.leaves()[0].round_params(cfg.k // 2, cfg.alpha)
        assert np.all(receiver_port_moments(big_a, disp, cfg.squeezing, cfg.eta)[2] > 1.0)
        assert all(np.array_equal(leaf.pair[2], np.zeros(cfg.k // 2)) for leaf in run.tables)
    laws = run.votes
    sums = []
    real = protocol._slot_sums

    def recording(*args):
        sums.append(real(*args))
        return sums[-1]

    monkeypatch.setattr(protocol, "_slot_sums", recording)
    rng = np.random.default_rng(19)
    for trial in range(8):
        u, v = rng.integers(0, 2, size=(2, cfg.k // 2))
        seed_bits = rng.integers(0, 2, size=cfg.cr_seed_bits)
        _, frame, votes, slots = transfer(u, v, run, trial % len(run.tables), seed_bits,
                                          _rng(19, 0, trial, 3))
        assert sums.pop().tolist() == cr_slot_sums_reference(votes, slots, laws)
        assert frame == cr_decode_reference(votes, slots, laws)[0]


def test_run_data_phase_round_trip_at_high_amplitude():
    # alpha = 4 against a vacuum jammer state: crossover Phi(-4 sqrt 2), about
    # 8e-9 on both inputs, so decoding must be exact with matched seeds
    vacuum = JammerStrategy.from_states([JammerGaussian(A=0.5, B=0.5)], "vacuum")
    jam = JammerStrategy.worst_of([vacuum])
    # 40 data rounds after the shortest side phase that carries a 1-bit seed
    cfg = SimConfig(alpha=4.0, n=48, k=8, rate=0.25, jammer=jam, master_seed=17,
                    cr_seed_bits=1)
    message = _rng(17, 0, 0, 4).integers(0, 2, size=10, dtype=np.int64)
    seed = np.array([1, 0, 1], dtype=np.int64)
    run = _run_tables(cfg)
    decoded = run_data_phase(message, seed, seed, run, 0, 0, _rng(17, 0, 0, 5))
    assert np.array_equal(decoded, message)
    # mismatched seeds give independent codebooks, not a crash
    bad = run_data_phase(message, seed, 1 - seed, run, 0, 0, _rng(17, 0, 0, 5))
    assert bad.shape == message.shape
    with pytest.raises(ValueError, match="block plan"):
        run_data_phase(message[:3], seed, seed, run, 0, 0, _rng(17, 0, 0, 5))


def test_exact_error_single_message_is_zero():
    codebook = np.zeros((1, 1, 4), dtype=np.int64)
    decoder = np.zeros((1, 16), dtype=np.int64)
    q = BinaryJointDist(1.0, 0.0, 0.0, 0.0)
    err = evaluate_code_error_exact(codebook, decoder, q, [0, 1, 2, 0], avc_kernel(1.0))
    assert err == pytest.approx(0.0, abs=1e-12)


def test_exact_error_matches_repetition_closed_form():
    # 3-fold repetition over BSC(0.1), majority decoding: P_e = 3 t^2 (1-t) + t^3
    codebook = np.array([[[0, 0, 0], [1, 1, 1]]])
    y_bits = ((np.arange(8)[:, None] >> np.array([2, 1, 0])) & 1)
    decoder = (y_bits.sum(axis=1) >= 2).astype(np.int64)[None, :]
    q = BinaryJointDist(1.0, 0.0, 0.0, 0.0)
    err = evaluate_code_error_exact(codebook, decoder, q, [0, 0, 0], bsc_table(0.1))
    assert err == pytest.approx(0.028, abs=1e-12)
    assert err == pytest.approx(repetition_majority_error(3, 0.1), abs=1e-12)


def test_exact_error_validation():
    q = BinaryJointDist(1.0, 0.0, 0.0, 0.0)
    base = bsc_table(0.1)
    with pytest.raises(ValueError, match="n_u"):
        evaluate_code_error_exact(np.zeros((3, 2, 3)), np.zeros((1, 8)), q, [0] * 3, base)
    with pytest.raises(ValueError, match="capped at n"):
        evaluate_code_error_exact(np.zeros((1, 2, 13)), np.zeros((1, 1 << 13)), q,
                                  [0] * 13, base)
    with pytest.raises(ValueError, match="16 messages"):
        evaluate_code_error_exact(np.zeros((1, 17, 3)), np.zeros((1, 8)), q, [0] * 3, base)
    with pytest.raises(ValueError, match="decoder"):
        evaluate_code_error_exact(np.zeros((1, 2, 3)), np.zeros((1, 4)), q, [0] * 3, base)
    with pytest.raises(ValueError, match="state sequence"):
        evaluate_code_error_exact(np.zeros((1, 2, 3)), np.zeros((1, 8)), q, [0] * 2, base)


def test_exact_error_agrees_with_monte_carlo():
    rng = np.random.default_rng(66)
    base = avc_kernel(1.0)
    codebook = rng.integers(0, 2, size=(2, 4, 5))
    decoder = rng.integers(0, 4, size=(2, 32))
    q = BinaryJointDist(0.35, 0.15, 0.05, 0.45)
    s_seq = [0, 1, 2, 1, 0]
    exact = evaluate_code_error_exact(codebook, decoder, q, s_seq, base)
    n = 200_000
    qa = q.as_array().ravel()
    uv = rng.choice(4, size=n, p=qa)
    u, v = uv >> 1, uv & 1
    m = rng.integers(0, 4, size=n)
    x = codebook[u, m]                      # (n, 5)
    flip = rng.random(size=(n, 5))
    y = np.empty((n, 5), dtype=np.int64)
    for i, s in enumerate(s_seq):
        p1 = base.w[s, :, 1][x[:, i]]       # P(y=1 | s, x_i)
        y[:, i] = (flip[:, i] < p1).astype(np.int64)
    y_idx = (y << np.array([4, 3, 2, 1, 0])).sum(axis=1)
    mc_err = float((decoder[v, y_idx] != m).mean())
    sigma = math.sqrt(exact * (1 - exact) / n)
    assert abs(mc_err - exact) <= 4 * sigma


def test_symmetrizing_attack_forces_quarter_error():
    # deterministic repetition code, min-distance decoding, jammer replays a codeword
    base = avc_kernel(1.0)
    for n in (4, 8):
        codebook = np.stack([np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64)])[None]
        y_bits = ((np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1)
        decoder = (y_bits.sum(axis=1) * 2 > n).astype(np.int64)[None, :]
        q = BinaryJointDist(1.0, 0.0, 0.0, 0.0)
        err = symmetrizing_attack_error(codebook, decoder, q, base)
        assert err >= 0.25 - 1e-9


def test_simulate_report_shape_and_worker_determinism():
    jam = canonical_schedules()
    cfg = SimConfig(alpha=1.0, n=24, k=8, rate=0.25, jammer=jam,
                    master_seed=123, trials=3, cr_seed_bits=1)
    rep1 = simulate(cfg, workers=1)
    assert set(rep1.per_strategy) == {"all-0", "all-1", "all-2", "alternating"}
    assert len(rep1.per_trial) == 4 * cfg.trials
    assert 0.0 <= rep1.worst_error <= 1.0
    assert rep1.capacity_estimate == pytest.approx(
        1.0 - binary_entropy(min(max(rep1.estimated_crossover, 0.0), 0.5)))
    rep2 = simulate(cfg, workers=2)
    assert json.dumps(rep1.to_json_dict()) == json.dumps(rep2.to_json_dict())


@pytest.mark.parametrize("trials", [1, 3, 8, 11])
@pytest.mark.parametrize("source, mode", [("tmsv", "correlation-assisted"),
                                          ("thermal", "correlation-assisted"),
                                          ("tmsv", "common-randomness"),
                                          ("tmsv", "deterministic")])
def test_chunked_trials_equal_one_trial_phase_calls(monkeypatch, source, mode, trials):
    """A leaf's trials run in chunks of up to 8 (11 trials: one full chunk
    and one part chunk); every record equals the one built from one-trial
    calls of the public phases, whatever chunk the trial ran in, and the
    report does not depend on the worker count."""
    # a cyclic leaf and a gaussian one; k/2 = 31 rounds carry a 4-slot frame
    # in 7 passes and a part pass
    jam = _SEED_JAMMERS["cyclic-and-gaussian"]
    side = mode == "correlation-assisted"
    cfg = SimConfig(alpha=1.1, n=200, k=62 if side else 0, rate=0.2, jammer=jam, source=source,
                    code_mode=mode, master_seed=2011, trials=trials, cr_seed_bits=3)
    assert not side or (cfg.k // 2) % (cfg.cr_seed_bits + 1) != 0
    run = _run_tables(cfg)
    expected = [trial_record_reference(run, si, t)
                for si in range(len(jam.leaves())) for t in range(trials)]
    report = simulate(cfg)
    # repr tells a numpy bool or float from a Python one
    assert repr(list(report.per_trial)) == repr(expected)
    if trials == 11:
        assert repr(protocol._run_trial(run, 1, range(0, 11))) == repr(expected[11:])
        assert repr(protocol._run_trial(run, 0, range(5, 8))) == repr(expected[5:8])
        if side:
            # four chunk tasks over a pool of two processes
            monkeypatch.setattr(protocol.os, "cpu_count", lambda: 2)
            assert json.dumps(simulate(cfg, workers=2).to_json_dict()) == \
                json.dumps(report.to_json_dict())


def test_wilson_interval_matches_hand_computed_values():
    # 4 of 200 at z = 1.959964: centre (0.02 + z^2/400) / (1 + z^2/200) =
    # 0.0290457, half-width z sqrt(0.02 * 0.98/200 + z^2/160000) / (1 + z^2/200)
    # = 0.0212413
    lo, hi = wilson_interval(4, 200)
    assert lo == pytest.approx(0.0078044, abs=1e-7)
    assert hi == pytest.approx(0.0502871, abs=1e-7)
    # no failures: [0, z^2 / (n + z^2)]
    z2 = 1.959963984540054 ** 2
    assert wilson_interval(0, 10) == (0.0, pytest.approx(z2 / (10 + z2), rel=1e-12))
    assert wilson_interval(10, 10) == (pytest.approx(10 / (10 + z2), rel=1e-12), 1.0)
    lo, hi = wilson_interval(3, 10)
    assert (1.0 - hi, 1.0 - lo) == pytest.approx(wilson_interval(7, 10), abs=1e-15)
    for failures, trials in ((5, 4), (-1, 4), (0, 0), (1.0, 4), (True, 4), (1, 4.0)):
        with pytest.raises(ValueError):
            wilson_interval(failures, trials)


def test_report_states_error_intervals_and_splits_seed_failures():
    # the thermal source carries no correlation, so seed transfers fail often
    cfg = SimConfig(alpha=1.0, n=128, k=32, rate=0.1, jammer=canonical_schedules(),
                    source="thermal", master_seed=33, trials=6, cr_seed_bits=3)
    rep = simulate(cfg)
    data = rep.to_json_dict()
    assert data["schema_version"] == 3
    failed_total = 0
    for label, stats in rep.per_strategy.items():
        rows = [row for row in rep.per_trial if row["strategy"] == label]
        failures = sum(not row["message_ok"] for row in rows)
        assert stats["error_ci95"] == list(wilson_interval(failures, len(rows)))
        assert stats["error_ci95"][0] <= stats["empirical_error"] <= stats["error_ci95"][1]
        flagged = sum(not row["seed_ok"] and not row["parity_ok"] for row in rows)
        silent = sum(not row["seed_ok"] and row["parity_ok"] for row in rows)
        assert (stats["seed_failures_flagged"], stats["seed_failures_silent"]) == (flagged, silent)
        # every thermal slot ties, so the frame decodes to zeros and its parity holds
        assert flagged == 0
        assert flagged + silent == round((1.0 - stats["seed_agreement_rate"]) * len(rows))
        failed_total += flagged + silent
    assert failed_total > 0
    worst = max(sum(not row["message_ok"] for row in rep.per_trial if row["strategy"] == label)
                for label in rep.per_strategy)
    assert data["worst_error_ci95"] == list(wilson_interval(worst, cfg.trials))


def test_trials_to_csv_writes_a_header_and_a_row_per_trial():
    cfg = SimConfig(alpha=2.0, n=20, k=0, rate=0.25, jammer=JammerStrategy.from_symbols((0,)),
                    code_mode="deterministic", trials=2)
    records = simulate(cfg).per_trial
    fh = io.StringIO()
    trials_to_csv(records, fh)
    lines = fh.getvalue().splitlines()
    assert lines[0].split(",") == list(records[0]) and len(lines) == 1 + len(records)
    # no record, no header: refused rather than an IndexError
    with pytest.raises(ValueError, match="no trial records"):
        trials_to_csv([], io.StringIO())


def test_simulate_modes_without_side_rounds():
    jam = JammerStrategy.from_symbols((0,), "all-0")
    for mode in ("deterministic", "common-randomness"):
        cfg = SimConfig(alpha=2.0, n=20, k=0, rate=0.25, jammer=jam,
                        code_mode=mode, master_seed=5, trials=2)
        rep = simulate(cfg)
        assert rep.per_strategy["all-0"]["seed_agreement_rate"] == 1.0
        assert rep.per_strategy["all-0"]["model_crossover"] is None
        assert len(rep.per_trial) == 2


def test_model_crossover_cross_checks_the_estimated_one():
    # criterion 10's transfer phase: 400 votes per trial, decoded correctly
    cfg = SimConfig(alpha=1.0, n=1024, k=800, rate=0.1, jammer=canonical_schedules(),
                    master_seed=20260813, trials=25, cr_seed_bits=1)
    rep = simulate(cfg)
    for vm, (label, stats) in zip(_vote_models(cfg), rep.per_strategy.items()):
        model = float(np.mean(0.5 * (vm[:, 0, 1] + vm[:, 1, 0])))
        assert stats["model_crossover"] == pytest.approx(model, rel=1e-12)
        assert stats["seed_agreement_rate"] == 1.0
        votes = cfg.trials * cfg.k // 2
        sd = math.sqrt(model * (1.0 - model) / votes)
        assert abs(stats["mean_crossover"] - model) <= 4 * sd, label


# --- strict config inputs -----------------------------------------------------

_GOOD_JSON = SimConfig(alpha=1.0, n=64, k=8, rate=0.2, jammer=canonical_schedules(),
                       r=0.9, cr_seed_bits=1).to_json_dict()

# (field, value) pairs that `SimConfig` must reject before any simulation work
BAD_FIELDS = [
    ("alpha", math.nan), ("alpha", math.inf),
    ("rate", math.nan), ("rate", math.inf), ("rate", 20.0),
    ("eta", math.nan),
    ("r", math.nan), ("r", math.inf),
    ("n", 64.5), ("n", True),
    ("k", 8.0), ("k", True),
    ("trials", 2.0), ("trials", True),
    ("master_seed", 1.5), ("master_seed", True),
    ("cr_seed_bits", 1.5), ("cr_seed_bits", True),
    ("max_block_bits", 13.0), ("max_block_bits", True),
]


@pytest.mark.parametrize("field,value", BAD_FIELDS,
                         ids=[f"{f}={v!r}" for f, v in BAD_FIELDS])
def test_sim_config_rejects_non_finite_and_non_integer_fields(field, value):
    data = json.loads(json.dumps(dict(_GOOD_JSON, **{field: value})))
    with pytest.raises(ValueError, match=f"^{field} must be"):
        SimConfig.from_json_dict(data)


def test_sim_config_rejects_non_finite_jammer_states():
    states = [{"A": 0.5, "B": 0.5, "a": math.nan}]
    data = dict(_GOOD_JSON, jammer={"kind": "gaussian", "states": states})
    with pytest.raises(ValueError, match="^jammer state a must be"):
        SimConfig.from_json_dict(data)


# --- worker pool size ---------------------------------------------------------


def test_pool_size_clamps_to_tasks_and_cpus(monkeypatch):
    monkeypatch.setattr(protocol.os, "cpu_count", lambda: 2)
    assert _pool_size(10**9, 10**9) == 2
    assert _pool_size(10**9, 1) == 1
    assert _pool_size(1, 80) == 1
    assert _pool_size(0, 80) == 1
    assert _pool_size(-5, 80) == 1
    assert _pool_size(4, 0) == 1
    monkeypatch.setattr(protocol.os, "cpu_count", lambda: None)
    assert _pool_size(10**9, 80) == 1


def test_simulate_clamps_workers_before_opening_a_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was opened")

    monkeypatch.setattr(protocol.os, "cpu_count", lambda: 1)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    cfg = SimConfig(alpha=1.0, n=24, k=8, rate=0.25, jammer=canonical_schedules(),
                    master_seed=123, trials=1, cr_seed_bits=1)
    assert simulate(cfg, workers=10**9) == simulate(cfg)


@pytest.mark.parametrize("workers", [0, -4, 1.5, True, "2", None])
def test_simulate_refuses_a_bad_worker_count_before_any_trial(monkeypatch, workers):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(protocol, "_run_trial", no_trial)
    cfg = SimConfig(alpha=1.0, n=24, k=8, rate=0.25, jammer=canonical_schedules(),
                    master_seed=123, trials=1, cr_seed_bits=1)
    with pytest.raises(ValueError, match="^workers must be"):
        simulate(cfg, workers=workers)


# --- config-invariant work done once per run ---------------------------------


def _counting(monkeypatch, name):
    calls = []
    real = getattr(protocol, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(protocol, name, wrapper)
    return calls


@pytest.mark.parametrize("trials", [1, 3])
def test_flip_tables_are_built_once_per_run(monkeypatch, trials):
    cfg = SimConfig(alpha=1.0, n=128, k=32, rate=0.1, jammer=canonical_schedules(),
                    master_seed=31, trials=trials, cr_seed_bits=3)
    calls = _counting(monkeypatch, "_bpsk_flip_table")
    laws = _counting(monkeypatch, "_block_laws")
    simulate(cfg)
    # one transfer-phase and one data-phase table per canonical leaf
    assert len(calls) == 8
    # and the decoders' laws once for the votes and once per data block
    assert len(laws) == 1 + len(_block_plan(cfg))


@pytest.mark.parametrize("mode, k", [("correlation-assisted", 32), ("common-randomness", 0)])
@pytest.mark.parametrize("trials", [1, 3])
def test_leaf_tables_are_built_once_per_leaf_per_run(monkeypatch, mode, k, trials):
    cfg = SimConfig(alpha=1.0, n=128, k=k, rate=0.1, jammer=canonical_schedules(),
                    code_mode=mode, master_seed=34, trials=trials, cr_seed_bits=3)
    params = []
    real_params = JammerStrategy.round_params

    def round_params(leaf, *args):
        params.append((leaf.label, args))
        return real_params(leaf, *args)

    builds = _counting(monkeypatch, "_leaf_tables")
    monkeypatch.setattr(JammerStrategy, "round_params", round_params)
    run = _run_tables(cfg)
    for tables in run.tables:
        for law in tables:
            assert not any(a.flags.writeable for a in law)
    simulate(cfg)
    # per run, one schedule over the whole block per leaf serves its leaf
    # tables and its vote model, and the trials build no table
    labels = [leaf.label for leaf in cfg.jammer.leaves()]
    assert len(builds) == 2 * len(labels)
    assert params == 2 * [(label, (cfg.n, cfg.alpha)) for label in labels]


def test_simulate_leaves_no_tables_behind():
    """A run's tables are its own: a run of another config in between does
    not change a report, and the module keeps no table and no cache."""
    cfg = SimConfig(alpha=1.0, n=128, k=32, rate=0.1, jammer=canonical_schedules(),
                    master_seed=35, trials=2, cr_seed_bits=3)

    def module_tables():
        return {(name, id(value)) for name, value in vars(protocol).items()
                if isinstance(value, (np.ndarray, protocol._Run))}

    before = module_tables()
    first = json.dumps(simulate(cfg).to_json_dict())
    simulate(dataclasses.replace(cfg, alpha=1.5))
    assert json.dumps(simulate(cfg).to_json_dict()) == first
    assert module_tables() == before
    assert not any(hasattr(value, "cache_info") for value in vars(protocol).values())


def _arrays(value) -> list:
    """The ndarrays in value and its nested tuples."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [a for item in value for a in _arrays(item)]
    return []


def test_a_pickled_run_is_read_only_where_its_trials_run():
    """Pickle drops numpy's read-only flag; the run a pool worker unpickles
    gets it back, and keeps it through a trial."""
    cfg = SimConfig(alpha=1.0, n=1024, k=800, rate=0.1, jammer=canonical_schedules(),
                    master_seed=20260813, trials=25, cr_seed_bits=1)
    run = _run_tables(cfg)
    assert len(_arrays(run)) > 40 and not any(a.flags.writeable for a in _arrays(run))
    # the same fields pickled as a plain tuple arrive writeable
    assert all(a.flags.writeable for a in _arrays(pickle.loads(pickle.dumps(tuple(run)))))
    copy = pickle.loads(pickle.dumps(run))
    assert type(copy) is protocol._Run and copy.config == cfg
    assert not any(a.flags.writeable for a in _arrays(copy))
    records = protocol._run_trial(copy, 0, range(1))
    assert not any(a.flags.writeable for a in _arrays(copy))
    assert repr(records) == repr(protocol._run_trial(run, 0, range(1)))


@pytest.mark.parametrize("trials", [1, 3])
def test_common_randomness_draws_one_codebook_per_block(monkeypatch, trials):
    cfg = SimConfig(alpha=1.0, n=128, k=0, rate=0.1, jammer=canonical_schedules(),
                    code_mode="common-randomness", master_seed=32, trials=trials)
    calls = _counting(monkeypatch, "random_codebook")
    simulate(cfg)
    blocks = len(_block_plan(cfg))
    assert len(calls) == 4 * trials * blocks


# the test keeps the name it had when the sender drew its whole codebook too
def test_mismatched_seed_copies_draw_two_codebooks(monkeypatch):
    """The receiver draws its codebook; the sender draws its own row only
    when the seed copies differ."""
    cfg = SimConfig(alpha=1.0, n=128, k=32, rate=0.1, jammer=canonical_schedules(),
                    source="thermal", master_seed=33, trials=3, cr_seed_bits=3)
    calls = _counting(monkeypatch, "random_codebook")
    ranges = _counting(monkeypatch, "_codebook_rows")
    rep = simulate(cfg)
    blocks = len(_block_plan(cfg))
    mismatched = sum(not row["seed_ok"] for row in rep.per_trial)
    assert mismatched > 0  # the thermal source carries no correlation
    assert len(calls) == blocks * len(rep.per_trial)
    single_rows = [args for args in ranges if args[1] - args[0] == 1]
    assert len(single_rows) == blocks * mismatched
    assert len(ranges) == blocks * (len(rep.per_trial) + mismatched)


# the test keeps the name it had when the run's tables were cached per config
def test_cached_decoder_tables_are_read_only_and_keyed_on_the_config():
    cfg = SimConfig(alpha=1.0, n=128, k=32, rate=0.1, jammer=canonical_schedules(),
                    cr_seed_bits=3)
    other = _run_tables(dataclasses.replace(cfg, eta=0.6))
    run = _run_tables(cfg)
    votes, laws = run.votes, run.data
    assert run.plan == _block_plan(cfg) and len(run.crossovers) == 4
    # the round laws and their fixed-point log-likelihoods of the transfer
    # rounds' votes and of each data block
    assert votes.labels.size == cfg.k // 2 and votes.q.shape[1:] == (4, 2)
    assert [block.labels.size for block in laws] == [length for length, _ in _block_plan(cfg)]
    for block in (votes, *laws):
        for table in (block.labels, block.masks, block.q):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[(0,) * table.ndim] = 0
    assert not np.array_equal(other.votes.q, votes.q)
    assert not np.array_equal(other.data[0].q, laws[0].q)
    # without a transfer phase a run has no vote laws
    free = _run_tables(dataclasses.replace(cfg, k=0, code_mode="common-randomness"))
    assert free.votes is None and free.crossovers is None


def test_bpsk_flip_table_matches_the_per_round_scalar_formula():
    alpha, eta = 1.3, 0.7
    big_a, disp = JammerStrategy.from_symbols((0, 1, 2, 2)).round_params(11, alpha, 1)
    table = protocol._bpsk_flip_table(*_bpsk_law(big_a, disp, alpha, eta))
    for i in range(11):
        sd = math.sqrt(eta / 2.0 + (1.0 - eta) * big_a[i])
        for x in (0, 1):
            mean = math.sqrt(2.0 * eta) * alpha * (1.0 - 2.0 * x) + math.sqrt(1.0 - eta) * disp[i]
            assert table[i, x] == std_normal_cdf(-mean / sd)


def test_a_displacement_near_the_double_maximum_runs_without_overflow():
    # mean / sd would be 2.4e308: the flip table clips the mean to 40 sd first,
    # where the normal CDF is already exactly 0 or 1
    state = JammerGaussian(A=1e-200, B=1e200, a=1.7e308)
    table = protocol._bpsk_flip_table(*_bpsk_law(np.array([state.A]), np.array([state.a]),
                                                 1.0, 0.5))
    assert table.tolist() == [[0.0, 0.0]]
    jam = JammerStrategy.from_states([state])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mode, k in (("deterministic", 0), ("common-randomness", 0),
                        ("correlation-assisted", 16)):
            for source in SOURCES:
                cfg = SimConfig(alpha=1.0, n=40, k=k, rate=0.3, jammer=jam, code_mode=mode,
                                source=source, cr_seed_bits=1, trials=2)
                assert len(simulate(cfg).per_trial) == 2


def _signed_zero_rounds() -> tuple[np.ndarray, np.ndarray, SimConfig]:
    """300 rounds of jammer x-moments (A, a) with both signed zeros, and a config."""
    rng = np.random.default_rng(66)
    big_a = rng.choice([0.0, -0.0, 0.25, 0.5, 1.5], 300)
    disp = rng.choice([0.0, -0.0, 0.3, -0.3, 1.1], 300)
    cfg = SimConfig(alpha=1.1, n=200, k=60, rate=0.2, jammer=canonical_schedules(),
                    cr_seed_bits=3)
    return big_a, disp, cfg


def test_pair_joint_table_gives_each_round_its_own_law():
    # the tmsv law is the receiver port's (mean, sd, rho); its rounds are
    # deduplicated on (b, rho) with -0.0 folded into +0.0, and each round still
    # gets the bits of its own quadrant law, signed zero and all
    big_a, disp, cfg = _signed_zero_rounds()
    law = _pair_law(big_a, disp, cfg.squeezing, cfg.eta, "tmsv")
    mean_b, var_b, rho = receiver_port_moments(big_a, disp, cfg.squeezing, cfg.eta)
    assert [x.tobytes() for x in law] == [x.tobytes() for x in (mean_b, np.sqrt(var_b), rho)]
    b = mean_b / np.sqrt(var_b)
    assert np.any(np.signbit(b) & (b == 0.0)) and len(np.unique(b)) < len(b)
    expected = quadrant_laws(b, rho)
    assert protocol._pair_joint_table(law).tobytes() == expected.tobytes()


def test_thermal_pair_joint_table_is_the_product_law():
    # rho = 0 zeroes the kernel's integral term: q00 = Phi(-b)/2 exactly, and
    # the sender's bit is a fair coin independent of the receiver's
    big_a, disp, cfg = _signed_zero_rounds()
    mean_b, sd_b, rho = _pair_law(big_a, disp, cfg.squeezing, cfg.eta, "thermal")
    assert np.array_equal(rho, np.zeros(len(big_a)))
    q = protocol._pair_joint_table((mean_b, sd_b, rho))
    b = mean_b / sd_b
    assert q[:, 0, 0].tolist() == (0.5 * std_normal_cdf_array(-b)).tolist()
    assert q[:, 0, 0].tolist() == q[:, 1, 0].tolist()
    # q01 = 1/2 - q00 and q11 = 1/2 - Phi(-b) + q00 round apart by at most
    # half an ulp of 1/2
    assert np.all(np.abs(q[:, 0, 1] - q[:, 1, 1]) <= 2.0 ** -54)


def test_vote_model_matches_the_per_round_loop():
    # _vote_model reads the XOR-effective channel at the masked indices; the
    # reference adds each cell's four (u, v) terms from 0.0 in a loop
    leaves = [
        *canonical_schedules().leaves(),
        JammerStrategy.from_symbols((2, 0, 1, 1, 2)),
        JammerStrategy.from_states([JammerGaussian(A=0.7, B=0.5, a=0.3),
                                    JammerGaussian(A=1.5, B=0.3, a=-1.0)]),
    ]
    for source in SOURCES:
        for leaf in leaves:
            # (k, cr_seed_bits): 30 rounds of 4 slots, 13 of 3 and 8 of 4
            for k, cr_seed_bits in ((60, 3), (26, 2), (16, 3)):
                cfg = SimConfig(alpha=1.1, n=200, k=k, rate=0.2, jammer=leaf, source=source,
                                cr_seed_bits=cr_seed_bits)
                rounds = k // 2
                masks = (np.arange(rounds) // (cr_seed_bits + 1)) % 2
                got = _vote_models(cfg)[0]
                expected = vote_model_reference(leaf, rounds, masks, cfg)
                assert got.shape == (rounds, 2, 2)
                assert got.tobytes() == expected.tobytes(), (source, leaf.label, rounds)
