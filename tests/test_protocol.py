"""Protocol phases, decoders, exact evaluation, and the simulation harness."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avcsim.bivariate import BinaryJointDist, quadrant_distribution, homodyne_xx, std_normal_cdf
from avcsim.channels import avc_kernel, binary_entropy, bsc_table, crossover_probs
from avcsim.gaussian import JammerGaussian, mix_tmsv_with_jammer
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
    wilson_interval,
)
from avcsim import protocol
from avcsim.protocol import (
    _block_plan,
    _bpsk_outputs,
    _data_flip_tables,
    _pair_outputs,
    _pool_size,
    _rng,
    _vote_logliks,
)

from oracles import (
    hamming_decoder,
    random_codebook_reference,
    repetition_majority_error,
    schedule_set_decoder_reference,
    schedule_set_exact_scores,
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
    good = dict(alpha=1.0, n=64, k=8, rate=0.2, jammer=jam)
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
    # correlation-assisted mode needs an even 2 <= k < n
    mode = draw(st.sampled_from(CODE_MODES if n > 2 else ("deterministic", "common-randomness")))
    k = 2 * draw(st.integers(1, (n - 1) // 2)) if mode == "correlation-assisted" else 0
    return SimConfig(
        alpha=draw(_POSITIVE), n=n, k=k, rate=draw(st.floats(1e-9, 1.0)),
        jammer=draw(_JAMMERS), code_mode=mode, source=draw(st.sampled_from(SOURCES)),
        master_seed=draw(st.integers(0, 2**64 - 1)), trials=draw(st.integers(1, 10**6)),
        eta=draw(st.floats(1e-9, 1.0)), r=draw(st.none() | _POSITIVE),
        cr_seed_bits=draw(st.integers(1, 64)), max_block_bits=draw(st.integers(1, 16)))


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
    amplitudes, squeezings and jammer moments."""
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
        y = _bpsk_outputs(np.full(n, x), big_a, disp, 1.0, 0.5, rng)
        sigma = math.sqrt(expected * (1 - expected) / n)
        assert abs((y != x).mean() - expected) <= 4 * sigma + 1e-9, (x, letter)


def test_pair_sampler_matches_quadrant_law():
    r, eta = math.asinh(1.0), 0.5
    tau = jammer_state_for_symbol(0, 1.0)
    q = quadrant_distribution(homodyne_xx(mix_tmsv_with_jammer(r, eta, tau)))
    n = 200_000
    rng = np.random.default_rng(62)
    u, v = _pair_outputs(np.full(n, tau.A), np.full(n, tau.a), r, eta, rng, "tmsv")
    counts = np.bincount(2 * u + v, minlength=4) / n
    for qij, fij in zip((q.q00, q.q01, q.q10, q.q11), counts):
        sigma = math.sqrt(max(qij * (1 - qij), 1e-9) / n)
        assert abs(qij - fij) <= 4 * sigma


def test_thermal_pair_sampler_has_uncorrelated_sender_bit():
    r, eta = math.asinh(1.0), 0.5
    tau = jammer_state_for_symbol(0, 1.0)
    n = 100_000
    rng = np.random.default_rng(63)
    u, v = _pair_outputs(np.full(n, tau.A), np.full(n, tau.a), r, eta, rng, "thermal")
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


# the test keeps the name it had when the reference was the int64 product
def test_schedule_set_decoder_matches_the_int64_reference():
    """Picks equal the Python-float oracle's and are optimal up to rounding."""
    rng = np.random.default_rng(20260814)
    # (rows, leaves, length, one constant law per leaf)
    cases = [(rows, leaves, int(rng.integers(1, 131)), False)
             for rows in (1, 2, 511, 512, 513, 3 * 512 + 1) for leaves in (1, 2, 3, 4)]
    # constant laws on short blocks make exact ties common; a tie goes to
    # whichever score the fixed summation order rounds up, so any change to
    # that order changes some of these picks
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


def test_block_plan_caps_and_covers():
    plan = _block_plan(224, 0.1, 13)
    assert sum(length for length, _ in plan) == 224
    assert all(bits <= 13 for _, bits in plan)
    assert all(bits == math.ceil(0.1 * length) for length, bits in plan)
    assert _block_plan(5, 1.0, 1) == [(1, 1)] * 5
    assert _block_plan(64, 5e-324, 13) == [(64, 1)]  # 13 / rate overflows to inf


def test_run_correlation_phase_counts():
    cfg = SimConfig(alpha=1.0, n=32, k=8, rate=0.2, jammer=canonical_schedules())
    u, v = run_correlation_phase(4, cfg.jammer.leaves()[0], cfg, np.random.default_rng(1))
    assert u.shape == v.shape == (4,)
    u0, v0 = run_correlation_phase(0, cfg.jammer.leaves()[0], cfg, np.random.default_rng(1))
    assert len(u0) == 0 and len(v0) == 0


def test_run_cr_phase_agreement_and_errors():
    jam = canonical_schedules()
    cfg = SimConfig(alpha=1.0, n=1024, k=200, rate=0.1, jammer=jam, cr_seed_bits=2)
    leaf = jam.leaves()[0]
    rounds = cfg.k // 2
    agree = 0
    for trial in range(20):
        u, v = run_correlation_phase(rounds, leaf, cfg, _rng(5, 0, trial, 1))
        seed_bits = _rng(5, 0, trial, 2).integers(0, 2, size=cfg.cr_seed_bits,
                                                  dtype=np.int64)
        out = run_cr_phase(u, v, rounds, leaf, cfg, seed_bits, _rng(5, 0, trial, 3))
        assert out["received"].shape == (cfg.cr_seed_bits,)
        assert 0.0 <= out["t_hat"] <= 1.0
        agree += out["agree"]
    assert agree >= 18  # ~33 votes per slot at an effective crossover near 1/4
    with pytest.raises(ValueError):
        run_cr_phase(u, v, 0, leaf, cfg, seed_bits, np.random.default_rng(0))
    with pytest.raises(ValueError):
        run_cr_phase(u[:2], v[:2], rounds, leaf, cfg, seed_bits, np.random.default_rng(0))
    with pytest.raises(ValueError, match="cannot carry"):
        run_cr_phase(u, v, 4, leaf, cfg, np.zeros(3, dtype=np.int64),
                     np.random.default_rng(0))


def test_run_data_phase_round_trip_at_high_amplitude():
    # alpha = 4 against a vacuum jammer state: crossover Phi(-4 sqrt 2), about
    # 8e-9 on both inputs, so decoding must be exact with matched seeds
    vacuum = JammerStrategy.from_states([JammerGaussian(A=0.5, B=0.5)], "vacuum")
    jam = JammerStrategy.worst_of([vacuum])
    cfg = SimConfig(alpha=4.0, n=44, k=4, rate=0.25, jammer=jam, master_seed=17)
    rounds = cfg.n - cfg.k
    message = _rng(17, 0, 0, 4).integers(0, 2, size=10, dtype=np.int64)
    seed = np.array([1, 0, 1], dtype=np.int64)
    decoded = run_data_phase(message, seed, seed, rounds, jam.leaves()[0], cfg,
                             0, 0, _rng(17, 0, 0, 5))
    assert np.array_equal(decoded, message)
    # mismatched seeds give independent codebooks, not a crash
    bad = run_data_phase(message, seed, 1 - seed, rounds, jam.leaves()[0], cfg,
                         0, 0, _rng(17, 0, 0, 5))
    assert bad.shape == message.shape
    with pytest.raises(ValueError, match="block plan"):
        run_data_phase(message[:3], seed, seed, rounds, jam.leaves()[0], cfg,
                       0, 0, _rng(17, 0, 0, 5))


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
    assert data["schema_version"] == 2
    failed_total = 0
    for label, stats in rep.per_strategy.items():
        rows = [row for row in rep.per_trial if row["strategy"] == label]
        failures = sum(not row["message_ok"] for row in rows)
        assert stats["error_ci95"] == list(wilson_interval(failures, len(rows)))
        assert stats["error_ci95"][0] <= stats["empirical_error"] <= stats["error_ci95"][1]
        flagged = sum(not row["seed_ok"] and not row["parity_ok"] for row in rows)
        silent = sum(not row["seed_ok"] and row["parity_ok"] for row in rows)
        assert (stats["seed_failures_flagged"], stats["seed_failures_silent"]) == (flagged, silent)
        assert flagged + silent == round((1.0 - stats["seed_agreement_rate"]) * len(rows))
        failed_total += flagged + silent
    assert failed_total > 0
    worst = max(sum(not row["message_ok"] for row in rep.per_trial if row["strategy"] == label)
                for label in rep.per_strategy)
    assert data["worst_error_ci95"] == list(wilson_interval(worst, cfg.trials))


def test_simulate_modes_without_side_rounds():
    jam = JammerStrategy.from_symbols((0,), "all-0")
    for mode in ("deterministic", "common-randomness"):
        cfg = SimConfig(alpha=2.0, n=20, k=0, rate=0.25, jammer=jam,
                        code_mode=mode, master_seed=5, trials=2)
        rep = simulate(cfg)
        assert rep.per_strategy["all-0"]["seed_agreement_rate"] == 1.0
        assert len(rep.per_trial) == 2


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
    _vote_logliks.cache_clear()
    _data_flip_tables.cache_clear()
    calls = _counting(monkeypatch, "_bpsk_flip_table")
    simulate(cfg)
    # one transfer-phase and one data-phase table per canonical leaf
    assert len(calls) == 8


@pytest.mark.parametrize("trials", [1, 3])
def test_common_randomness_draws_one_codebook_per_block(monkeypatch, trials):
    cfg = SimConfig(alpha=1.0, n=128, k=0, rate=0.1, jammer=canonical_schedules(),
                    code_mode="common-randomness", master_seed=32, trials=trials)
    calls = _counting(monkeypatch, "random_codebook")
    simulate(cfg)
    blocks = len(_block_plan(cfg.n - cfg.k, cfg.rate, cfg.max_block_bits))
    assert len(calls) == 4 * trials * blocks


def test_mismatched_seed_copies_draw_two_codebooks(monkeypatch):
    cfg = SimConfig(alpha=1.0, n=128, k=32, rate=0.1, jammer=canonical_schedules(),
                    source="thermal", master_seed=33, trials=3, cr_seed_bits=3)
    calls = _counting(monkeypatch, "random_codebook")
    rep = simulate(cfg)
    blocks = len(_block_plan(cfg.n - cfg.k, cfg.rate, cfg.max_block_bits))
    mismatched = sum(not row["seed_ok"] for row in rep.per_trial)
    assert mismatched > 0  # the thermal source carries no correlation
    assert len(calls) == blocks * (len(rep.per_trial) + mismatched)


def test_cached_decoder_tables_are_read_only_and_keyed_on_the_config():
    cfg = SimConfig(alpha=1.0, n=128, k=32, rate=0.1, jammer=canonical_schedules(),
                    cr_seed_bits=3)
    other = dataclasses.replace(cfg, eta=0.6)
    for build, args in ((_vote_logliks, (16, 4)), (_data_flip_tables, (96,))):
        table = build(cfg, *args)
        assert build(cfg, *args) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0, 0] = 0.0
        assert not np.array_equal(build(other, *args), table)


def test_bpsk_flip_table_matches_the_per_round_scalar_formula():
    alpha, eta = 1.3, 0.7
    big_a, disp = JammerStrategy.from_symbols((0, 1, 2, 2)).round_params(11, alpha, 1)
    table = protocol._bpsk_flip_table(big_a, disp, alpha, eta)
    for i in range(11):
        sd = math.sqrt(eta / 2.0 + (1.0 - eta) * big_a[i])
        for x in (0, 1):
            mean = math.sqrt(2.0 * eta) * alpha * (1.0 - 2.0 * x) + math.sqrt(1.0 - eta) * disp[i]
            assert table[i, x] == std_normal_cdf(-mean / sd)


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
            cfg = SimConfig(alpha=1.1, n=200, k=60, rate=0.2, jammer=leaf, source=source,
                            cr_seed_bits=3)
            for rounds, n_slots in ((30, 4), (13, 1), (7, 3)):
                masks = (np.arange(rounds) // n_slots) % 2
                got = protocol._vote_model(leaf, rounds, masks, cfg)
                expected = vote_model_reference(leaf, rounds, masks, cfg)
                assert got.shape == (rounds, 2, 2)
                assert got.tobytes() == expected.tobytes(), (source, leaf.label, rounds)
