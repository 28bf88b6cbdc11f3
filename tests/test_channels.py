"""Channel tables, XOR preprocessing, and the symmetrizability LP."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avcsim.channels as channels
from avcsim.bivariate import BinaryJointDist
from avcsim.channels import (
    BscParam,
    ChannelTable,
    LpNumericalError,
    average_crossover,
    avc_kernel,
    binary_entropy,
    bsc_capacity,
    bsc_table,
    compose_bsc,
    crossover_probs,
    effective_channel,
    is_bsc,
    max_crossover_bounds,
    mutual_information_uniform,
    pinsker_bound,
    symmetrizability_lp,
    symmetrization_residual,
    w0_table,
)

from oracles import (
    entropy_bits,
    erfc_oracle,
    phase1_simplex_rational,
    symmetrizability_lp_reference,
)


def test_binary_entropy_endpoints_and_symmetry():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    for t in np.linspace(0.01, 0.49, 25):
        assert binary_entropy(float(t)) == pytest.approx(binary_entropy(float(1 - t)), abs=1e-14)
        assert binary_entropy(float(t)) == pytest.approx(entropy_bits([t, 1 - t]), abs=1e-14)
    with pytest.raises(ValueError):
        binary_entropy(1.2)
    assert bsc_capacity(0.11) == pytest.approx(1.0 - binary_entropy(0.11))


def test_crossover_probs_against_erfc_oracle():
    for alpha in (0.25, 0.5, 1.0, 2.0, 3.0):
        p, pt = crossover_probs(alpha)
        assert p == pytest.approx(0.5 * erfc_oracle(2.0 * alpha), abs=1e-14)
        assert pt == pytest.approx(
            0.5 * erfc_oracle(alpha / math.sqrt(1.0 + alpha * alpha)), abs=1e-14)
        assert 0.0 < p < pt < 0.5
    # frozen working point used across the suite
    p1, pt1 = crossover_probs(1.0)
    assert p1 == pytest.approx(0.0023388674905236327, abs=1e-15)
    assert pt1 == pytest.approx(0.15865525393145707, abs=1e-14)
    with pytest.raises(ValueError):
        crossover_probs(0.0)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_crossover_probs_rejects_non_finite_alpha(alpha):
    with pytest.raises(ValueError, match="^amplitude must be a finite number"):
        crossover_probs(alpha)


def test_crossover_probs_limits():
    p_small, pt_small = crossover_probs(1e-9)
    assert p_small == pytest.approx(0.5, abs=1e-8)
    assert pt_small == pytest.approx(0.5, abs=1e-8)
    values = [crossover_probs(a) for a in np.linspace(0.1, 3.0, 30)]
    assert all(b[0] < a[0] and b[1] < a[1] for a, b in zip(values, values[1:]))


def test_crossover_probs_where_the_square_of_alpha_overflows():
    # alpha * alpha overflows past about 1.34e154, where alpha / sqrt(1 + alpha^2)
    # would read 0 and p_tilde 1/2; the ratio's limit there is 1
    limit = 0.5 * math.erfc(1.0)
    edge = math.sqrt(1.7976931348623157e308)
    past = math.nextafter(edge, math.inf)
    assert edge * edge < math.inf and past * past == math.inf
    for alpha in (1e154, edge, past, 1e200, 1.7976931348623157e308):
        p, pt = crossover_probs(alpha)
        assert p == 0.0
        assert pt == pytest.approx(limit, rel=1e-15)
    for alpha in (1e10, past, 1e200, 1.7976931348623157e308):
        assert crossover_probs(alpha)[1] == limit
    # wherever the square is finite the value is the formula's, bit for bit
    rng = np.random.default_rng(54)
    finite = np.concatenate([10.0 ** rng.uniform(-3.0, math.log10(1.34e154), 2000),
                             10.0 ** rng.uniform(8.0, 154.0, 2000), [edge]])
    for alpha in finite.tolist():
        assert alpha * alpha < math.inf
        assert crossover_probs(alpha)[1] == 0.5 * math.erfc(alpha / math.sqrt(1.0 + alpha * alpha))


def test_channel_table_validation_and_accessors():
    with pytest.raises(ValueError, match="shape"):
        ChannelTable((0,), (0, 1), (0, 1), np.ones((2, 2, 2)) * 0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        ChannelTable((0,), (0, 1), (0, 1), [[[1.1, -0.1], [0.5, 0.5]]])
    with pytest.raises(ValueError, match="sum to 1"):
        ChannelTable((0,), (0, 1), (0, 1), [[[0.6, 0.6], [0.5, 0.5]]])
    with pytest.raises(ValueError, match="at least one"):
        ChannelTable((), (0, 1), (0, 1), np.zeros((0, 2, 2)))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="nonnegative|sum to 1"):
            ChannelTable((0,), (0, 1), (0, 1), [[[0.5, 0.5], [0.5, bad]]])
    tab = bsc_table(0.2, n_states=3)
    assert tab.prob(1, 2, 0) == pytest.approx(0.2)
    sub = tab.restrict(states=(0, 2))
    assert sub.states == (0, 2) and sub.w.shape == (2, 2, 2)
    assert not tab.w.flags.writeable


def test_channel_table_json_round_trip():
    tab = avc_kernel(0.7)
    clone = ChannelTable.from_json_dict(tab.to_json_dict())
    assert clone.states == tab.states
    assert np.array_equal(clone.w, tab.w)
    with pytest.raises(ValueError, match="missing field 'w'"):
        ChannelTable.from_json_dict({"states": [0], "inputs": [0], "outputs": [0]})


def test_w0_table_rows():
    tab = w0_table()
    for s in range(2):
        for x in range(2):
            expected = [1.0 - x, float(x)] if s == x else [0.5, 0.5]
            assert np.allclose(tab.w[s, x], expected)


def test_avc_kernel_structure():
    alpha = 1.0
    p, pt = crossover_probs(alpha)
    tab = avc_kernel(alpha)
    assert tab.states == tab.inputs == (0, 1, 2)
    assert tab.outputs == (0, 1)
    # matched BPSK letters: clean BSC(p)
    assert tab.prob(1, 0, 0) == pytest.approx(p)
    assert tab.prob(0, 1, 1) == pytest.approx(p)
    # a lone entangled letter on either side: BSC(p_tilde)
    assert tab.prob(1, 2, 0) == pytest.approx(pt)
    assert tab.prob(0, 2, 1) == pytest.approx(pt)
    # sender entangled: receiver output tracks the jammer's BPSK letter
    assert tab.prob(1, 0, 2) == pytest.approx(pt)
    assert tab.prob(0, 1, 2) == pytest.approx(pt)
    # crossed BPSK letters or both entangled: fair coin
    for s, x in ((0, 1), (1, 0), (2, 2)):
        assert tab.prob(0, s, x) == pytest.approx(0.5)


def test_compose_bsc_identities():
    rng = np.random.default_rng(41)
    for _ in range(50):
        t1, t2 = rng.uniform(0, 1, size=2)
        out = compose_bsc(float(t1), float(t2))
        assert out == pytest.approx(t1 * (1 - t2) + t2 * (1 - t1), abs=1e-15)
        assert out == pytest.approx(compose_bsc(float(t2), float(t1)))
    assert compose_bsc(0.3, 0.0) == pytest.approx(0.3)
    assert compose_bsc(0.3, 0.5) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        compose_bsc(-0.1, 0.2)


def test_effective_channel_shared_coin_gives_quarter_bsc():
    q_c = BinaryJointDist(0.5, 0.0, 0.0, 0.5)
    eff = effective_channel(q_c, w0_table())
    got = is_bsc(eff)
    assert got is not None and got.t == pytest.approx(0.25, abs=1e-14)


def test_effective_channel_sender_coin_is_biased_not_symmetric():
    # lambda_0 = 1 vertex: sender bit scrambled, output leans toward the state
    q_0 = BinaryJointDist(0.5, 0.0, 0.5, 0.0)
    eff = effective_channel(q_0, w0_table())
    assert np.allclose(eff.w[0], [[0.75, 0.25], [0.75, 0.25]], atol=1e-14)
    assert np.allclose(eff.w[1], [[0.25, 0.75], [0.25, 0.75]], atol=1e-14)
    assert is_bsc(eff) is None
    assert average_crossover(eff) == pytest.approx(0.5, abs=1e-14)


def test_effective_channel_average_crossover_law():
    # avg crossover = 1/2 - lambda_c / 4 for every pair distribution, per state
    rng = np.random.default_rng(42)
    for _ in range(300):
        q = BinaryJointDist(*rng.dirichlet(np.ones(4)))
        lam_c = 1.0 - 2.0 * q.q10 - 2.0 * q.q01
        eff = effective_channel(q, w0_table())
        t = average_crossover(eff)
        assert t is not None
        assert t == pytest.approx(0.5 - lam_c / 4.0, abs=1e-10)


def test_effective_channel_bsc_iff_receiver_bit_unbiased():
    rng = np.random.default_rng(43)
    hits = 0
    for _ in range(200):
        raw = rng.dirichlet(np.ones(4))
        q = BinaryJointDist(*raw)
        eff = effective_channel(q, w0_table())
        balanced = abs(q.marginal_second - 0.5) <= 1e-12
        if is_bsc(eff) is not None:
            hits += 1
            assert balanced
        else:
            assert not balanced
    assert hits == 0  # Dirichlet draws never land exactly on the balance plane
    # forcing the receiver-bit marginal onto 1/2 restores symmetry
    for _ in range(50):
        q00, q10 = rng.dirichlet(np.ones(2)) * 0.5
        q01, q11 = rng.dirichlet(np.ones(2)) * 0.5
        eff = effective_channel(BinaryJointDist(q00, q01, q10, q11), w0_table())
        got = is_bsc(eff)
        assert got is not None
        assert got.t == pytest.approx(average_crossover(eff), abs=1e-12)


def test_effective_channel_identity_and_scrambling():
    point = BinaryJointDist(1.0, 0.0, 0.0, 0.0)
    base = avc_kernel(0.8).restrict(inputs=(0, 1))
    assert np.allclose(effective_channel(point, base).w, base.w, atol=1e-15)
    flat = BinaryJointDist(0.25, 0.25, 0.25, 0.25)
    assert np.allclose(effective_channel(flat, base).w, 0.5, atol=1e-14)
    with pytest.raises(ValueError):
        effective_channel(point, avc_kernel(0.8))  # ternary input alphabet


def test_is_bsc_and_average_crossover_verdicts():
    assert is_bsc(bsc_table(0.17)).t == pytest.approx(0.17)
    assert is_bsc(w0_table()) is None
    assert average_crossover(bsc_table(0.17)) == pytest.approx(0.17)
    # equal per-state averages but opposite row biases: average exists, BSC fails
    w = np.array([
        [[0.9, 0.1], [0.3, 0.7]],
        [[0.7, 0.3], [0.1, 0.9]],
    ])
    tab = ChannelTable((0, 1), (0, 1), (0, 1), w)
    assert is_bsc(tab) is None
    assert average_crossover(tab) == pytest.approx(0.2, abs=1e-14)
    # state-dependent average: both verdicts fail
    w2 = np.array(w)
    w2[1] = [[0.5, 0.5], [0.5, 0.5]]
    tab2 = ChannelTable((0, 1), (0, 1), (0, 1), w2)
    assert is_bsc(tab2) is None and average_crossover(tab2) is None
    # non-binary alphabets are rejected outright
    assert is_bsc(avc_kernel(1.0)) is None


def test_kernel_is_symmetrizable_with_copying_witness():
    for alpha in (0.5, 1.0, 2.0):
        tab = avc_kernel(alpha)
        u = symmetrizability_lp(tab)
        assert u is not None
        assert symmetrization_residual(tab, u) <= 1e-8
        # copying the sender's letter into the state slot is itself a witness
        ident = np.eye(3)
        assert symmetrization_residual(tab, ident) <= 1e-12


def test_state_independent_bsc_family_is_not_symmetrizable():
    for t in (0.1, 0.25, 0.4):
        assert symmetrizability_lp(bsc_table(t)) is None
        assert symmetrizability_lp(bsc_table(t, n_states=3)) is None
    # at t = 1/2 the inputs are indistinguishable and any u works
    assert symmetrizability_lp(bsc_table(0.5)) is not None


def _assert_same_lp_answer(table):
    """The integer simplex gives the rational one's verdict and witness, bit for bit."""
    a_mat, b_vec = channels._symmetrizing_system(table)
    got = channels._phase1_simplex(a_mat, b_vec, channels.LP_FEAS_TOL)
    expected = phase1_simplex_rational(a_mat, b_vec, channels.LP_FEAS_TOL)
    assert (got is None) == (expected is None), table.w
    if got is not None:
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), (got, expected)
    return got


def _random_table(rng, ns, nx, ny, kind):
    """A row-stochastic table; some kinds are symmetrizable by construction."""
    w = rng.dirichlet(np.ones(ny), size=(ns, nx))
    if kind == "input-free":  # w(y|s,x) = w(y|s,0): any u(s|x) = u(s) symmetrizes
        w[:] = w[:, :1]
    elif kind == "symmetric" and ns == nx:  # w(y|s,x) = w(y|x,s): u = identity works
        w = 0.5 * (w + w.swapaxes(0, 1))
    elif kind == "tiny" and ny > 1:  # entries near 1e-9, and subnormal ones in some tables
        values = [1e-9, 2.5e-9, 1e-30] + ([5e-324, 2.5e-310] if rng.random() < 0.25 else [])
        for s in range(ns):
            for x in range(nx):
                y = rng.integers(ny)
                tiny = rng.choice(values)
                w[s, x, (y + 1) % ny] += w[s, x, y] - tiny
                w[s, x, y] = tiny
    return ChannelTable(tuple(range(ns)), tuple(range(nx)), tuple(range(ny)), w)


def test_integer_simplex_matches_rational_simplex_on_named_tables():
    alphas = (0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 8.0, 12.0)
    for alpha in alphas:
        assert _assert_same_lp_answer(avc_kernel(alpha)) is not None
    for t in (0.1, 0.17, 0.2, 0.25, 0.3, 0.4):
        assert _assert_same_lp_answer(bsc_table(t)) is None
        assert _assert_same_lp_answer(bsc_table(t, 3)) is None
    for table in (bsc_table(0.5), bsc_table(0.5, 3), w0_table()):
        _assert_same_lp_answer(table)
    for table in (avc_kernel(1.0), avc_kernel(4.0), bsc_table(0.5), w0_table()):
        got, expected = symmetrizability_lp(table), symmetrizability_lp_reference(table)
        assert (got is None) == (expected is None)
        if got is not None:
            assert got.tobytes() == expected.tobytes()


def test_integer_simplex_matches_rational_simplex_on_random_tables():
    rng = np.random.default_rng(7007)
    kinds = ("plain", "input-free", "symmetric", "tiny")
    feasible = 0
    for case in range(240):
        ns, nx, ny = rng.integers(1, 5), rng.integers(2, 4), rng.integers(2, 4)
        if case % 8 == 0:  # plain tables of this shape often tie in the ratio test
            ns, nx, ny = 4, 3, 2
        elif case % 4 == 2:
            nx = ns = min(ns, 3)  # room for the symmetric kind
        table = _random_table(rng, ns, nx, ny, kinds[case % 4])
        feasible += _assert_same_lp_answer(table) is not None
    assert 40 <= feasible <= 200  # both verdicts are well represented


_CELL = st.one_of(st.just(0.0), st.just(1e-9), st.floats(1e-12, 1.0))


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(2, 3), st.data())
def test_integer_simplex_matches_rational_simplex_property(ns, nx, ny, data):
    cells = data.draw(st.lists(_CELL, min_size=ns * nx * ny, max_size=ns * nx * ny))
    w = np.array(cells).reshape(ns, nx, ny) + np.array([1e-3] + [0.0] * (ny - 1))
    if data.draw(st.booleans()):
        w[:, 1:] = w[:, :1]  # input-free, so symmetrizable
    w /= w.sum(axis=2, keepdims=True)
    tiny = data.draw(st.sampled_from([None, 1e-9, 1e-30, 5e-324]))
    if tiny is not None:  # one row gets an entry near 1e-9, tinier or subnormal
        s, x = data.draw(st.integers(0, ns - 1)), data.draw(st.integers(0, nx - 1))
        w[s, x, 0] += w[s, x, 1] - tiny
        w[s, x, 1] = tiny
    _assert_same_lp_answer(ChannelTable(tuple(range(ns)), tuple(range(nx)),
                                        tuple(range(ny)), w))


def _assert_same_simplex(a_rows, b_vec):
    """The basis-inverse simplex gives the rational one's answer, bit for bit."""
    a_mat, b_vec = np.array(a_rows, dtype=float), np.array(b_vec, dtype=float)
    got = channels._phase1_simplex(a_mat, b_vec, channels.LP_FEAS_TOL)
    expected = phase1_simplex_rational(a_mat, b_vec, channels.LP_FEAS_TOL)
    assert (got is None) == (expected is None), (a_mat, b_vec)
    if got is not None:
        assert got.tobytes() == expected.tobytes(), (got, expected)
    return got


def test_integer_simplex_matches_rational_simplex_on_hand_built_systems():
    """Systems `_symmetrizing_system` never builds (its b is 0 or 1 and it
    has more columns than rows), and one where Bland's rule re-enters
    artificial columns."""
    # negative entries in b: their rows are negated before phase 1
    z = _assert_same_simplex([[1, 1, 0], [0, -1, 1]], [2, -1])
    assert z is not None and z @ [0, -1, 1] == -1
    assert _assert_same_simplex([[0.5, -1, 0.25], [1, 0, -0.75]], [-0.75, 0.5]) is not None
    assert _assert_same_simplex([[1, 1]], [-1]) is None  # -z1 - z2 = 1
    # an all-zero structural column, which no pivot can enter
    z = _assert_same_simplex([[0, 1, 2], [0, 1, -1]], [1, 0.25])
    assert z is not None and z[0] == 0
    assert _assert_same_simplex([[0, 0], [0, 1]], [0.5, 1]) is None
    # infeasible: inconsistent rows, and a system whose only solution is negative
    assert _assert_same_simplex([[1, 1], [1, 1]], [1, 2]) is None
    assert _assert_same_simplex([[1, 0], [0, 1]], [1, -0.5]) is None
    # more rows than columns, with a redundant row whose artificial stays basic at 0
    z = _assert_same_simplex([[1, 0], [0, 1], [1, 1], [1, -1]], [0.5, 0.25, 0.75, 0.25])
    assert z.tolist() == [0.5, 0.25]
    assert _assert_same_simplex([[1, 0], [0, 1], [1, 1]], [0.5, 0.25, 1]) is None
    # a single column
    assert _assert_same_simplex([[2], [4], [-1]], [1, 2, -0.5]).tolist() == [0.5]
    assert _assert_same_simplex([[1], [1]], [1, 0.5]) is None
    assert _assert_same_simplex([[3]], [1]).tolist() == [1 / 3]
    # avc_kernel(2.0)'s system: on it, Bland's rule re-enters an artificial
    # column 3 times in 26 pivots, so the artificial block's entries serve
    # as the entering column there
    assert _assert_same_simplex(*channels._symmetrizing_system(avc_kernel(2.0))) is not None


def test_symmetrization_residual_flags_bad_witness():
    tab = avc_kernel(1.0)
    bad = np.array([[1.0, 0.0, 0.0]] * 3)  # always play state 0
    assert symmetrization_residual(tab, bad) > 0.01


def test_max_crossover_bounds_values_and_domain():
    delta, pt = 0.2959527466182408, 0.15865525393145707
    bpsk, ent = max_crossover_bounds(delta, pt)
    assert bpsk == pytest.approx(0.5 - delta / 4.0, abs=1e-15)
    assert ent == pytest.approx(delta * pt + (1.0 - delta) / 2.0, abs=1e-15)
    assert ent < 0.5 and bpsk < 0.5
    with pytest.raises(ValueError):
        max_crossover_bounds(1.5, pt)
    with pytest.raises(ValueError):
        max_crossover_bounds(delta, 0.6)


def test_mutual_information_uniform_known_channels():
    assert mutual_information_uniform(np.array([[1.0, 0.0], [0.0, 1.0]])) == pytest.approx(1.0)
    assert mutual_information_uniform(np.array([[0.5, 0.5], [0.5, 0.5]])) == pytest.approx(0.0, abs=1e-15)
    t = 0.23
    rows = np.array([[1 - t, t], [t, 1 - t]])
    assert mutual_information_uniform(rows) == pytest.approx(bsc_capacity(t), abs=1e-13)


def test_pinsker_bound_on_mixtures():
    tab = bsc_table(0.3)
    bound, exact = pinsker_bound(tab, (0.5, 0.5))
    assert bound == pytest.approx(0.5 * 0.4**2, abs=1e-14)
    assert exact == pytest.approx(bsc_capacity(0.3), abs=1e-13)
    assert exact >= bound
    rng = np.random.default_rng(44)
    kernel = avc_kernel(1.0).restrict(inputs=(0, 1))
    for _ in range(50):
        lam = rng.dirichlet(np.ones(3))
        bound, exact = pinsker_bound(kernel, lam)
        assert exact >= bound - 1e-12
    with pytest.raises(ValueError):
        pinsker_bound(tab, (0.7, 0.2))
    with pytest.raises(ValueError):
        pinsker_bound(avc_kernel(1.0), (1 / 3, 1 / 3, 1 / 3))


def test_bsc_param_validation():
    assert BscParam(0.5).t == 0.5
    with pytest.raises(ValueError):
        BscParam(-0.01)
    with pytest.raises(ValueError):
        BscParam(1.01)


def test_lp_error_type_is_distinct():
    assert issubclass(LpNumericalError, RuntimeError)
