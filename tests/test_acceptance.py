"""Acceptance gate: one test per shipping criterion, tolerances pinned.

Each test is self-contained and asserts its own runtime budget where one is
part of the criterion. Run with -v to get the per-criterion pass/fail lines.
"""

import json
import math
import time

import numpy as np
import pytest

from avcsim.bivariate import (
    BinaryJointDist,
    BivariateGaussian,
    arcsine_law,
    binarized_correlation,
    bivariate_normal_cdf,
    bivariate_normal_pdf,
    quadrant_distribution,
    std_normal_cdf,
)
from avcsim.channels import (
    average_crossover,
    avc_kernel,
    bsc_table,
    crossover_probs,
    effective_channel,
    is_bsc,
    symmetrization_residual,
    symmetrizability_lp,
    w0_table,
)
from avcsim.cli import main as cli_main
from avcsim.gaussian import (
    JammerGaussian,
    apply_beamsplitter,
    mix_tmsv_with_jammer,
    partial_trace,
    tensor,
    tmsv_state,
)
from avcsim.geometry import (
    EnergyBudget,
    SimplexCoords,
    compute_delta_star,
    default_squeezing,
    from_barycentric,
    sweep_records,
)
from avcsim.protocol import (
    SimConfig,
    canonical_schedules,
    evaluate_code_error_exact,
    simulate,
    symmetrizing_attack_error,
)

from oracles import erfc_oracle, mc_orthant


def _random_jammer(rng) -> JammerGaussian:
    big_a = rng.uniform(0.3, 3.0)
    big_b = rng.uniform(0.25 / big_a + 0.05, 3.0)
    c_max = math.sqrt(big_a * big_b - 0.25)
    return JammerGaussian(
        A=big_a, B=big_b, C=rng.uniform(-0.9, 0.9) * c_max,
        a=rng.normal(0.0, 1.5), b=rng.normal(0.0, 1.5),
    )


def test_criterion_01_closed_form_mixing_matches_composition():
    rng = np.random.default_rng(101)
    started = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        r = rng.uniform(0.0, 2.0)
        eta = rng.uniform(0.0, 1.0)
        tau = _random_jammer(rng)
        direct = mix_tmsv_with_jammer(r, eta, tau)
        three = tensor(tmsv_state(r), tau.to_state())
        mixed = apply_beamsplitter(three, eta, (1, 2))
        composed = partial_trace(mixed, keep=(0, 1))
        worst = max(
            worst,
            float(np.abs(direct.mean - composed.mean).max()),
            float(np.abs(direct.cov - composed.cov).max()),
        )
    elapsed = time.monotonic() - started
    assert worst <= 1e-12, f"max deviation {worst:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_02_orthant_cdf_vs_monte_carlo_and_independence():
    rng = np.random.default_rng(102)
    started = time.monotonic()
    n = 10_000_000
    for i in range(50):
        x = float(rng.normal(0.0, 1.5))
        y = float(rng.normal(0.0, 1.5))
        rho = float(rng.uniform(-0.95, 0.95))
        value = bivariate_normal_cdf(x, y, rho)
        est, _ = mc_orthant(x, y, rho, n, seed=i)
        p_clip = min(max(value, 1e-12), 1.0 - 1e-12)
        sigma = math.sqrt(p_clip * (1.0 - p_clip) / n)
        assert abs(value - est) <= 4.0 * sigma, (
            f"point {i}: ({x:.3f},{y:.3f},{rho:.3f}) off by "
            f"{abs(value - est):.3e} > {4 * sigma:.3e}")
        indep = bivariate_normal_cdf(x, y, 0.0)
        assert abs(indep - std_normal_cdf(x) * std_normal_cdf(y)) <= 1e-12
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_03_positive_quadrant_dependence_on_grid():
    # Strict positivity is checked with zero tolerance. The in-rho increase is
    # checked strictly wherever one increment step exceeds what float64 can
    # resolve (1e-13); at the far corners the true increment is ~1e-23 and
    # every implementation returns equal doubles, so only a decrease, or a tie
    # where the increment is resolvable, counts as a violation.
    ts = np.linspace(-3.0, 3.0, 100)
    phi = np.array([std_normal_cdf(float(t)) for t in ts])
    product = np.outer(phi, phi)
    rhos = [0.05 + 0.1 * k for k in range(10)]
    violations = 0
    prev = None
    for rho in rhos:
        grid = np.empty((100, 100))
        for i, tx in enumerate(ts):
            for j, ty in enumerate(ts):
                grid[i, j] = bivariate_normal_cdf(float(tx), float(ty), rho)
        violations += int((grid - product <= 0.0).sum())
        if prev is not None:
            diff = grid - prev
            violations += int((diff < 0.0).sum())
            for i, j in np.argwhere(diff == 0.0):
                step = bivariate_normal_pdf(float(ts[i]), float(ts[j]), rho - 0.05) * 0.1
                if step > 1e-13:
                    violations += 1
        prev = grid
    assert violations == 0


def test_criterion_04_arcsine_law_for_centered_pairs():
    for rho in [0.1 * k for k in range(1, 10)]:
        biv = BivariateGaussian(np.zeros(2), np.array([[1.0, rho], [rho, 1.0]]))
        rho_bin = binarized_correlation(quadrant_distribution(biv))
        assert abs(rho_bin - arcsine_law(rho)) <= 1e-8, f"rho={rho}"


def test_criterion_05_sweep_containment_margin():
    # The margin is non-increasing in the jammer budget only at a fixed
    # squeezing; under default_squeezing(budget) the sender's squeezing grows
    # with alpha too and the margin is unimodal. So monotonicity is checked at
    # r = asinh(0.5), the alpha = 0.5 default, whose delta* the loop reuses.
    fixed_r = default_squeezing(EnergyBudget(0.5 * 0.5))
    margins = []
    for alpha in (0.25, 0.5, 1.0, 2.0):
        started = time.monotonic()
        budget = EnergyBudget(alpha * alpha)
        r = default_squeezing(budget)
        sweep = sweep_records(budget, r, 0.5, 200)
        lam_min = np.minimum(np.minimum(sweep.lambda_c, sweep.lambda_0), sweep.lambda_1)
        assert np.all(lam_min >= -1e-9)
        assert np.all(np.abs(sweep.q[:, 0, 0] + sweep.q[:, 0, 1] - 0.5) <= 1e-10)
        delta_star = compute_delta_star(budget, r)
        assert delta_star > 0.0
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"alpha={alpha} took {elapsed:.1f}s"
        if r != fixed_r:
            started = time.monotonic()
            delta_star = compute_delta_star(budget, fixed_r)
            elapsed = time.monotonic() - started
            assert elapsed < 60.0, f"alpha={alpha} at r={fixed_r} took {elapsed:.1f}s"
        margins.append(delta_star)
    assert all(b <= a + 1e-12 for a, b in zip(margins, margins[1:])), (
        f"containment margin at r={fixed_r} not non-increasing in alpha: {margins}")


def test_criterion_06_effective_channel_is_state_independent_bsc():
    # w_eff flips with 1/2 - lambda_c/4 + (-1)^(s XOR x) (lambda_1 - lambda_0)/4:
    # a BSC only where lambda_0 = lambda_1, but its input-averaged crossover
    # 1/2 - lambda_c/4 is state-independent everywhere.
    rng = np.random.default_rng(106)
    base = w0_table()
    for _ in range(1000):
        lam = rng.dirichlet(np.ones(3))
        coords = SimplexCoords(*lam)
        eff = effective_channel(from_barycentric(coords), base)
        for s in range(2):
            for x in range(2):
                flip = (0.5 - coords.lambda_c / 4.0
                        + (-1) ** (s ^ x) * (coords.lambda_1 - coords.lambda_0) / 4.0)
                assert abs(eff.w[s, x, 1 - x] - flip) <= 1e-10, (
                    f"flip w(1-x | s={s}, x={x}) at lambda={tuple(lam)}: "
                    f"{eff.w[s, x, 1 - x]} != {flip}")
                assert abs(eff.w[s, x, x] - (1.0 - flip)) <= 1e-10
        t_avg = average_crossover(eff)
        assert t_avg is not None
        assert abs(t_avg - (0.5 - coords.lambda_c / 4.0)) <= 1e-10
        assert is_bsc(eff) is None, (
            f"effective channel a BSC off lambda_0 = lambda_1 at lambda={tuple(lam)}")
    for _ in range(200):
        delta = rng.uniform(0.0, 0.9)
        mu = rng.dirichlet(np.ones(3))
        coords = SimplexCoords(
            1.0 - (1.0 - delta) * (mu[1] + mu[2]),
            (1.0 - delta) * mu[1],
            (1.0 - delta) * mu[2],
        )
        t_avg = average_crossover(effective_channel(from_barycentric(coords), base))
        assert t_avg is not None
        assert t_avg <= 0.5 - delta / 4.0 + 1e-10
    for _ in range(200):
        side = rng.uniform(0.0, 0.5)
        coords = SimplexCoords(1.0 - 2.0 * side, side, side)
        verdict = is_bsc(effective_channel(from_barycentric(coords), base))
        assert verdict is not None, f"not a BSC on lambda_0 = lambda_1 = {side}"
        assert abs(verdict.t - (0.5 - coords.lambda_c / 4.0)) <= 1e-10


def test_criterion_07_symmetrizability_verdicts():
    for alpha in (0.5, 1.0, 2.0):
        kernel = avc_kernel(alpha)
        witness = symmetrizability_lp(kernel)
        assert witness is not None, f"kernel at alpha={alpha} must be symmetrizable"
        assert symmetrization_residual(kernel, witness) <= 1e-8
        copying = np.eye(3)  # u(s | x) = 1 when s = x
        assert symmetrization_residual(kernel, copying) <= 1e-8
    for t in (0.1, 0.25, 0.4):
        assert symmetrizability_lp(bsc_table(t)) is None
        assert symmetrizability_lp(bsc_table(t, n_states=3)) is None


def test_criterion_08_crossover_constants_match_erf_oracle():
    p, pt = crossover_probs(1.0)
    assert abs(p - 0.5 * erfc_oracle(2.0)) <= 1e-12
    assert abs(pt - 0.5 * erfc_oracle(1.0 / math.sqrt(2.0))) <= 1e-12
    assert p == pytest.approx(0.0023389, abs=5e-8)
    assert pt == pytest.approx(0.1586553, abs=5e-8)


def test_criterion_09_exact_error_oracle_vs_monte_carlo():
    codebook = np.array([[[0, 0, 0], [1, 1, 1]]])
    y_bits = (np.arange(8)[:, None] >> np.array([2, 1, 0])) & 1
    decoder = (y_bits.sum(axis=1) >= 2).astype(np.int64)[None, :]
    q = BinaryJointDist(1.0, 0.0, 0.0, 0.0)
    exact = evaluate_code_error_exact(codebook, decoder, q, [0, 0, 0], bsc_table(0.1))
    assert exact == pytest.approx(0.028, abs=1e-12)
    n = 1_000_000
    rng = np.random.default_rng(109)
    m = rng.integers(0, 2, size=n)
    flips = rng.random(size=(n, 3)) < 0.1
    y = (m[:, None] ^ flips.astype(np.int64))
    decoded = (y.sum(axis=1) >= 2).astype(np.int64)
    mc = float((decoded != m).mean())
    sigma = math.sqrt(exact * (1.0 - exact) / n)
    assert abs(mc - exact) <= 4.0 * sigma


def _min_distance_decoder(codebook: np.ndarray) -> np.ndarray:
    n = codebook.shape[1]
    y = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return (y[:, None, :] != codebook[None, :, :]).sum(axis=2).argmin(axis=1)[None, :]


def test_criterion_10_protocol_error_bounds():
    started = time.monotonic()
    # entangled source, worst case over the four canonical schedules
    cfg = SimConfig(alpha=1.0, n=1024, k=800, rate=0.1, jammer=canonical_schedules(),
                    master_seed=20260813, trials=200, cr_seed_bits=1)
    report = simulate(cfg, workers=2)
    assert report.worst_error < 0.05, f"worst-case block error {report.worst_error}"
    # unentangled source: no side rounds, jammer replays random codewords;
    # exhaustive evaluation pins the error at or above 1/4 for M >= 2
    base = avc_kernel(1.0)
    q_det = BinaryJointDist(1.0, 0.0, 0.0, 0.0)
    rng = np.random.default_rng(110)
    cases = []
    for n in (4, 8, 12):
        rep = np.stack([np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64)])
        cases.append(rep)
        m = {4: 2, 8: 4, 12: 16}[n]
        cases.append(rng.integers(0, 2, size=(m, n), dtype=np.int64))
    for codebook in cases:
        err = symmetrizing_attack_error(codebook[None], _min_distance_decoder(codebook),
                                        q_det, base)
        assert err >= 0.25 - 1e-9, (
            f"M={codebook.shape[0]}, n={codebook.shape[1]}: error {err}")
    elapsed = time.monotonic() - started
    assert elapsed < 600.0, f"took {elapsed:.1f}s"


def test_criterion_11_simulation_reports_deterministic(tmp_path):
    cfg = SimConfig.defaults(1.0, 256, 0.1, canonical_schedules(),
                             master_seed=4242, trials=8)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg.to_json_dict()))
    artifacts = []
    for workers in (1, 2, 8):
        out = tmp_path / f"w{workers}"
        assert cli_main(["simulate", str(cfg_path), "--out", str(out),
                         "--workers", str(workers)]) == 0
        artifacts.append(((out / "report.json").read_bytes(),
                          (out / "trials.csv").read_bytes()))
    for other in artifacts[1:]:
        assert other[0] == artifacts[0][0]
        assert other[1] == artifacts[0][1]
