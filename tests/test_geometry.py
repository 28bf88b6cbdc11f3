"""Simplex coordinates, the jammer energy grid, and the containment margin."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avcsim.geometry as geometry
from avcsim.bivariate import BinaryJointDist, quadrant_laws
from avcsim.gaussian import (
    JammerGaussian,
    mix_tmsv_with_jammer,
    receiver_port_moments,
    symplectic_eigenvalues,
)
from avcsim.geometry import (
    COORD_SUM_ATOL,
    CSV_COLUMNS,
    _CSV_ROWS,
    EnergyBudget,
    SimplexCoords,
    SweepColumns,
    barycentric,
    compute_delta_star,
    default_squeezing,
    from_barycentric,
    in_delta_delta,
    jammer_grid,
    sweep_records,
    sweep_to_csv,
    vertices,
)

from oracles import (
    delta_star_full_grid,
    delta_star_scalar,
    first_of_each_key_reference,
    grid_arrays_reference,
    jammer_grid_scalar,
    largest_delta_bisection,
    largest_delta_full_grid,
    sweep_csv_reference,
    sweep_scalar,
)


def test_simplex_coords_validation():
    c = SimplexCoords(0.2, 0.5, 0.3)
    assert c.as_tuple() == (0.2, 0.5, 0.3)
    assert c.in_simplex()
    assert not SimplexCoords(-0.2, 0.6, 0.6).in_simplex()
    with pytest.raises(ValueError):
        SimplexCoords(0.5, 0.5, 0.5)


def test_energy_budget():
    assert EnergyBudget(4.0).alpha == pytest.approx(2.0)
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            EnergyBudget(bad)


def test_vertices_are_unit_barycentric_points():
    q_c, q_0, q_1 = vertices()
    assert barycentric(q_c).as_tuple() == pytest.approx((1.0, 0.0, 0.0), abs=1e-14)
    assert barycentric(q_0).as_tuple() == pytest.approx((0.0, 1.0, 0.0), abs=1e-14)
    assert barycentric(q_1).as_tuple() == pytest.approx((0.0, 0.0, 1.0), abs=1e-14)
    # q_0 and q_1 have a uniform sender bit and a constant receiver bit
    assert q_0.marginal_first == pytest.approx(0.5)
    assert q_0.marginal_second == pytest.approx(0.0)
    assert q_1.marginal_second == pytest.approx(1.0)


def test_barycentric_round_trip():
    rng = np.random.default_rng(51)
    for _ in range(200):
        lam = rng.dirichlet(np.ones(3))
        coords = SimplexCoords(*lam)
        back = barycentric(from_barycentric(coords))
        assert back.as_tuple() == pytest.approx(coords.as_tuple(), abs=1e-12)


@st.composite
def _simplex_points(draw):
    l0 = draw(st.floats(0.0, 1.0))
    l1 = draw(st.floats(0.0, 1.0 - l0))
    return SimplexCoords(1.0 - l0 - l1, l0, l1)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_simplex_points())
def test_barycentric_round_trip_property(coords):
    back = barycentric(from_barycentric(coords))
    assert back.as_tuple() == pytest.approx(coords.as_tuple(), abs=COORD_SUM_ATOL)


def test_barycentric_rejects_off_hull_points():
    with pytest.raises(ValueError, match="affine hull"):
        barycentric(BinaryJointDist(0.7, 0.1, 0.1, 0.1))


def test_barycentric_extends_outside_the_triangle():
    # on the hull but past the q_0 edge: negative lambda_c, no exception
    coords = barycentric(BinaryJointDist(0.4, 0.1, 0.5, 0.0))
    assert coords.lambda_c == pytest.approx(-0.2, abs=1e-14)
    assert not coords.in_simplex()


def test_in_delta_delta_boundaries():
    q_c, q_0, _ = vertices()
    for delta in (0.0, 0.3, 0.7, 1.0):
        assert in_delta_delta(q_c, delta)
    assert in_delta_delta(q_0, 0.0)
    assert not in_delta_delta(q_0, 0.5)
    # the shrunken vertex (1 - delta) q_0 + delta q_c sits exactly on the boundary
    delta = 0.37
    coords = SimplexCoords(delta, 1.0 - delta, 0.0)
    q_edge = from_barycentric(coords)
    assert in_delta_delta(q_edge, delta)
    assert not in_delta_delta(q_edge, delta + 1e-3)
    with pytest.raises(ValueError):
        in_delta_delta(q_c, 1.2)


def test_default_squeezing_spends_the_budget():
    for e in (0.25, 1.0, 4.0):
        r = default_squeezing(EnergyBudget(e))
        assert math.sinh(r) ** 2 == pytest.approx(e, abs=1e-12)


def test_jammer_grid_contents():
    budget = EnergyBudget(1.0)
    grid = jammer_grid(budget, 12)
    # anchors present: vacuum, both coherent signs, thermal at the budget
    keys = {(round(t.A, 9), round(t.a, 9)) for t in grid}
    assert (0.5, 0.0) in keys
    assert (0.5, round(math.sqrt(2.0), 9)) in keys
    assert (0.5, -round(math.sqrt(2.0), 9)) in keys
    assert (1.5, 0.0) in keys
    assert len(keys) == len(grid)  # no duplicates
    for tau in grid:
        assert tau.A * tau.B - tau.C**2 >= 0.25 - 1e-12
        assert tau.mean_photons <= budget.alpha_sq + 1e-9
    with pytest.raises(ValueError):
        jammer_grid(budget, 1)


def test_sweep_points_live_in_the_simplex():
    budget = EnergyBudget(1.0)
    r = default_squeezing(budget)
    records = sweep_records(budget, r, 0.5, 16)
    assert len(records) == len(jammer_grid(budget, 16))  # one row per jammer state
    lam = (records.lambda_c, records.lambda_0, records.lambda_1)
    assert np.all(np.abs(lam[0] + lam[1] + lam[2] - 1.0) <= 1e-10)
    assert np.all(np.minimum(np.minimum(lam[0], lam[1]), lam[2]) >= -1e-9)
    assert np.all(records.lambda_c > 0.0)
    assert np.all((0.0 <= records.mi_bits) & (records.mi_bits <= 1.0))
    # binarization loses correlation
    assert np.all(np.abs(records.rho_bin) <= np.abs(records.rho) + 1e-12)
    with pytest.raises(ValueError):
        sweep_records(budget, -0.1)


def test_delta_star_frozen_value_and_domain():
    budget = EnergyBudget(1.0)
    ds = compute_delta_star(budget, default_squeezing(budget))
    assert ds == pytest.approx(0.2959527466182408, abs=1e-9)
    with pytest.raises(ValueError):
        compute_delta_star(EnergyBudget(0.0), 0.5)
    with pytest.raises(ValueError):
        compute_delta_star(budget, 0.0)


def test_sweep_csv_schema_and_round_trip():
    budget = EnergyBudget(0.5)
    records = sweep_records(budget, default_squeezing(budget), 0.5, 8)
    buf = io.StringIO()
    sweep_to_csv(records, buf)
    buf.seek(0)
    rows = list(csv.reader(buf))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == len(records) + 1
    assert float(rows[1][0]) == records.A[0]  # repr round-trips exactly
    assert float(rows[1][11]) == records.mi_bits[0]


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_sweep_csv_matches_the_per_row_writer(alpha):
    budget = EnergyBudget(alpha * alpha)
    r = default_squeezing(budget)
    cases = [(0.5, 8), (0.5, 64)]
    if alpha == 1.0:
        cases += [(0.0, 33), (0.3, 33), (1.0, 33)]
    for eta, resolution in cases:
        expected = io.StringIO(newline="")
        rows = sweep_csv_reference(budget, r, eta, resolution, expected)
        records = sweep_records(budget, r, eta, resolution)
        got = io.StringIO(newline="")
        sweep_to_csv(records, got)
        assert len(records) == rows
        assert got.getvalue() == expected.getvalue(), (alpha, eta, resolution)


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_a_sweep_row_is_the_one_row_quadrant_law_of_its_moments(alpha):
    # the sweep evaluates its rows in blocks of 2048, yet each row's law is
    # the one-row call on its own (b, rho), with -0.0 cells made 0.0 as the
    # sweep makes them; at alpha 2 the rows straddle |rho| = 0.925, so both
    # kernel branches are read
    budget = EnergyBudget(alpha * alpha)
    r = default_squeezing(budget)
    records = sweep_records(budget, r, 0.5, 64)
    mean_b, var_b, rho = receiver_port_moments(records.A, records.a, r, 0.5)
    b = mean_b / np.sqrt(var_b)
    assert rho.tobytes() == records.rho.tobytes()
    for i in range(len(records)):
        q = quadrant_laws(b[i:i + 1], rho[i:i + 1])[0]
        assert np.where(q > 0.0, q, 0.0).tobytes() == records.q[i].tobytes(), i


def test_sweep_csv_calls_repr_once_per_distinct_value_of_each_chunk(monkeypatch):
    # repr is looked up in geometry's globals before the builtins, so a module
    # attribute of that name sees every call; each write ends one chunk
    budget = EnergyBudget(1.0)
    records = sweep_records(budget, default_squeezing(budget), 0.5, 64)
    assert len(records) > 2 * _CSV_ROWS
    called, chunks = [], []
    monkeypatch.setattr(geometry, "repr", lambda x: called.append(x) or repr(x),
                        raising=False)

    class Chunks(io.StringIO):
        def write(self, text):
            chunks.append(len(called))
            return super().write(text)

    sweep_to_csv(records, Chunks(newline=""))
    assert len(chunks) == 1 + -(-len(records) // _CSV_ROWS)
    columns = np.column_stack([records.q[:, int(n[1]), int(n[2])] if n[0] == "q"
                               else getattr(records, n) for n in CSV_COLUMNS])
    bits = np.array(called, dtype=float).view(np.int64)
    assert chunks[0] == 0 and chunks[-1] == len(called)
    for i, (lo, hi) in enumerate(zip(chunks[:-1], chunks[1:])):
        chunk = columns[i * _CSV_ROWS:(i + 1) * _CSV_ROWS]
        assert sorted(bits[lo:hi].tolist()) == np.unique(chunk.view(np.int64)).tolist(), i


def test_sweep_csv_formats_every_cell_by_its_repr():
    # hand-built columns holding both signed zeros, NaNs of two payloads and
    # values that recur within and across the writer's chunks of _CSV_ROWS rows
    nan_payload = np.array([0x7FF8000000000123], dtype=np.int64).view(float)[0]
    pool = np.array([0.0, -0.0, np.nan, nan_payload, 0.1, -2.5, 1.0 / 3.0,
                     5e-324, -1.7976931348623157e308, 1e22, 123456789.0])
    rng = np.random.default_rng(93)
    for n in (0, 1, 2 * _CSV_ROWS + 3):
        cells = rng.choice(pool, (n, 13))
        if n > _CSV_ROWS:
            for col in cells.T:
                assert set(pool.view(np.int64).tolist()) <= set(col.view(np.int64).tolist())
        records = SweepColumns(
            A=cells[:, 0], B=cells[:, 1], a=cells[:, 2], q=cells[:, 3:7].reshape(n, 2, 2),
            lambda_c=cells[:, 7], lambda_0=cells[:, 8], lambda_1=cells[:, 9],
            rho=cells[:, 10], rho_bin=cells[:, 11], mi_bits=cells[:, 12])
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(CSV_COLUMNS)
        for row in np.delete(cells, 1, axis=1).tolist():
            writer.writerow([repr(x) for x in row])
        got = io.StringIO(newline="")
        sweep_to_csv(records, got)
        assert got.getvalue() == expected.getvalue(), n


def _no_work(*args):
    raise AssertionError("input was not rejected before the sweep started")


def test_bad_squeezing_and_transmissivity_rejected_before_work(monkeypatch):
    budget = EnergyBudget(1.0)
    monkeypatch.setattr(geometry, "_grid_arrays", _no_work)
    for r, eta in ((math.nan, 0.5), (math.inf, 0.5), (-1.0, 0.5),
                   (0.5, -0.1), (0.5, 1.5), (0.5, math.nan)):
        with pytest.raises(ValueError):
            sweep_records(budget, r, eta, 8)
        with pytest.raises(ValueError):
            compute_delta_star(budget, r, eta)


# 1e-8 and 1e-9 are budgets at which the dedup drops points at even
# resolutions (at 1e-9, g = 2 alpha^2 + 1 rounds to 1.0)
@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0, 1e-8, 1e-9])
def test_grid_arrays_match_scalar_grid(alpha):
    budget = EnergyBudget(alpha * alpha)
    for resolution in (2, 3, 16, 64, 200):
        expected = jammer_grid_scalar(budget, resolution)
        big_a, big_b, disp = geometry._grid_arrays(budget, resolution)
        assert big_a.tolist() == [t.A for t in expected]
        assert big_b.tolist() == [t.B for t in expected]
        assert disp.tolist() == [t.a for t in expected]
        assert jammer_grid(budget, resolution) == expected


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0, 3.7, 1e-8, 1e-9])
def test_grid_dedup_matches_python_round_keys(alpha):
    budget = EnergyBudget(alpha * alpha)
    for resolution in (2, 3, 16, 32, 64, 128, 256, 512):
        expected = grid_arrays_reference(budget, resolution)
        got = geometry._grid_arrays(budget, resolution)
        for x, y in zip(got, expected):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (alpha, resolution)


def test_first_of_each_key_on_near_duplicates():
    rng = np.random.default_rng(1212)
    step = 1e-12
    # values straddling round(., 12)'s half-way points, signed zeros, chains of
    # near neighbours, magnitudes where doubles are sparser than 1e-12, and
    # non-finite values
    base = np.concatenate([
        np.arange(-20, 20) * step,
        (np.arange(-20, 20) + 0.5) * step,
        np.nextafter((np.arange(-20, 20) + 0.5) * step, np.inf),
        np.nextafter((np.arange(-20, 20) + 0.5) * step, -np.inf),
        [0.0, -0.0, 0.5, 0.5 + step / 3, 0.5 - step / 3, 1.5, 1.5 + 0.49 * step],
        4096.0 + np.arange(-6, 7) * 2.0 ** -40,
        8192.0 + np.arange(-6, 7) * 2.0 ** -40,
        [9000.0, np.nextafter(9000.0, np.inf), 1e5, np.nextafter(1e5, np.inf)],
    ])
    # -5e-13 and 5e-13 are 1e-12 apart and share the key -0.0 == 0.0
    pair = (np.array([1.0, 1.0]), np.array([-5e-13, 5e-13]))
    assert geometry._first_of_each_key(*pair).tolist() == [0]
    assert first_of_each_key_reference(*pair).tolist() == [0]
    for trial in range(60):
        n = rng.integers(1, 400)
        cand_a = rng.choice(base, n) + rng.choice([0.0, 0.5, 2.0], n)
        cand_d = rng.choice(base, n) + rng.choice([0.0, -1.0, 3.0], n)
        if trial % 10 == 9:
            cand_d[rng.integers(n)] = rng.choice([np.nan, np.inf, -np.inf])
        expected = first_of_each_key_reference(cand_a, cand_d)
        got = geometry._first_of_each_key(cand_a, cand_d)
        assert got.tolist() == expected.tolist(), trial


def test_sweep_matches_scalar_route():
    budget = EnergyBudget(1.0)
    r = default_squeezing(budget)
    for eta in (0.0, 0.3, 0.5, 1.0):
        records = sweep_records(budget, r, eta, 12)
        expected = sweep_scalar(budget, r, eta, 12)
        jammers = [JammerGaussian(A=x, B=y, a=z) for x, y, z in
                   zip(records.A.tolist(), records.B.tolist(), records.a.tolist())]
        assert jammers == [tau for tau, _, _ in expected]
        for i, (_, q, rho) in enumerate(expected):
            assert np.abs(records.q[i] - q.as_array()).max() <= 1e-12
            assert records.rho[i] == pytest.approx(rho, abs=1e-14)
            coords = (records.lambda_c[i], records.lambda_0[i], records.lambda_1[i])
            assert coords == pytest.approx(barycentric(q).as_tuple(), abs=1e-12)


def test_delta_star_matches_scalar_bisection():
    fixed_r = default_squeezing(EnergyBudget(0.25))
    for alpha in (0.25, 0.5, 1.0, 2.0):
        budget = EnergyBudget(alpha * alpha)
        for r in {default_squeezing(budget), fixed_r}:
            assert abs(compute_delta_star(budget, r) - delta_star_scalar(budget, r)) <= 1e-12


def _pinned_delta_star_configs():
    # the (alpha, r, eta) that the delta* tests and perfbench pin
    for alpha in (0.25, 0.5, 1.0, 2.0, 3.0):
        for r in {math.asinh(alpha), math.asinh(0.5), math.asinh(0.25)}:
            yield alpha, r, 0.5


def _sampled_delta_star_configs():
    # 0.3538... and 0.4551... at eta 0.2, r 0.25 are budgets where an interior
    # point's lambda_0 + lambda_1 rounds 1 ulp above its row's ends
    yield 0.35384615384615387, 0.25, 0.2
    yield 0.4551282051282051, 0.25, 0.2
    rng = np.random.default_rng(2727)
    for _ in range(40):
        alpha = float(rng.uniform(0.05, 4.0))
        r = float(rng.choice([math.asinh(alpha), 0.25, 1.0]))
        yield alpha, r, float(rng.choice([0.0, 0.2, 0.5, 0.9, 1.0]))


def test_row_end_margin_matches_the_full_grid(monkeypatch):
    # delta* reads only the anchors and row ends; every rung's margin is the
    # full grid's, bit for bit where pinned and else no lower and at most
    # 4 ulp higher, counted in the ulp of the larger of delta and
    # 1 - delta (the margin is 1 - (lambda_0 + lambda_1) / (1 + atol))
    pinned = list(_pinned_delta_star_configs())
    assert len(pinned) == 13
    real, rungs = geometry._largest_delta, []
    monkeypatch.setattr(geometry, "_largest_delta",
                        lambda *args: rungs.append(args[-1]) or real(*args))
    for alpha, r, eta in pinned + list(_sampled_delta_star_configs()):
        budget = EnergyBudget(alpha * alpha)
        for resolution in (16, 32, 64, 128):
            got = real(budget, r, eta, resolution)
            ref = largest_delta_full_grid(budget, r, eta, resolution)
            if (alpha, r, eta) in pinned:
                assert repr(got) == repr(ref), (alpha, r, eta, resolution)
            ulp = max(np.spacing(ref), np.spacing(1.0 - ref))
            assert 0.0 <= got - ref <= 4.0 * ulp, (alpha, r, eta, resolution, got, ref)
        del rungs[:]
        value = compute_delta_star(budget, r, eta)
        ref_value, ref_rung = delta_star_full_grid(budget, r, eta)
        assert rungs[-1] == ref_rung, (alpha, r, eta)
        assert value == real(budget, r, eta, ref_rung)
        if (alpha, r, eta) in pinned:
            assert repr(value) == repr(ref_value), (alpha, r, eta)


@pytest.mark.parametrize("alpha, resolution, etas", [
    (1.0, 512, (0.5,)), (0.5, 128, (0.2, 0.5, 0.9)), (2.0, 128, (0.2, 0.5, 0.9))])
def test_sweep_rows_are_least_margin_at_their_ends(alpha, resolution, etas):
    # the premise of delta*'s row-end search: within a row of the grid (one A)
    # lambda_0 + lambda_1 is largest at the points of largest |a|, up to
    # rounding, and rho >= 0
    budget = EnergyBudget(alpha * alpha)
    for eta in etas:
        records = sweep_records(budget, default_squeezing(budget), eta, resolution)
        assert np.all(records.rho >= 0.0)
        off = records.lambda_0 + records.lambda_1
        _, row = np.unique(records.A, return_inverse=True)
        size = np.abs(records.a)
        widest = np.zeros(row.max() + 1)
        np.maximum.at(widest, row, size)
        at_end = size == widest[row]
        end_low = np.full(row.max() + 1, np.inf)
        np.minimum.at(end_low, row[at_end], off[at_end])
        assert np.count_nonzero(~at_end) > 0.9 * off.size
        assert np.all(off <= end_low[row] + 4.0 * np.spacing(end_low[row])), (alpha, eta)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0, 1e-8, 1e-9])
def test_row_end_search_covers_anchors_row_ends_and_every_row(alpha, monkeypatch):
    budget = EnergyBudget(alpha * alpha)
    real = geometry._quadrant_arrays
    for resolution in (2, 3, 16, 64, 200):
        seen = []
        monkeypatch.setattr(geometry, "_quadrant_arrays",
                            lambda *args: seen.append(args[:3]) or real(*args))
        geometry._largest_delta(budget, 0.5, 0.5, resolution)
        evaluated = set(zip(*(np.concatenate(part).tolist() for part in zip(*seen))))
        big_a, big_b, disp = geometry._grid_arrays(budget, resolution)
        grid = list(zip(big_a.tolist(), big_b.tolist(), disp.tolist()))
        assert evaluated <= set(grid), resolution
        widest = {}
        for x, _, z in grid:
            widest[x] = max(widest.get(x, 0.0), abs(z))
        ends = {p for p in grid if abs(p[2]) == widest[p[0]]}
        cand_a, _, cand_d = geometry._grid_candidates(budget, resolution, np.arange(resolution))
        anchors = {grid[k] for k, i in enumerate(geometry._first_of_each_key(cand_a, cand_d))
                   if i < 4}
        assert ends | anchors <= evaluated, resolution
        # every row reaches _quadrant_arrays, so none skips its physicality checks
        assert {p[0] for p in evaluated} == set(widest), resolution


def test_delta_star_without_a_source_link_is_the_membership_slack():
    # at eta = 0 the receiver sees only the jammer: rho = 0, every law is on
    # the q_0-q_1 edge, and what is left is MEMBERSHIP_ATOL's slack
    for alpha in (0.5, 1.0, 2.0):
        budget = EnergyBudget(alpha * alpha)
        records = sweep_records(budget, default_squeezing(budget), 0.0, 16)
        assert np.all(records.rho == 0.0)
        assert np.all(np.abs(records.lambda_c) <= 1e-15)
        delta = compute_delta_star(budget, default_squeezing(budget), 0.0)
        assert repr(delta) == "1.000000082740371e-10"
        assert delta == 1.0 - 1.0 / (1.0 + geometry.MEMBERSHIP_ATOL)


def test_closed_form_margin_matches_bisection_edge_cases():
    cases = [
        [(0.7, 0.2, 0.1), (0.5, 0.1, 0.4)],
        [(1.0, 0.0, 0.0), (1.0 - 4e-11, 2e-11, 2e-11)],  # every point at q_c
        [(0.9, 0.1, 0.0), (1.0 - 4e-11, 2e-11, 2e-11)],
        [(0.6, 0.4 + 5e-11, -5e-11)],  # slightly negative lambda_1
        [(0.6, 0.4 + 3e-10, -3e-10)],  # below -atol: no delta fits
        [(-5e-11, 0.5, 0.5 + 5e-11)],
        [(-3e-10, 0.5, 0.5 + 3e-10)],
    ]
    for lams in cases:
        coords = [SimplexCoords(*lam) for lam in lams]
        expected = largest_delta_bisection(coords)
        got = geometry._margin(*np.array(lams).T)
        # the bisection stops on a 2^-40 grid below the closed form's supremum
        assert expected <= got <= expected + 2.0 ** -40, (lams, got, expected)


def test_min_symplectic_eigenvalue_closed_form():
    rng = np.random.default_rng(57)
    cases = [(0.0, 0.5), (0.8, 0.0), (0.8, 1.0), (2.5, 1.0), (2.5, 0.999)]
    cases += [(rng.uniform(0.0, 2.0), rng.uniform(0.0, 1.0)) for _ in range(40)]
    for r, eta in cases:
        big_a = rng.uniform(0.05, 6.0, 5)
        big_b = 0.25 / big_a * rng.choice([1.0, 1.0, 3.0], 5)
        got, det_x, scale = geometry._min_symplectic_eigenvalue(big_a, big_b, r, eta)
        assert scale == 1.0 + (1.0 - eta) * math.cosh(2.0 * r)
        for i in range(5):
            state = mix_tmsv_with_jammer(r, eta, JammerGaussian(A=big_a[i], B=big_b[i]))
            assert got[i] == pytest.approx(symplectic_eigenvalues(state.cov).min(),
                                           abs=1e-12, rel=1e-12), (r, eta, big_a[i], big_b[i])
            x_block = state.cov[np.ix_([0, 2], [0, 2])]
            assert det_x[i] * scale == pytest.approx(np.linalg.det(x_block), abs=1e-12, rel=1e-9)


def test_batched_checks_reject_bad_states():
    ok_a, ok_b = np.array([0.5, 1.0]), np.array([0.5, 0.25])
    q, _ = geometry._quadrant_arrays(ok_a, ok_b, np.zeros(2), 0.5, 0.5)
    assert q.shape == (2, 2, 2)
    bad = [
        (np.array([0.5, 0.1]), np.array([0.5, 0.1]), np.zeros(2), 0.5, 0.0),  # AB < 1/4
        (np.array([0.5, np.nan]), ok_b, np.zeros(2), 0.5, 0.5),
        (ok_a, np.array([0.5, np.nan]), np.zeros(2), 0.5, 0.5),
        (ok_a, ok_b, np.array([0.0, np.nan]), 0.5, 0.5),
    ]
    for big_a, big_b, disp, r, eta in bad:
        with pytest.raises(ValueError):
            geometry._quadrant_arrays(big_a, big_b, disp, r, eta)
    off_hull = np.array([[[0.3, 0.1], [0.3, 0.3]]])
    with pytest.raises(ValueError, match="affine hull"):
        geometry._barycentric_arrays(off_hull)
    with pytest.raises(ValueError, match="affine hull"):
        geometry._barycentric_arrays(np.full((1, 2, 2), np.nan))
