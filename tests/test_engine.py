import math
import os
import re

import numpy as np
import pytest

from kacbath import (
    AngleDistribution,
    EnsembleConfig,
    GeneratorParams,
    InitialCondition,
    gaussian_initial_entropy,
    propagate_moments,
    simulate_ensemble,
    simulate_trajectory,
)
from kacbath.config import ExperimentConfig
from kacbath.engine import SimulationError, trajectory_rng
from kacbath.model import THERMAL_VARIANCE
from tests.conftest import raised_cosine
from tests.oracles import collide_pair_3d, gaussian_system_block_reference, rotate_pair_1d


def test_time_zero_snapshot_is_exact_initial_sample(params28, uniform_rho):
    init = InitialCondition.gaussian_product(0.4)
    snapshots = simulate_trajectory(params28, uniform_rho, init, [0.0], trajectory_rng(5, 0)).snapshots[0]
    expected = init.sample_system(params28, trajectory_rng(5, 0), 1)[0]
    assert np.array_equal(snapshots[0], expected)


def test_no_rates_means_frozen_state(uniform_rho):
    p = GeneratorParams(M=2, N=3, lambda_S=0.0, lambda_R=0.0, mu=0.0)
    init = InitialCondition.gaussian_product(0.4)
    traj = simulate_trajectory(p, uniform_rho, init, [0.0, 1.0, 5.0], trajectory_rng(6, 0))
    snapshots = traj.snapshots[0]
    assert np.array_equal(snapshots[0], snapshots[1])
    assert np.array_equal(snapshots[0], snapshots[2])
    assert traj.counts[0].sum() == 0


@pytest.mark.parametrize("d", [1, 3])
def test_trajectory_is_the_one_trajectory_ensemble_bit_for_bit(d, uniform_rho):
    p = GeneratorParams(M=2, N=8, lambda_S=1.0, lambda_R=1.0, mu=1.0, dimension=d)
    rho = uniform_rho if d == 1 else None
    init = InitialCondition.gaussian_product(0.4)
    grid = (0.0, 0.5, 2.0, 3.0)
    traj = simulate_trajectory(p, rho, init, grid, trajectory_rng(58, 0))
    ens = simulate_ensemble(p, rho, init, EnsembleConfig(n_traj=1, t_grid=grid, seed=58, record=("energies",)))
    assert ens.counts.sum() > 0
    for name in ("snapshots", "counts", "energies"):
        assert getattr(traj, name).tobytes() == getattr(ens, name).tobytes()
        assert getattr(traj, name).shape == getattr(ens, name).shape
    assert np.array_equal(traj.t_grid, ens.t_grid)


@pytest.mark.parametrize("grid", [(0.5, 1.0), (0.0, math.inf), (0.0, math.nan), (0.0, 1.0, 1.0), ()])
def test_trajectory_grid_follows_the_ensemble_rule(params28, uniform_rho, grid):
    with pytest.raises(ValueError, match="t_grid"):
        EnsembleConfig(n_traj=1, t_grid=grid, seed=1)
    with pytest.raises(ValueError, match="t_grid"):
        simulate_trajectory(params28, uniform_rho, InitialCondition.thermal(), grid, trajectory_rng(1, 0))


def test_fast_coupling_reaches_equipartition(uniform_rho):
    # single system particle against one bath particle with fast cross collisions
    p = GeneratorParams(M=1, N=1, lambda_S=0.0, lambda_R=0.0, mu=50.0)
    s = 1.0 / math.pi
    init = InitialCondition.gaussian_product(s)
    cfg = EnsembleConfig(n_traj=40000, t_grid=(0.0, 5.0), seed=77)
    res = simulate_ensemble(p, uniform_rho, init, cfg)
    target = (s * 2 * math.pi + 1.0) / (4.0 * math.pi)  # equal split of the mean energy
    pred = propagate_moments(init.initial_moments(p), 5.0, p, uniform_rho)
    assert pred.m1 == pytest.approx(target, rel=1e-10)
    _, mean, se, _ = res.moment_rows()[1]
    assert abs(mean - target) < 4 * se


def test_ensemble_reproducible_across_workers(params28, uniform_rho):
    init = InitialCondition.gaussian_product(0.3)
    cfg = EnsembleConfig(n_traj=3000, t_grid=(0.0, 0.5, 1.0), seed=123, record=("system_velocities", "energies"))
    serial = simulate_ensemble(params28, uniform_rho, init, cfg, workers=1)
    parallel = simulate_ensemble(params28, uniform_rho, init, cfg, workers=4)
    assert np.array_equal(serial.snapshots, parallel.snapshots)
    assert np.array_equal(serial.counts, parallel.counts)
    assert np.array_equal(serial.energies, parallel.energies)


def test_energy_conservation_along_trajectories(params28, uniform_rho):
    init = InitialCondition.gaussian_product(0.5)
    worst = 0.0
    for i in range(100):
        energies = simulate_trajectory(
            params28, uniform_rho, init, [0.0, 1.0, 3.0, 10.0], trajectory_rng(31, i)
        ).energies[0]
        e0 = energies[0]
        worst = max(worst, float(np.max(np.abs(energies - e0)) / e0))
    assert worst <= 1e-10


def test_collision_count_means(params28, uniform_rho):
    init = InitialCondition.thermal()
    t_end = 2.0
    cfg = EnsembleConfig(n_traj=20000, t_grid=(0.0, t_end), seed=40)
    res = simulate_ensemble(params28, uniform_rho, init, cfg)
    expected = np.array(params28.kind_rates) * t_end
    means = res.counts.mean(axis=0)
    # counts are Poisson: var = mean
    for got, lam in zip(means, expected):
        se = math.sqrt(lam / cfg.n_traj)
        assert abs(got - lam) < 4 * se


def test_exchangeability_of_system_labels(params28, uniform_rho):
    # permuting which particle carries the mean shift leaves symmetric statistics alone
    cfg = EnsembleConfig(n_traj=20000, t_grid=(0.0, 1.0), seed=41)
    res_a = simulate_ensemble(
        params28, uniform_rho, InitialCondition.shifted_gaussian([0.8, 0.0]), cfg
    )
    res_b = simulate_ensemble(
        params28, uniform_rho, InitialCondition.shifted_gaussian([0.0, 0.8]), cfg
    )
    stat_a = np.sum(res_a.cloud(1) ** 2, axis=1)
    stat_b = np.sum(res_b.cloud(1) ** 2, axis=1)
    se = math.sqrt(stat_a.var() / len(stat_a) + stat_b.var() / len(stat_b))
    assert abs(stat_a.mean() - stat_b.mean()) < 4 * se


def test_thermal_initial_state_is_stationary(params28, uniform_rho):
    cfg = EnsembleConfig(n_traj=30000, t_grid=(0.0, 1.0, 3.0), seed=42)
    res = simulate_ensemble(params28, uniform_rho, InitialCondition.thermal(), cfg)
    clouds = [res.cloud(i) for i in range(3)]
    for power in (2, 4):
        stats = [np.mean(c ** power, axis=1) for c in clouds]
        base = stats[0]
        for later in stats[1:]:
            se = math.sqrt(base.var() / len(base) + later.var() / len(later))
            assert abs(base.mean() - later.mean()) < 4 * se


def test_moment_decay_matches_oracle(params28, uniform_rho):
    init = InitialCondition.gaussian_product(1.0 / math.pi)
    cfg = EnsembleConfig(n_traj=20000, t_grid=(0.0, 0.5, 1.0, 2.0), seed=43)
    res = simulate_ensemble(params28, uniform_rho, init, cfg)
    m0 = init.initial_moments(params28)
    for t, mean, se, _ in res.moment_rows():
        pred = propagate_moments(m0, t, params28, uniform_rho)
        assert abs(mean - pred.m1) < 4 * se


def test_moment_decay_matches_oracle_3d():
    p = GeneratorParams(M=1, N=2, lambda_S=0.0, lambda_R=1.0, mu=1.0, dimension=3)
    init = InitialCondition.gaussian_product(1.0 / math.pi)
    cfg = EnsembleConfig(n_traj=20000, t_grid=(0.0, 1.0, 3.0), seed=44)
    res = simulate_ensemble(p, None, init, cfg)
    m0 = init.initial_moments(p)
    for t, mean, se, _ in res.moment_rows():
        pred = propagate_moments(m0, t, p)
        assert abs(mean - pred.m1) < 4 * se


def test_two_temperature_variances(params28):
    init = InitialCondition.two_temperature(0.5, 0.1)
    var = init.gaussian(params28)[1]
    assert var.tolist() == [0.5, 0.1]
    m0 = init.initial_moments(params28)
    assert m0.m1 == pytest.approx(0.3)
    assert m0.m2 == pytest.approx(THERMAL_VARIANCE)


@pytest.mark.parametrize("build", [
    lambda: InitialCondition.gaussian_product(math.nan),
    lambda: InitialCondition.gaussian_product(0.0),
    lambda: InitialCondition.two_temperature(1e300, 0.1),
    lambda: InitialCondition.two_temperature(0.5, -0.1),
    lambda: InitialCondition.shifted_gaussian([math.inf, 0.0]),
    lambda: InitialCondition.shifted_gaussian([0.0, 0.0], s=math.nan),
], ids=["s-nan", "s-zero", "s_hot-1e300", "cold-negative", "mean-inf", "shifted-s-nan"])
def test_initial_condition_rejects_bad_variances_and_means(build):
    with pytest.raises(ValueError, match="initial"):
        build()


def test_initial_condition_accepts_the_scale_cap():
    from kacbath.engine import MAX_INITIAL_SCALE

    init = InitialCondition.two_temperature(MAX_INITIAL_SCALE, 0.1)
    assert init.s_hot == MAX_INITIAL_SCALE and init.s == 0.1
    assert InitialCondition.shifted_gaussian([-MAX_INITIAL_SCALE, 0.0]).mean == (-MAX_INITIAL_SCALE, 0.0)


def _zero_block(params, rng):
    return np.zeros(params.dimension * params.M)


@pytest.mark.parametrize("fields", [
    {"n_hot": 2},
    {"s_hot": 1.0, "n_hot": 1.5},
    {"s_hot": 1.0, "n_hot": True},
    {"s_hot": 1.0, "n_hot": -1},
    {"sampler": _zero_block, "s_hot": 3.0, "mean": (1.0, 1.0)},
    {"sampler": _zero_block, "mean": (0.0, 0.0)},
    {"sampler": _zero_block, "s": 0.4},
    {"sampler": _zero_block, "n_hot": 1},
], ids=["n_hot-without-s_hot", "n_hot-fraction", "n_hot-bool", "n_hot-negative",
        "sampler-with-s_hot-and-mean", "sampler-with-mean", "sampler-with-s", "sampler-with-n_hot"])
def test_initial_condition_rejects_fields_its_law_ignores(fields):
    with pytest.raises(ValueError, match="n_hot|sampler"):
        InitialCondition(**fields)


def test_initial_condition_keeps_valid_n_hot_and_sampler(params28):
    assert InitialCondition(s_hot=1.0, n_hot=np.int64(1)).gaussian(params28)[1].tolist() == [1.0, THERMAL_VARIANCE]
    init = InitialCondition.custom(_zero_block)
    assert np.array_equal(init.sample_system(params28, trajectory_rng(1, 0), 1)[0], np.zeros(2))


@pytest.mark.parametrize("init, message", [
    (InitialCondition.two_temperature(1.0, 0.1, n_hot=3), "n_hot must be in 0..2, got 3"),
    (InitialCondition.shifted_gaussian([0.0]), "mean must have length 2"),
], ids=["n_hot-3", "mean-length-1"])
def test_law_that_does_not_fit_params_fails_alike_for_every_reader(init, message, params28, uniform_rho):
    readers = {
        "sample_system": lambda: init.sample_system(params28, trajectory_rng(1, 0), 1),
        "initial_moments": lambda: init.initial_moments(params28),
        "gaussian_initial_entropy": lambda: gaussian_initial_entropy(init, params28),
        "simulate_ensemble": lambda: simulate_ensemble(params28, uniform_rho, init,
                                                       EnsembleConfig(n_traj=4, t_grid=(0.0,), seed=1)),
        "ExperimentConfig": lambda: ExperimentConfig(params=params28, rho=uniform_rho, initial=init, config_hash=""),
    }
    for name, read in readers.items():
        with pytest.raises(ValueError, match=re.escape(message)):
            read()
            pytest.fail(f"{name} accepted a law that does not fit params")


@pytest.mark.parametrize("dimension", [1, 3])
@pytest.mark.parametrize("kind, law, fields", [
    ("thermal", {}, {}),
    ("gaussian_product", {"s": 0.4}, {"s": 0.4}),
    ("two_temperature", {"s_hot": 0.5, "s_cold": 0.1}, {"s": 0.1, "s_hot": 0.5}),
    ("two_temperature", {"s_hot": 0.5, "s_cold": 0.1, "n_hot": 0}, {"s": 0.1, "s_hot": 0.5, "n_hot": 0}),
    ("two_temperature", {"s_hot": 0.5, "s_cold": 0.1, "n_hot": 3}, {"s": 0.1, "s_hot": 0.5, "n_hot": 3}),
    ("shifted_gaussian", {"mean": [0.8, -0.2, 0.1] * 3, "s": 0.2}, {"mean": [0.8, -0.2, 0.1] * 3, "s": 0.2}),
], ids=["thermal", "gaussian_product", "two_temperature", "n_hot-0", "n_hot-3", "shifted_gaussian"])
def test_gaussian_initial_draw_matches_per_kind_formula(kind, law, fields, dimension):
    """Each constructor is the five-field law it names, and draws the per-kind formula's bits."""
    p = GeneratorParams(M=3, N=4, lambda_S=1.0, lambda_R=1.0, mu=1.0, dimension=dimension)
    law = {key: value[: 3 * dimension] if key == "mean" else value for key, value in law.items()}
    fields = {key: tuple(law["mean"]) if key == "mean" else value for key, value in fields.items()}
    init = getattr(InitialCondition, kind)(**law)
    assert init == InitialCondition(**fields)
    expected = gaussian_system_block_reference(kind, p, trajectory_rng(71, 0), 257, **law)
    assert init.sample_system(p, trajectory_rng(71, 0), 257).tobytes() == expected.tobytes()


def test_custom_sampler_and_nan_abort(params28, uniform_rho):
    def bad_sampler(params, rng):
        return np.array([math.inf, 0.0])

    init = InitialCondition.custom(bad_sampler)
    with pytest.raises(SimulationError):
        simulate_trajectory(params28, uniform_rho, init, [0.0], trajectory_rng(50, 0))
    with pytest.raises(ValueError):
        init.initial_moments(params28)
    with pytest.raises(ValueError, match="custom initial law"):
        init.gaussian(params28)


def test_custom_sampler_of_the_wrong_shape_raises(params28, uniform_rho):
    init = InitialCondition.custom(lambda params, rng: np.zeros(3))
    message = "custom sampler returned a wrong-shaped system block"
    with pytest.raises(ValueError, match=message):
        init.sample_system(params28, trajectory_rng(1, 0), 4)
    with pytest.raises(ValueError, match=message):
        simulate_ensemble(params28, uniform_rho, init, EnsembleConfig(n_traj=4, t_grid=(0.0,), seed=1))


def test_engine_needs_rho_in_dimension_1(params28):
    init = InitialCondition.thermal()
    with pytest.raises(ValueError, match="an angle distribution is required in dimension 1"):
        simulate_trajectory(params28, None, init, [0.0, 1.0], trajectory_rng(52, 0))


def test_ensemble_config_validation():
    with pytest.raises(ValueError):
        EnsembleConfig(n_traj=0, t_grid=(0.0,), seed=1)
    with pytest.raises(ValueError):
        EnsembleConfig(n_traj=5, t_grid=(0.5, 1.0), seed=1)
    with pytest.raises(ValueError):
        EnsembleConfig(n_traj=5, t_grid=(0.0, 1.0, 1.0), seed=1)
    with pytest.raises(ValueError):
        EnsembleConfig(n_traj=5, t_grid=(0.0, 1.0), seed=1, record=("nonsense",))


@pytest.mark.parametrize("n_traj", [2.5, True, 3.0])
def test_ensemble_config_needs_an_integer_n_traj(n_traj):
    with pytest.raises(ValueError, match="n_traj"):
        EnsembleConfig(n_traj=n_traj, t_grid=(0.0, 1.0), seed=1)
    assert EnsembleConfig(n_traj=np.int64(3), t_grid=(0.0, 1.0), seed=1).n_traj == 3


@pytest.mark.parametrize("seed", [2.5, True, "7"])
def test_ensemble_config_needs_an_integer_seed(seed):
    with pytest.raises(ValueError, match="seed"):
        EnsembleConfig(n_traj=3, t_grid=(0.0, 1.0), seed=seed)


def test_trajectory_accessors(params28, uniform_rho):
    init = InitialCondition.gaussian_product(0.3)
    cfg = EnsembleConfig(
        n_traj=10, t_grid=(0.0, 1.0), seed=9, record=("system_velocities", "energies")
    )
    res = simulate_ensemble(params28, uniform_rho, init, cfg)
    assert res.snapshots[3].shape == (2, 2)
    assert res.counts[3].shape == (3,)
    assert res.cloud(1).shape == (10, 2)
    rows = res.moment_rows()
    assert rows[0][0] == 0.0 and rows[0][3] == 10


# ------------------------------------------------------ lockstep kernel


def test_energy_drift_beyond_tolerance_raises(params28, uniform_rho, monkeypatch):
    from kacbath import engine

    monkeypatch.setattr(engine, "ENERGY_DRIFT_TOL", -1.0)
    init = InitialCondition.gaussian_product(0.4)
    with pytest.raises(SimulationError, match="energy drift"):
        simulate_trajectory(params28, uniform_rho, init, [0.0, 1.0], trajectory_rng(51, 0))
    cfg = EnsembleConfig(n_traj=50, t_grid=(0.0, 1.0), seed=51)
    with pytest.raises(SimulationError, match="energy drift"):
        simulate_ensemble(params28, uniform_rho, init, cfg)


def test_shared_kernel_matches_scalar_collisions():
    from kacbath.model import collide, uniform_sphere

    rng = trajectory_rng(52, 0)
    batch, n = 64, 5
    i = rng.integers(0, n - 1, batch)
    j = i + 1 + (rng.random(batch) * (n - 1 - i)).astype(np.int64)
    thetas = rng.uniform(-math.pi, math.pi, batch)
    z1 = rng.normal(size=(batch, n))
    state = np.ascontiguousarray(z1.T).reshape(n, 1, 1, batch)
    collide(state, np.arange(batch), i, j, np.stack([np.cos(thetas), np.sin(thetas)]))
    for b in range(batch):
        expected = rotate_pair_1d(z1[b], int(i[b]) + 1, int(j[b]) + 1, thetas[b])
        assert np.array_equal(state[..., b].ravel(), expected)
    axes = uniform_sphere(rng, batch)
    z3 = rng.normal(size=(batch, n, 3))
    state = np.ascontiguousarray(z3.transpose(1, 2, 0)).reshape(n, 3, 1, batch)
    collide(state, np.arange(batch), i, j, axes.T)
    for b in range(batch):
        expected = collide_pair_3d(z3[b], int(i[b]) + 1, int(j[b]) + 1, axes[b])
        assert np.max(np.abs(state[..., b].reshape(n, 3) - expected)) < 1e-14


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("shape", ["engine", "word"])
def test_shared_kernel_is_the_written_out_formula_bit_for_bit(d, shape):
    # engine: one column, a strided column slice of a compact (2 or 3, steps*m) parameter
    # view; word: d*M columns.  The first 16 lanes do not collide.
    from kacbath.model import collide, uniform_sphere

    rng = trajectory_rng(54, d)
    n, batch, steps, r = 5, 257, 4, 1 if shape == "engine" else 2 * d
    i = rng.integers(0, n - 1, batch)
    j = i + 1 + (rng.random(batch) * (n - 1 - i)).astype(np.int64)
    if d == 1:
        thetas = rng.uniform(-math.pi, math.pi, batch)
        drawn = np.stack([np.cos(thetas), np.sin(thetas)])
    else:
        drawn = uniform_sphere(rng, batch).T.copy()
    lanes, i, j, drawn = np.arange(16, batch), i[16:], j[16:], drawn[:, 16:]
    m = len(lanes)
    if shape == "engine":
        table = np.zeros((steps * m, len(drawn)))
        table[2 * m:3 * m] = drawn.T
        param = table.T[:, 2 * m:3 * m]
    else:
        param = drawn
    z = rng.normal(size=(n, d, r, batch))
    before = z.copy()
    collide(z, lanes, i, j, param)
    zi, zj = before[i, :, :, lanes], before[j, :, :, lanes]  # (batch, d, r)
    p = drawn.T[:, :, None]
    expected = before.copy()
    if d == 1:
        c, s = p[:, 0:1], p[:, 1:2]
        expected[i, :, :, lanes] = c * zi + s * zj
        expected[j, :, :, lanes] = c * zj - s * zi
    else:
        x = zi - zj
        g = ((p[:, 0] * x[:, 0] + p[:, 1] * x[:, 1]) + p[:, 2] * x[:, 2])[:, None, :]
        expected[i, :, :, lanes] = zi - p * g
        expected[j, :, :, lanes] = zj + p * g
    assert np.array_equal(z, expected)
    assert np.array_equal(z[..., :16], before[..., :16])


@pytest.mark.parametrize("d, r", [(1, 1), (1, 2), (3, 1), (3, 6)])
def test_shared_kernel_on_lane_subset_is_the_all_lanes_call_there(d, r):
    from kacbath.model import collide, uniform_sphere

    rng = trajectory_rng(56, 2 * d + r)
    n, batch = 5, 203
    i = rng.integers(0, n - 1, batch)
    j = i + 1 + (rng.random(batch) * (n - 1 - i)).astype(np.int64)
    if d == 1:
        thetas = rng.uniform(-math.pi, math.pi, batch)
        param = np.stack([np.cos(thetas), np.sin(thetas)])
    else:
        param = uniform_sphere(rng, batch).T.copy()
    z = rng.normal(size=(n, d, r, batch))
    order = rng.permutation(batch)
    lanes, others = order[:120], order[120:]
    z[:2, :, :, others[:5]] = -0.0  # exact zeros of either sign keep their bits off the given lanes
    full = z.copy()
    collide(full, np.arange(batch), i, j, param)
    part = z.copy()
    collide(part, lanes, i[lanes], j[lanes], param[:, lanes])
    bits = lambda a: a.view(np.uint64)
    assert np.array_equal(bits(part[..., lanes]), bits(full[..., lanes]))
    assert np.array_equal(bits(part[..., others]), bits(z[..., others]))


def test_lockstep_updates_exactly_one_lane_per_event(uniform_rho, monkeypatch):
    from kacbath import engine

    kernel, updated = engine.collide, []

    def counting(z, *args):
        updated.append(len(args[0]))  # the lanes of one call
        kernel(z, *args)

    monkeypatch.setattr(engine, "collide", counting)
    for p, rho in ((GeneratorParams(M=2, N=8, lambda_S=1.0, lambda_R=1.0, mu=1.0), uniform_rho),
                   (GeneratorParams(M=1, N=5, lambda_S=0.0, lambda_R=1.0, mu=1.0, dimension=3), None)):
        updated.clear()
        cfg = EnsembleConfig(n_traj=300, t_grid=(0.0, 0.5, 2.0), seed=57)
        res = simulate_ensemble(p, rho, InitialCondition.gaussian_product(0.3), cfg)
        assert res.counts.sum() > 0
        assert sum(updated) == res.counts.sum()


def test_shared_kernel_on_identity_reproduces_word_inverses():
    from kacbath.model import collide
    from kacbath.words import realize_inverse_1d, realize_inverse_3d

    n = 4
    i0 = np.array([0, 1, 0, 2, 1])
    j0 = np.array([2, 3, 1, 3, 2])
    thetas = np.array([0.3, -1.7, 2.5, 0.9, -0.4])
    axes = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8], [0.48, 0.6, 0.64], [0.0, 0.0, -1.0], [0.6, -0.8, 0.0]])
    z = trajectory_rng(53, 0).normal(size=3 * n)
    for d, params, inverse, oracle in (
        (1, np.stack([np.cos(thetas), -np.sin(thetas)]), realize_inverse_1d(i0, j0, thetas, n)[0],
         lambda out, i, j, e: rotate_pair_1d(out, i, j, thetas[e])),
        (3, axes.T, realize_inverse_3d(i0[None], j0[None], axes[None], n)[0],
         lambda out, i, j, e: collide_pair_3d(out.reshape(n, 3), i, j, axes[e]).ravel()),
    ):
        w = np.eye(d * n)[:, :, None].copy()
        for e in range(len(i0)):
            collide(w.reshape(n, d, d * n, 1), np.zeros(1, dtype=np.int64), i0[e:e + 1], j0[e:e + 1],
                    params[:, e:e + 1])
        assert np.array_equal(w[..., 0], inverse)
        # the word's matrix is the product in word order, so its last collision
        # acts first; the inverse matrix undoes that
        out = z[: d * n].copy()
        for e in reversed(range(len(i0))):
            out = oracle(out, int(i0[e]) + 1, int(j0[e]) + 1, e)
        assert np.max(np.abs(w[..., 0] @ out - z[: d * n])) < 1e-14


def test_window_without_events_keeps_state_bit_identical(params28, uniform_rho):
    from kacbath.engine import _CHUNK

    init = InitialCondition.gaussian_product(0.4)
    cfg = EnsembleConfig(n_traj=_CHUNK, t_grid=(0.0, 0.05, 0.1),
                         seed=54, record=("system_velocities", "energies"))
    res = simulate_ensemble(params28, uniform_rho, init, cfg)
    # replay the chunk's Poisson draw: system block, bath block, then the counts
    rng = trajectory_rng(54, 0)
    init.sample_system(params28, rng, _CHUNK)
    rng.normal(size=(_CHUNK, params28.N))
    windows = np.diff([0.0, 0.0, 0.05, 0.1])
    n_events = rng.poisson(params28.total_rate * windows, size=(_CHUNK, 3))
    assert np.array_equal(res.counts.sum(axis=1), n_events.sum(axis=1))
    quiet = n_events[:, 2] == 0
    busy = n_events[:, 1] > 0
    assert quiet.any() and busy.any()
    assert np.array_equal(res.snapshots[quiet, 2], res.snapshots[quiet, 1])
    assert np.array_equal(res.energies[quiet, 2], res.energies[quiet, 1])
    assert not np.array_equal(res.snapshots[busy, 1], res.snapshots[busy, 0])


@pytest.mark.parametrize("dimension", [1, 3])
def test_ensemble_spanning_three_chunks_identical_across_workers(dimension, uniform_rho, monkeypatch):
    from kacbath.engine import _CHUNK

    def no_fork():
        raise AssertionError("the ensemble forked a process")

    monkeypatch.setattr(os, "fork", no_fork)  # workers are threads

    p = GeneratorParams(M=2, N=3, lambda_S=1.0, lambda_R=1.0, mu=1.0, dimension=dimension)
    rho = uniform_rho if dimension == 1 else None
    init = InitialCondition.gaussian_product(0.3)
    cfg = EnsembleConfig(n_traj=2 * _CHUNK + 17, t_grid=(0.0, 0.5, 1.0), seed=55,
                         record=("system_velocities", "energies"))
    serial = simulate_ensemble(p, rho, init, cfg, workers=1)
    parallel = simulate_ensemble(p, rho, init, cfg, workers=2)
    assert serial.snapshots.shape == (2 * _CHUNK + 17, 3, 2 * dimension)
    assert serial.snapshots.tobytes() == parallel.snapshots.tobytes()
    assert serial.counts.tobytes() == parallel.counts.tobytes()
    assert serial.energies.tobytes() == parallel.energies.tobytes()


def test_chunks_write_their_own_rows_under_thread_stress(uniform_rho, monkeypatch):
    """More worker threads than cores, switching often: every chunk's rows equal the serial run's."""
    import sys

    from kacbath import engine

    monkeypatch.setattr(engine.os, "cpu_count", lambda: 8)
    p = GeneratorParams(M=1, N=2, lambda_S=0.0, lambda_R=1.0, mu=1.0)
    cfg = EnsembleConfig(n_traj=7 * engine._CHUNK + 3, t_grid=(0.0, 0.5), seed=63,
                         record=("system_velocities", "energies"))
    init = InitialCondition.gaussian_product(0.3)
    serial = simulate_ensemble(p, uniform_rho, init, cfg, workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel = simulate_ensemble(p, uniform_rho, init, cfg, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert _ensemble_bytes(serial) == _ensemble_bytes(parallel)
    assert serial.energies.tobytes() == parallel.energies.tobytes()
    assert parallel.counts.sum() > 0


def _ensemble_bytes(result):
    return result.snapshots.tobytes(), result.counts.tobytes()


def test_unpicklable_custom_sampler_runs_on_two_workers(params28, uniform_rho):
    from kacbath.engine import _CHUNK

    init = InitialCondition.custom(lambda params, rng: rng.normal(size=2) * 0.5)
    cfg = EnsembleConfig(n_traj=_CHUNK + 5, t_grid=(0.0, 0.5), seed=61)
    serial = simulate_ensemble(params28, uniform_rho, init, cfg, workers=1)
    parallel = simulate_ensemble(params28, uniform_rho, init, cfg, workers=2)
    assert _ensemble_bytes(serial) == _ensemble_bytes(parallel)


def test_nan_sampler_aborts_on_two_workers(params28, uniform_rho):
    from kacbath.engine import _CHUNK

    init = InitialCondition.custom(lambda params, rng: np.array([math.nan, 0.0]))
    cfg = EnsembleConfig(n_traj=_CHUNK + 5, t_grid=(0.0, 0.5), seed=62)
    with pytest.raises(SimulationError):
        simulate_ensemble(params28, uniform_rho, init, cfg, workers=2)


def test_density_table_ensemble_identical_across_workers(params28):
    from kacbath.engine import _CHUNK

    thetas = np.linspace(-math.pi, math.pi, 401)

    def rho():  # a fresh law each run, so two worker threads may both build its inverse-CDF table
        return AngleDistribution.from_table(thetas, raised_cosine(thetas))

    init = InitialCondition.gaussian_product(0.3)
    cfg = EnsembleConfig(n_traj=2 * _CHUNK + 9, t_grid=(0.0, 0.5), seed=64)
    serial = simulate_ensemble(params28, rho(), init, cfg, workers=1)
    parallel = simulate_ensemble(params28, rho(), init, cfg, workers=2)
    assert _ensemble_bytes(serial) == _ensemble_bytes(parallel)
