"""Event-driven simulation of trajectory ensembles.

The dynamics is a pure jump process: waiting times are exponential in the
total rate, so the state at the observation times is produced exactly by
drawing the Poisson number of collisions per observation window and applying
that many i.i.d. pair collisions in sequence.  No time discretization error
exists; Monte Carlo error is the only error source.

Trajectories run in lockstep, _CHUNK at a time: collision e of every
trajectory in a window is one batched call of `model.collide` on the lanes
of the trajectories that have an e-th collision there; the others are not
touched.  The chunk's state is one (d(M+N), B) array with the trajectory
axis last, the layout `collide` takes.  Energy is checked per trajectory at
every observation time.

Reproducibility: chunk c of a run with seed s draws everything from the
counter-based Philox stream keyed by (s, c), so results are bit-identical for
any number of worker threads, and aggregation follows trajectory order.
Outputs for a seed differ from kacbath 0.1.0, which keyed one stream per
trajectory.
"""
from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import numpy.random

from .model import (
    THERMAL_VARIANCE,
    AngleDistribution,
    GeneratorParams,
    collide,
    sample_collisions,
)
from .moments import MomentPair

ENERGY_DRIFT_TOL = 1e-10
_CHUNK = 2048
_BLOCK_SLOTS = 2 ** 14  # collision slots (steps x trajectories) drawn at once; bounds peak memory
_BOOTSTRAP_KEY_OFFSET = 2 ** 63  # separates estimator streams from trajectory streams


class SimulationError(RuntimeError):
    """State became non-finite, or energy drifted, during a trajectory."""


def trajectory_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for one unit of work: Philox keyed by (seed, index)."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, index & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def estimator_rng(seed: int, index: int) -> np.random.Generator:
    """Stream for resampling procedures, disjoint from trajectory streams."""
    return trajectory_rng(seed, _BOOTSTRAP_KEY_OFFSET + index)


@dataclass(frozen=True)
class InitialCondition:
    """Initial law of the system block; the bath always starts thermal."""

    kind: str
    s: float = THERMAL_VARIANCE
    mean: tuple[float, ...] | None = None
    s_hot: float | None = None
    s_cold: float | None = None
    n_hot: int | None = None
    sampler: Callable | None = None

    @classmethod
    def thermal(cls) -> "InitialCondition":
        return cls(kind="gaussian_product", s=THERMAL_VARIANCE)

    @classmethod
    def gaussian_product(cls, s: float) -> "InitialCondition":
        if s <= 0:
            raise ValueError("variance must be positive")
        return cls(kind="gaussian_product", s=s)

    @classmethod
    def two_temperature(cls, s_hot: float, s_cold: float, n_hot: int | None = None) -> "InitialCondition":
        if s_hot <= 0 or s_cold <= 0:
            raise ValueError("variances must be positive")
        return cls(kind="two_temperature", s_hot=s_hot, s_cold=s_cold, n_hot=n_hot)

    @classmethod
    def shifted_gaussian(cls, mean: Sequence[float], s: float = THERMAL_VARIANCE) -> "InitialCondition":
        if s <= 0:
            raise ValueError("variance must be positive")
        return cls(kind="shifted_gaussian", s=s, mean=tuple(float(x) for x in mean))

    @classmethod
    def custom(cls, sampler: Callable) -> "InitialCondition":
        return cls(kind="custom", sampler=sampler)

    def _hot_count(self, params: GeneratorParams) -> int:
        hot = self.n_hot if self.n_hot is not None else (params.M + 1) // 2
        if not 0 <= hot <= params.M:
            raise ValueError(f"n_hot must be in 0..{params.M}, got {hot}")
        return hot

    def system_variances(self, params: GeneratorParams) -> np.ndarray:
        """Per-coordinate variances of the system block (analytic kinds only)."""
        d, M = params.dimension, params.M
        if self.kind == "gaussian_product" or self.kind == "shifted_gaussian":
            return np.full(d * M, self.s)
        if self.kind == "two_temperature":
            hot = self._hot_count(params)
            out = np.full(d * M, self.s_cold)
            out[: d * hot] = self.s_hot
            return out
        raise ValueError(f"no analytic variances for kind {self.kind!r}")

    def system_means(self, params: GeneratorParams) -> np.ndarray:
        d, M = params.dimension, params.M
        if self.kind == "shifted_gaussian":
            mean = np.asarray(self.mean, dtype=float)
            if mean.shape != (d * M,):
                raise ValueError(f"mean must have length {d * M}")
            return mean
        if self.kind in ("gaussian_product", "two_temperature"):
            return np.zeros(d * M)
        raise ValueError(f"no analytic means for kind {self.kind!r}")

    def initial_moments(self, params: GeneratorParams) -> MomentPair:
        """Mean per-coordinate second moments (system, bath) for the oracle."""
        var = self.system_variances(params)
        mean = self.system_means(params)
        return MomentPair(float(np.mean(var + mean ** 2)), THERMAL_VARIANCE)

    def sample_system(
        self, params: GeneratorParams, rng: np.random.Generator, size: int | None = None
    ) -> np.ndarray:
        """One system block of shape (d*M,), or `size` of them stacked as (size, d*M)."""
        dm = params.dimension * params.M
        if self.kind == "custom":
            if size is not None:
                return np.stack([self.sample_system(params, rng) for _ in range(size)])
            out = np.asarray(self.sampler(params, rng), dtype=float)
            if out.shape != (dm,):
                raise ValueError("custom sampler returned a wrong-shaped system block")
            return out
        shape = dm if size is None else (size, dm)
        return self.system_means(params) + rng.normal(size=shape) * np.sqrt(self.system_variances(params))


@dataclass(frozen=True)
class EnsembleConfig:
    """Size, observation grid, seed, and which observables to keep."""

    n_traj: int
    t_grid: tuple[float, ...]
    seed: int
    record: tuple[str, ...] = ("system_velocities",)

    def __post_init__(self):
        if self.n_traj < 1:
            raise ValueError("n_traj must be >= 1")
        grid = np.asarray(self.t_grid, dtype=float)
        if not np.all(np.isfinite(grid)):
            raise ValueError("t_grid must be finite")
        if len(grid) < 1 or grid[0] != 0.0 or np.any(np.diff(grid) <= 0):
            raise ValueError("t_grid must start at 0 and be strictly increasing")
        known = {"system_velocities", "energies"}
        unknown = set(self.record) - known
        if unknown:
            raise ValueError(f"unknown record keys: {sorted(unknown)}")


@dataclass(frozen=True)
class Trajectory:
    """Snapshots of the system block plus per-kind collision counts."""

    t_grid: np.ndarray
    snapshots: np.ndarray  # (n_times, d*M)
    counts: np.ndarray  # (3,) system/bath/cross collision totals
    energies: np.ndarray | None = None

    def __post_init__(self):
        if len(self.snapshots) != len(self.t_grid):
            raise ValueError("one snapshot per observation time required")


def simulate_trajectory(
    params: GeneratorParams,
    rho: AngleDistribution | None,
    init: InitialCondition,
    t_grid: Sequence[float],
    rng: np.random.Generator,
    record_energies: bool = True,
) -> Trajectory:
    """Evolve one trajectory, returning system snapshots at the given times.

    This is a lockstep run of one trajectory on `rng`; its first draw is the
    system block, so the t=0 snapshot equals `init.sample_system(params, rng)`.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if len(t_grid) < 1 or t_grid[0] < 0 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be nonnegative and strictly increasing")
    snaps, counts, energies = _simulate_lockstep(params, rho, init, t_grid, rng, 1, record_energies)
    return Trajectory(t_grid, snaps[0], counts[0], energies[0] if record_energies else None)


def _simulate_lockstep(params, rho, init, t_grid: np.ndarray, rng, size: int, record_energies: bool):
    """Evolve `size` trajectories together on one stream.

    Draws, in order: system blocks, bath blocks, Poisson counts per window,
    then per window and per block of at most _BLOCK_SLOTS slots (steps x
    trajectories) the collisions that occur.  Returns snapshots (size,
    n_times, d*M), per-kind collision counts (size, 3) and energies (size,
    n_times) or None.
    """
    d, M, N = params.dimension, params.M, params.N
    lam = params.total_rate
    # one state (d(M+N), size), batch axis last as `collide` takes it
    state = np.empty((d * (M + N), size))
    state[: d * M] = init.sample_system(params, rng, size).T
    state[d * M:] = (rng.normal(size=(size, d * N)) * math.sqrt(THERMAL_VARIANCE)).T
    blocks = state.reshape(M + N, d, 1, size)
    e0 = np.einsum("ib,ib->b", state, state)

    windows = np.diff(np.concatenate([[0.0], t_grid]))
    if lam > 0:
        n_events = rng.poisson(lam * windows, size=(size, len(windows)))
    else:
        n_events = np.zeros((size, len(windows)), dtype=np.int64)

    snapshots = np.empty((size, len(t_grid), d * M))
    counts = np.zeros((size, 3), dtype=np.int64)
    energies = np.empty((size, len(t_grid))) if record_energies else None
    block_steps = max(1, _BLOCK_SLOTS // size)
    for w, t in enumerate(t_grid):
        due = n_events[:, w]
        steps = int(due.max())
        for first in range(0, steps, block_steps):
            occurs = np.arange(first, min(first + block_steps, steps))[:, None] < due
            lanes, i, j, param, kinds = _draw_collisions(params, rho, rng, occurs)
            counts += np.bincount(3 * lanes + kinds, minlength=3 * size).reshape(size, 3)
            ends = np.cumsum(occurs.sum(axis=1)).tolist()
            for start, end in zip([0] + ends, ends):
                collide(blocks, lanes[start:end], i[start:end], j[start:end], param[:, start:end])
        snapshots[:, w] = state[: d * M].T
        energy = np.einsum("ib,ib->b", state, state)
        _check_energy(energy, e0, t)
        if record_energies:
            energies[:, w] = energy
    return snapshots, counts, energies


def _draw_collisions(params, rho, rng, occurs: np.ndarray):
    """Collisions for the True slots (step, trajectory) of `occurs`, shape (steps, B).

    They are drawn compact, in row-major order: pairs, then angles or axes.
    Returns the trajectory (lane), i and j, shape (m,), of each, the parameters
    (2 or 3, m) as `collide` takes them, and the kinds; step e's collisions are
    the e-th run of occurs.sum(axis=1) consecutive entries.
    """
    slots = np.flatnonzero(occurs)
    lanes = slots % occurs.shape[1]
    i, j, kinds, drawn = sample_collisions(params, rho, rng, len(slots))
    if params.dimension == 3:
        return lanes, i, j, drawn.T, kinds
    param = np.empty((2, len(slots)))  # cos and sin written in place: no stacking copy
    np.cos(drawn, out=param[0])
    np.sin(drawn, out=param[1])
    return lanes, i, j, param, kinds


def _check_energy(energy: np.ndarray, e0: np.ndarray, t: float) -> None:
    """Every energy finite and within ENERGY_DRIFT_TOL of its t=0 value, relatively."""
    if not np.all(np.isfinite(energy)):
        raise SimulationError(f"non-finite state at t={t} (energy {energy[~np.isfinite(energy)][0]!r})")
    drift = np.abs(energy - e0)
    if np.any(drift > ENERGY_DRIFT_TOL * e0):
        worst = float(np.max(drift / e0))
        raise SimulationError(f"relative energy drift {worst!r} at t={t} exceeds {ENERGY_DRIFT_TOL!r}")


@dataclass(frozen=True)
class EnsembleResult:
    """Stacked trajectory observables in trajectory order."""

    params: GeneratorParams
    t_grid: np.ndarray
    seed: int
    snapshots: np.ndarray  # (n_traj, n_times, d*M)
    counts: np.ndarray  # (n_traj, 3)
    energies: np.ndarray | None

    @property
    def n_traj(self) -> int:
        return self.snapshots.shape[0]

    def cloud(self, time_index: int) -> np.ndarray:
        """System velocity samples at one observation time, shape (n_traj, d*M)."""
        return self.snapshots[:, time_index, :]

    def moment_rows(self) -> list[tuple[float, float, float, int]]:
        """Rows (t, mean per-coordinate system second moment, std error, n)."""
        rows = []
        for ti, t in enumerate(self.t_grid):
            per_traj = np.mean(self.cloud(ti) ** 2, axis=1)
            mean = float(per_traj.mean())
            se = float(per_traj.std(ddof=1) / math.sqrt(self.n_traj)) if self.n_traj > 1 else 0.0
            rows.append((float(t), mean, se, self.n_traj))
        return rows


def _simulate_chunk(job) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    params, rho, init, t_grid, seed, index, size, record_energies = job
    return _simulate_lockstep(params, rho, init, t_grid, trajectory_rng(seed, index), size, record_energies)


def simulate_ensemble(
    params: GeneratorParams,
    rho: AngleDistribution | None,
    init: InitialCondition,
    config: EnsembleConfig,
    workers: int = 1,
) -> EnsembleResult:
    """Run n_traj independent trajectories; bit-reproducible for fixed seed.

    Trajectories are simulated in chunks of _CHUNK, each on the stream keyed
    by (seed, chunk index), so any worker count yields identical arrays.
    Workers are threads, capped by the number of chunks and of CPUs; one
    worker runs in the caller's thread.
    """
    t_grid = np.asarray(config.t_grid, dtype=float)
    n = config.n_traj
    record_energies = "energies" in config.record
    jobs = [
        (params, rho, init, t_grid, config.seed, index, min(_CHUNK, n - start), record_energies)
        for index, start in enumerate(range(0, n, _CHUNK))
    ]
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    snapshots = np.empty((n, len(t_grid), params.dimension * params.M))
    counts = np.empty((n, 3), dtype=np.int64)
    energies = np.empty((n, len(t_grid))) if record_energies else None
    with contextlib.ExitStack() as stack:
        if workers > 1:
            from concurrent.futures import ThreadPoolExecutor  # imported here so one-worker runs skip it

            chunks = stack.enter_context(ThreadPoolExecutor(max_workers=workers)).map(_simulate_chunk, jobs)
        else:
            chunks = map(_simulate_chunk, jobs)
        for index, (snaps, cnts, ener) in enumerate(chunks):
            rows = slice(index * _CHUNK, index * _CHUNK + len(snaps))
            snapshots[rows] = snaps
            counts[rows] = cnts
            if record_energies:
                energies[rows] = ener
    return EnsembleResult(
        params=params,
        t_grid=t_grid,
        seed=config.seed,
        snapshots=snapshots,
        counts=counts,
        energies=energies,
    )
