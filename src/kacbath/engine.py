"""Event-driven simulation of trajectory ensembles.

The dynamics is a pure jump process: waiting times are exponential in the
total rate, so the state at the observation times is produced exactly by
drawing the Poisson number of collisions per observation window and applying
that many i.i.d. pair collisions in sequence.  No time discretization error
exists; Monte Carlo error is the only error source.

The bath starts thermal.  The system block starts from an `InitialCondition`:
independent Gaussian coordinates with per-particle variances and a mean,
checked when the law is built, or an API-only custom sampler.

Trajectories run in lockstep, _CHUNK at a time: collision e of every
trajectory in a window is one batched call of `model.collide` on the lanes
of the trajectories that have an e-th collision there; the others are not
touched.  The chunk's state is one (d(M+N), B) array with the trajectory
axis last, the layout `collide` takes.  Energy is checked per trajectory at
every observation time.

Reproducibility: chunk c of a run with seed s draws everything from the
counter-based Philox stream keyed by (s, c) and writes its own rows of the
result arrays, so results are bit-identical for any number of worker threads.
Outputs for a seed differ from kacbath 0.1.0, which keyed one stream per
trajectory.
"""
from __future__ import annotations

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
    _is_int,
    collide,
    sample_collisions,
)
from .moments import MomentPair

ENERGY_DRIFT_TOL = 1e-10
_CHUNK = 2048
_BLOCK_SLOTS = 2 ** 14  # collision slots (steps x trajectories) drawn at once; bounds peak memory
_BOOTSTRAP_KEY_OFFSET = 2 ** 63  # separates estimator streams from trajectory streams
MAX_INITIAL_SCALE = 1e50  # on initial variances and |mean|: fourth moments and their SEs stay finite


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
    """Initial law of the system block; the bath always starts thermal.

    Independent Gaussian coordinates: variance `s_hot` on the first `n_hot`
    particles ((M+1)//2 by default) when `s_hot` is set, `s` on the others,
    all shifted by `mean`.  A `sampler` replaces the Gaussian law by a custom
    one, which has no analytic moments.
    """

    s: float = THERMAL_VARIANCE
    mean: tuple[float, ...] | None = None
    s_hot: float | None = None
    n_hot: int | None = None
    sampler: Callable | None = None

    def __post_init__(self):
        if self.n_hot is not None and not (_is_int(self.n_hot) and self.n_hot >= 0 and self.s_hot is not None):
            raise ValueError(f"n_hot must be an integer >= 0 and needs s_hot, got n_hot={self.n_hot!r}")
        if self.sampler is not None and (self.mean, self.s_hot, self.s) != (None, None, THERMAL_VARIANCE):
            raise ValueError("a custom sampler takes no s, mean, s_hot or n_hot")
        variances = (self.s,) if self.s_hot is None else (self.s, self.s_hot)
        if not all(0 < v <= MAX_INITIAL_SCALE for v in variances):  # also rejects nan
            raise ValueError(f"initial variances must lie in (0, {MAX_INITIAL_SCALE:g}], got {variances}")
        if not all(abs(x) <= MAX_INITIAL_SCALE for x in self.mean or ()):
            raise ValueError(f"initial |mean| components must be at most {MAX_INITIAL_SCALE:g}, got {self.mean}")

    @classmethod
    def thermal(cls) -> "InitialCondition":
        return cls()

    @classmethod
    def gaussian_product(cls, s: float) -> "InitialCondition":
        return cls(s=s)

    @classmethod
    def two_temperature(cls, s_hot: float, s_cold: float, n_hot: int | None = None) -> "InitialCondition":
        return cls(s=s_cold, s_hot=s_hot, n_hot=n_hot)

    @classmethod
    def shifted_gaussian(cls, mean: Sequence[float], s: float = THERMAL_VARIANCE) -> "InitialCondition":
        return cls(s=s, mean=tuple(float(x) for x in mean))

    @classmethod
    def custom(cls, sampler: Callable) -> "InitialCondition":
        return cls(sampler=sampler)

    def gaussian(self, params: GeneratorParams) -> tuple[np.ndarray, np.ndarray]:
        """Per-coordinate (means, variances) of the system block; a custom law, or one that does
        not fit `params`, raises ValueError."""
        if self.sampler is not None:
            raise ValueError("a custom initial law has no analytic means or variances")
        d, M = params.dimension, params.M
        variances = np.full(d * M, self.s)
        if self.s_hot is not None:
            hot = self.n_hot if self.n_hot is not None else (M + 1) // 2
            if not 0 <= hot <= M:
                raise ValueError(f"n_hot must be in 0..{M}, got {hot}")
            variances[: d * hot] = self.s_hot
        means = np.zeros(d * M) if self.mean is None else np.asarray(self.mean, dtype=float)
        if means.shape != (d * M,):
            raise ValueError(f"mean must have length {d * M}")
        return means, variances

    def initial_moments(self, params: GeneratorParams) -> MomentPair:
        """Mean per-coordinate second moments (system, bath) for the oracle."""
        means, variances = self.gaussian(params)
        return MomentPair(float(np.mean(variances + means ** 2)), THERMAL_VARIANCE)

    def sample_system(
        self, params: GeneratorParams, rng: np.random.Generator, size: int | None = None
    ) -> np.ndarray:
        """One system block of shape (d*M,), or `size` of them stacked as (size, d*M)."""
        dm = params.dimension * params.M
        if self.sampler is not None:
            if size is not None:
                return np.stack([self.sample_system(params, rng) for _ in range(size)])
            out = np.asarray(self.sampler(params, rng), dtype=float)
            if out.shape != (dm,):
                raise ValueError("custom sampler returned a wrong-shaped system block")
            return out
        means, variances = self.gaussian(params)
        shape = dm if size is None else (size, dm)
        return means + rng.normal(size=shape) * np.sqrt(variances)


@dataclass(frozen=True)
class EnsembleConfig:
    """Size, observation grid, seed, and which observables to keep."""

    n_traj: int
    t_grid: tuple[float, ...]
    seed: int
    record: tuple[str, ...] = ("system_velocities",)

    def __post_init__(self):
        if not (_is_int(self.n_traj) and self.n_traj >= 1):
            raise ValueError(f"n_traj must be an integer >= 1, got {self.n_traj!r}")
        if not _is_int(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        _check_grid(self.t_grid)
        known = {"system_velocities", "energies"}
        unknown = set(self.record) - known
        if unknown:
            raise ValueError(f"unknown record keys: {sorted(unknown)}")


def _check_grid(t_grid: Sequence[float]) -> np.ndarray:
    """The observation times as floats: finite, starting at 0, strictly increasing."""
    grid = np.asarray(t_grid, dtype=float)
    if not np.all(np.isfinite(grid)):
        raise ValueError("t_grid must be finite")
    if len(grid) < 1 or grid[0] != 0.0 or np.any(np.diff(grid) <= 0):
        raise ValueError("t_grid must start at 0 and be strictly increasing")
    return grid


@dataclass(frozen=True)
class EnsembleResult:
    """Stacked trajectory observables in trajectory order."""

    t_grid: np.ndarray
    snapshots: np.ndarray  # (n_traj, n_times, d*M)
    counts: np.ndarray  # (n_traj, 3) collisions of kinds 0, 1, 2
    energies: np.ndarray | None  # (n_traj, n_times) total energy, if recorded

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


def result_bytes(params: GeneratorParams, n_traj: int, n_times: int, energies: bool) -> int:
    """Bytes of the arrays `_empty_result` allocates: float64 snapshots, int64 counts and, if recorded, energies."""
    return 8 * n_traj * (n_times * params.dimension * params.M + 3 + (n_times if energies else 0))


def _empty_result(params: GeneratorParams, t_grid: np.ndarray, n_traj: int, energies: bool) -> EnsembleResult:
    """Rows for n_traj trajectories, counts zeroed, for `_simulate_lockstep` to fill."""
    return EnsembleResult(t_grid, np.empty((n_traj, len(t_grid), params.dimension * params.M)),
                          np.zeros((n_traj, 3), dtype=np.int64), np.empty((n_traj, len(t_grid))) if energies else None)


def simulate_trajectory(
    params: GeneratorParams,
    rho: AngleDistribution | None,
    init: InitialCondition,
    t_grid: Sequence[float],
    rng: np.random.Generator,
) -> EnsembleResult:
    """Evolve one trajectory on `rng`, returning a one-row result with energies.

    This is a lockstep run of one trajectory; its first draw is the system
    block, so the t=0 snapshot equals `init.sample_system(params, rng)`.
    """
    result = _empty_result(params, _check_grid(t_grid), 1, energies=True)
    _simulate_lockstep(params, rho, init, rng, result, slice(None))
    return result


def _simulate_lockstep(params, rho, init, rng, result: EnsembleResult, rows: slice) -> None:
    """Evolve the trajectories of `rows` of `result` together on one stream, writing those rows.

    Draws, in order: system blocks, bath blocks, Poisson counts per window,
    then per window and per block of at most _BLOCK_SLOTS slots (steps x
    trajectories) the collisions that occur.  Fills the rows' snapshots and,
    if recorded, energies; adds the per-kind collision counts to their zeroed
    counts.
    """
    d, M, N = params.dimension, params.M, params.N
    t_grid, snapshots, counts = result.t_grid, result.snapshots[rows], result.counts[rows]
    energies = None if result.energies is None else result.energies[rows]
    size = len(snapshots)
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

    block_steps = max(1, _BLOCK_SLOTS // size)
    for w, t in enumerate(t_grid):
        due = n_events[:, w]
        steps = int(due.max())
        for first in range(0, steps, block_steps):
            occurs = np.arange(first, min(first + block_steps, steps))[:, None] < due
            # lanes of the occurring (step, trajectory) slots, drawn compact in row-major order:
            # step e's collisions are the e-th run of occurs.sum(axis=1) consecutive entries
            lanes = np.flatnonzero(occurs) % size
            i, j, kinds, param = sample_collisions(params, rho, rng, len(lanes))
            counts += np.bincount(3 * lanes + kinds, minlength=3 * size).reshape(size, 3)
            ends = np.cumsum(occurs.sum(axis=1)).tolist()
            for start, end in zip([0] + ends, ends):
                collide(blocks, lanes[start:end], i[start:end], j[start:end], param[:, start:end])
        snapshots[:, w] = state[: d * M].T
        energy = np.einsum("ib,ib->b", state, state)
        _check_energy(energy, e0, t)
        if energies is not None:
            energies[:, w] = energy


def _check_energy(energy: np.ndarray, e0: np.ndarray, t: float) -> None:
    """Every energy finite and within ENERGY_DRIFT_TOL of its t=0 value, relatively."""
    if not np.all(np.isfinite(energy)):
        raise SimulationError(f"non-finite state at t={t} (energy {energy[~np.isfinite(energy)][0]!r})")
    drift = np.abs(energy - e0)
    if np.any(drift > ENERGY_DRIFT_TOL * e0):
        worst = float(np.max(drift / e0))
        raise SimulationError(f"relative energy drift {worst!r} at t={t} exceeds {ENERGY_DRIFT_TOL!r}")


def simulate_ensemble(
    params: GeneratorParams,
    rho: AngleDistribution | None,
    init: InitialCondition,
    config: EnsembleConfig,
    workers: int = 1,
) -> EnsembleResult:
    """Run n_traj independent trajectories; bit-reproducible for fixed seed.

    Trajectories are simulated in chunks of _CHUNK, each on the stream keyed
    by (seed, chunk index) and writing its own rows of the result, so any
    worker count yields identical arrays.  Workers are threads, capped by the
    number of chunks and of CPUs; one worker runs in the caller's thread.
    """
    result = _empty_result(params, np.asarray(config.t_grid, dtype=float), config.n_traj, "energies" in config.record)

    def run_chunk(index: int) -> None:
        rows = slice(index * _CHUNK, (index + 1) * _CHUNK)
        _simulate_lockstep(params, rho, init, trajectory_rng(config.seed, index), result, rows)

    chunks = range(-(-config.n_traj // _CHUNK))
    workers = min(workers, len(chunks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # imported here so one-worker runs skip it

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_chunk, chunks))
    else:
        for index in chunks:
            run_chunk(index)
    return result
