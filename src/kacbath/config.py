"""JSON experiment configuration: strict parsing into the domain dataclasses."""
from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .engine import EnsembleConfig, InitialCondition
from .model import THERMAL_VARIANCE, AngleDistribution, GeneratorParams, InvalidDistributionError


# Caps on the work one config may ask for, so that finite but huge values exit 2
# instead of running for hours or failing inside numpy.  On a 2-core Xeon, one
# envelope_poisson_sum time point at the event cap (expected collisions per
# trajectory, total_rate * t_max) takes 1.6 s and 1e8 trajectories of the (2,8)
# d=1 system take about an hour; 1e4 bootstrap replicates are 200 times the default.
# At the coordinate cap (d * (M + N) velocity coordinates per trajectory), the
# state of one 2048-trajectory engine chunk takes 1 GiB of float64, also the budget of
# verify-sum-rule's larger buffer (words.sum_rule_bytes).  Angle order K builds dense (4K+1)^2
# complex tables (K = 1024: 1.35 s, 583 MB peak RSS); the sphere rule has 2*K*L nodes and
# solves an L x L eigenproblem (L = 2048: 0.74 s, about 100 MB).
MAX_EVENTS_PER_TRAJECTORY = 1e6
MAX_TRAJECTORIES = 10**8
MAX_BOOTSTRAP = 10**4
MAX_STATE_COORDINATES = 2**16
MAX_SUM_RULE_BYTES = 2**30
MAX_ANGLE_ORDER = 1024
MAX_SPHERE_ORDER = 2048
MAX_SPHERE_NODES = 2**20


class ConfigError(ValueError):
    """Configuration failed to parse or validate."""


def _require_keys(section: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")


def _integer(value, minimum: float, where: str, maximum: float = math.inf) -> int:
    """A JSON integer in [minimum, maximum] and in the float range; an integral float such as 4.0 counts."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral or not minimum <= value <= maximum or abs(value) > sys.float_info.max:
        raise ConfigError(f"{where} must be an integer in [{minimum}, {maximum}], got {value!r}")
    return int(value)


def _number(value, where: str) -> float:
    """A JSON number, an integer or a float but not a boolean, as a finite float."""
    # comparing an int with a float is exact: an integer past the float range fails here, not in float()
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def _times(value, where: str) -> list[float]:
    """A non-empty JSON list of numbers, as floats."""
    if not (isinstance(value, list) and value):
        raise ConfigError(f"{where} must be a non-empty list of numbers, got {value!r}")
    return [_number(t, where) for t in value]


def build_params(section: dict) -> GeneratorParams:
    _require_keys(
        section,
        allowed={"M", "N", "lambda_S", "lambda_R", "mu", "dimension", "preset"},
        required={"M", "N"},
        where="params",
    )
    try:
        M, N = _integer(section["M"], 1, "params.M"), _integer(section["N"], 1, "params.N")
        dimension = _integer(section.get("dimension", 1), 1, "params.dimension")
        if section.get("preset") == "classical_kac":
            extra = {"lambda_S", "lambda_R", "mu"} & set(section)
            if extra:
                raise ConfigError(f"preset forbids explicit rates: {sorted(extra)}")
            return GeneratorParams.classical_kac(M, N, dimension=dimension)
        if "preset" in section:
            raise ConfigError(f"unknown preset {section['preset']!r}")
        return GeneratorParams(
            M=M,
            N=N,
            lambda_S=_number(section.get("lambda_S", 0.0), "params.lambda_S"),
            lambda_R=_number(section.get("lambda_R", 0.0), "params.lambda_R"),
            mu=_number(section.get("mu", 0.0), "params.mu"),
            dimension=dimension,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid params: {exc}") from exc


def build_angle_distribution(section: dict) -> AngleDistribution:
    if "type" not in section:
        raise ConfigError("rho needs a 'type'")
    kind = section["type"]
    try:
        if kind == "uniform":
            _require_keys(section, {"type"}, {"type"}, "rho")
            return AngleDistribution.uniform()
        if kind == "atoms":
            _require_keys(section, {"type", "atoms"}, {"type", "atoms"}, "rho")
            return AngleDistribution.atoms([(_number(t, "rho.atoms angle"), _number(p, "rho.atoms weight"))
                                            for t, p in section["atoms"]])
        if kind == "density_table":
            _require_keys(section, {"type", "thetas", "values"}, {"type", "thetas", "values"}, "rho")
            return AngleDistribution.from_table([_number(t, "rho.thetas") for t in section["thetas"]],
                                                [_number(v, "rho.values") for v in section["values"]])
    except InvalidDistributionError as exc:
        raise ConfigError(f"invalid rho: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed rho: {exc}") from exc
    raise ConfigError(f"unknown rho type {kind!r}")


def build_initial(section: dict) -> InitialCondition:
    if "kind" not in section:
        raise ConfigError("initial needs a 'kind'")
    kind = section["kind"]
    try:
        if kind == "thermal":
            _require_keys(section, {"kind"}, {"kind"}, "initial")
            return InitialCondition.thermal()
        if kind == "gaussian_product":
            _require_keys(section, {"kind", "s"}, {"kind", "s"}, "initial")
            return InitialCondition.gaussian_product(_number(section["s"], "initial.s"))
        if kind == "two_temperature":
            _require_keys(section, {"kind", "s_hot", "s_cold", "n_hot"}, {"kind", "s_hot", "s_cold"}, "initial")
            n_hot = section.get("n_hot")
            return InitialCondition.two_temperature(
                _number(section["s_hot"], "initial.s_hot"), _number(section["s_cold"], "initial.s_cold"),
                None if n_hot is None else _integer(n_hot, 0, "initial.n_hot"),
            )
        if kind == "shifted_gaussian":
            _require_keys(section, {"kind", "mean", "s"}, {"kind", "mean"}, "initial")
            mean = [_number(x, "initial.mean") for x in section["mean"]]
            s = _number(section.get("s", THERMAL_VARIANCE), "initial.s")
            return InitialCondition.shifted_gaussian(mean, s)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid initial: {exc}") from exc
    raise ConfigError(f"unknown initial kind {kind!r} (custom samplers are API-only)")


def build_ensemble(section: dict) -> EnsembleConfig:
    _require_keys(
        section,
        allowed={"n_traj", "t_grid", "seed", "record"},
        required={"n_traj", "t_grid", "seed"},
        where="ensemble",
    )
    try:
        record = tuple(section.get("record", ("system_velocities",)))
        if set(record) - {"system_velocities"}:  # energies are API-only: no output file holds them
            raise ConfigError(f"ensemble.record may list only 'system_velocities', got {list(record)}")
        return EnsembleConfig(
            n_traj=_integer(section["n_traj"], 1, "ensemble.n_traj", MAX_TRAJECTORIES),
            t_grid=tuple(_times(section["t_grid"], "ensemble.t_grid")),
            seed=_integer(section["seed"], -math.inf, "ensemble.seed"),
            record=record,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid ensemble: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description plus its canonical hash."""

    params: GeneratorParams
    rho: AngleDistribution | None
    initial: InitialCondition | None
    ensemble: EnsembleConfig | None
    entropy_options: dict
    envelope_options: dict
    raw: dict

    @property
    def config_hash(self) -> str:
        return canonical_hash(self.raw)

    @property
    def seed(self) -> int:
        return self.ensemble.seed if self.ensemble is not None else 0


TOP_LEVEL_KEYS = {"params", "rho", "initial", "ensemble", "entropy", "envelope"}


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be an object")
    unknown = set(raw) - TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    if "params" not in raw:
        raise ConfigError("config needs a 'params' section")
    for key in sorted(TOP_LEVEL_KEYS & set(raw)):
        if not isinstance(raw[key], dict):
            raise ConfigError(f"'{key}' must be an object")
    params = build_params(raw["params"])
    rho = build_angle_distribution(raw["rho"]) if "rho" in raw else None
    if params.dimension == 1 and rho is None:
        raise ConfigError("dimension 1 requires a 'rho' section")
    initial = build_initial(raw["initial"]) if "initial" in raw else None
    if initial is not None:
        try:
            initial.initial_moments(params)  # the mean's length and n_hot must fit params
        except ValueError as exc:
            raise ConfigError(f"invalid initial: {exc}") from exc
    ensemble = build_ensemble(raw["ensemble"]) if "ensemble" in raw else None
    entropy_options = dict(raw.get("entropy", {}))
    _require_keys(entropy_options, {"k", "bootstrap"}, set(), "entropy")
    if "k" in entropy_options:
        entropy_options["k"] = _integer(entropy_options["k"], 1, "entropy.k")
    if "bootstrap" in entropy_options:
        entropy_options["bootstrap"] = _integer(entropy_options["bootstrap"], 2, "entropy.bootstrap", MAX_BOOTSTRAP)
    envelope_options = dict(raw.get("envelope", {}))
    _require_keys(envelope_options, {"t_grid"}, set(), "envelope")
    if "t_grid" in envelope_options:
        grid = _times(envelope_options["t_grid"], "envelope.t_grid")
        if not all(t >= 0 for t in grid):
            raise ConfigError(f"envelope.t_grid must hold times >= 0, got {grid}")
        envelope_options["t_grid"] = grid
    t_max = max([0.0, *envelope_options.get("t_grid", ()), *(ensemble.t_grid if ensemble is not None else ())])
    expected = params.total_rate * t_max
    if not expected <= MAX_EVENTS_PER_TRAJECTORY:  # also rejects inf and inf * 0 = nan
        raise ConfigError(f"expected collisions per trajectory total_rate * t_max = {expected:g} "
                          f"exceed MAX_EVENTS_PER_TRAJECTORY = {MAX_EVENTS_PER_TRAJECTORY:g}")
    return ExperimentConfig(
        params=params,
        rho=rho,
        initial=initial,
        ensemble=ensemble,
        entropy_options=entropy_options,
        envelope_options=envelope_options,
        raw=raw,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a JSON config file and check it with `parse_config`."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # also an integer literal past Python's int-to-str digit limit
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw)


def canonical_hash(raw: dict) -> str:
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
