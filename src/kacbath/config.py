"""JSON experiment configuration: strict parsing into the domain dataclasses.

Every section is parsed by one rule, `_section`: each known key's value goes through the parser
for its JSON shape, and the parsed values go to the section's constructor as keywords.  A tagged
section (`params.preset`, `rho.type`, `initial.kind`) looks its tag up in a table of
(constructor, parser per key, required keys); an untagged one has the single entry None.  The
whole document is one more such entry: its keys are the sections, each parsed by `_section`, and its
constructor is `ExperimentConfig`, which runs the checks that span sections.
"""
from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from .engine import EnsembleConfig, InitialCondition
from .entropy import DEFAULT_BOOTSTRAP, DEFAULT_K
from .model import AngleDistribution, GeneratorParams


# Caps on the work one config may ask for, so that finite but huge values exit 2
# instead of running for hours or failing inside numpy.  On a 2-core Xeon, one
# envelope_poisson_sum time point at the event cap (expected collisions per
# trajectory, total_rate * t_max) takes 4.3 ms; 1e4 bootstrap replicates are 200 times
# the default.  MAX_BUFFER_BYTES bounds the largest array of a command: an ensemble's
# result arrays (engine.result_bytes; 10.3 million trajectories of the (2,8) d=1 system
# at 5 times) and verify-sum-rule's larger buffer (words.sum_rule_bytes).  At the
# coordinate cap (d * (M + N) velocity coordinates per trajectory), the state of one
# 2048-trajectory engine chunk takes the same 1 GiB.  Angle order K builds dense (4K+1)^2
# complex tables (K = 1024: 1.35 s, 583 MB peak RSS); the sphere rule has 2*K*L nodes and
# solves an L x L eigenproblem (L = 2048: 0.74 s, about 100 MB).
MAX_EVENTS_PER_TRAJECTORY = 1e6
MAX_TRAJECTORIES = 10**8
MAX_BOOTSTRAP = 10**4
MAX_STATE_COORDINATES = 2**16
MAX_BUFFER_BYTES = 2**30
MAX_ANGLE_ORDER = 1024
MAX_SPHERE_ORDER = 2048
MAX_SPHERE_NODES = 2**20


class ConfigError(ValueError):
    """Configuration failed to parse or validate."""


def _integer(value, where: str, minimum: float = -math.inf, maximum: float = math.inf) -> int:
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


def _numbers(value, where: str) -> list[float]:
    """A JSON list of numbers, as floats."""
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list of numbers, got {value!r}")
    return [_number(x, where) for x in value]


def _times(value, where: str) -> list[float]:
    """A non-empty JSON list of numbers, as floats."""
    if not (isinstance(value, list) and value):
        raise ConfigError(f"{where} must be a non-empty list of numbers, got {value!r}")
    return _numbers(value, where)


def _envelope_times(value, where: str) -> list[float]:
    """A non-empty JSON list of numbers >= 0, as floats."""
    grid = _times(value, where)
    if not all(t >= 0 for t in grid):
        raise ConfigError(f"{where} must hold times >= 0, got {grid}")
    return grid


def _atoms(value, where: str) -> list[tuple[float, float]]:
    """A JSON list of [angle, weight] pairs of numbers, as float pairs."""
    if not (isinstance(value, list) and all(isinstance(pair, list) and len(pair) == 2 for pair in value)):
        raise ConfigError(f"{where} must be a list of [angle, weight] pairs, got {value!r}")
    return [(_number(t, f"{where} angle"), _number(p, f"{where} weight")) for t, p in value]


def _record(value, where: str) -> tuple[str, ...]:
    """A JSON list whose entries are all "system_velocities"; energies are API-only, as no output
    file holds them.  Each entry is compared, not hashed, so a list entry is an error too."""
    if not (isinstance(value, list) and all(entry == "system_velocities" for entry in value)):
        raise ConfigError(f"{where} may list only 'system_velocities', got {value!r}")
    return tuple(value)


_count = partial(_integer, minimum=1)
_COUNTS = {"M": _count, "N": _count, "dimension": _count}
PARAMS = {
    None: (partial(GeneratorParams, lambda_S=0.0, lambda_R=0.0, mu=0.0),
           {**_COUNTS, "lambda_S": _number, "lambda_R": _number, "mu": _number}, {"M", "N"}),
    "classical_kac": (GeneratorParams.classical_kac, _COUNTS, {"M", "N"}),
}
RHO = {
    "uniform": (AngleDistribution.uniform, {}, set()),
    "atoms": (lambda atoms: AngleDistribution.atoms(atoms), {"atoms": _atoms}, {"atoms"}),  # its argument is `pairs`
    "density_table": (AngleDistribution.from_table, {"thetas": _numbers, "values": _numbers}, {"thetas", "values"}),
}
INITIAL = {  # custom samplers are API-only
    "thermal": (InitialCondition.thermal, {}, set()),
    "gaussian_product": (InitialCondition.gaussian_product, {"s": _number}, {"s"}),
    "two_temperature": (InitialCondition.two_temperature, {"s_hot": _number, "s_cold": _number,
                                                           "n_hot": partial(_integer, minimum=0)}, {"s_hot", "s_cold"}),
    "shifted_gaussian": (InitialCondition.shifted_gaussian, {"mean": _numbers, "s": _number}, {"mean"}),
}
ENSEMBLE = {None: (EnsembleConfig, {"n_traj": partial(_integer, minimum=1, maximum=MAX_TRAJECTORIES),
                                    "t_grid": lambda value, where: tuple(_times(value, where)),
                                    "seed": _integer, "record": _record}, {"n_traj", "t_grid", "seed"})}
ENTROPY = {None: (partial(dict, k=DEFAULT_K, bootstrap=DEFAULT_BOOTSTRAP),
                  {"k": _count, "bootstrap": partial(_integer, minimum=2, maximum=MAX_BOOTSTRAP)}, set())}
ENVELOPE = {None: (dict, {"t_grid": _envelope_times}, set())}


def _section(section: dict, where: str, kinds: dict, tag: str | None = None):
    """The section built by the table entry of its `tag`, or by the entry None when the tag is absent."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object, got {type(section).__name__}")
    if not all(isinstance(key, str) for key in section):
        raise ConfigError(f"{where} keys must be strings, got {[key for key in section if not isinstance(key, str)]}")
    kind = section.get(tag)
    if (tag in section and not isinstance(kind, str)) or kind not in kinds:
        names = [name for name in kinds if name is not None]
        raise ConfigError(f"{where}.{tag} must be one of {names}, got {kind!r}" if tag in section
                          else f"{where} needs a '{tag}'")
    build, parsers, required = kinds[kind]
    fields = {key: value for key, value in section.items() if key != tag}
    unknown = set(fields) - set(parsers)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(fields)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")
    values = {key: parsers[key](value, f"{where}.{key}") for key, value in fields.items()}
    try:
        return build(**values)
    except ConfigError:  # a check across sections, raised by ExperimentConfig itself
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """Validated experiment description plus its canonical hash; building one runs the cross-section checks."""

    params: GeneratorParams
    rho: AngleDistribution | None = None
    initial: InitialCondition | None = None
    ensemble: EnsembleConfig | None = None
    entropy: dict = field(default_factory=ENTROPY[None][0])
    envelope: dict = field(default_factory=dict)
    config_hash: str

    def __post_init__(self):
        if self.params.dimension == 1 and self.rho is None:
            raise ConfigError("dimension 1 requires a 'rho' section")
        if self.initial is not None:
            try:
                self.initial.gaussian(self.params)  # the mean's length and n_hot must fit params
            except ValueError as exc:
                raise ConfigError(f"invalid initial: {exc}") from exc
        t_max = max([0.0, *self.envelope.get("t_grid", ()), *getattr(self.ensemble, "t_grid", ())])
        expected = self.params.total_rate * t_max
        if not expected <= MAX_EVENTS_PER_TRAJECTORY:  # also rejects inf and inf * 0 = nan
            raise ConfigError(f"expected collisions per trajectory total_rate * t_max = {expected:g} "
                              f"exceed MAX_EVENTS_PER_TRAJECTORY = {MAX_EVENTS_PER_TRAJECTORY:g}")

    @property
    def seed(self) -> int:
        return self.ensemble.seed if self.ensemble is not None else 0


SECTIONS = {"params": partial(_section, kinds=PARAMS, tag="preset"), "rho": partial(_section, kinds=RHO, tag="type"),
            "initial": partial(_section, kinds=INITIAL, tag="kind"), "ensemble": partial(_section, kinds=ENSEMBLE),
            "entropy": partial(_section, kinds=ENTROPY), "envelope": partial(_section, kinds=ENVELOPE)}


def parse_config(raw: dict) -> ExperimentConfig:
    """The whole document is one more section: its keys are the sections, its constructor ExperimentConfig."""

    def build(**sections) -> ExperimentConfig:  # called once _section has checked every key, so all are strings
        return ExperimentConfig(**sections, config_hash=canonical_hash(raw))

    return _section(raw, "config", {None: (build, SECTIONS, {"params"})})


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
