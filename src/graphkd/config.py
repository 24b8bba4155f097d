"""Experiment configuration: JSON parsing, validation, canonical digests.

Configs are strict: a required ``version`` field and unknown keys rejected at
every level by the parser.  Each config type checks its own rules in
``__post_init__`` (cross-field ones such as graph k vs batch size in
:class:`DistillConfig`), so a config built by ``dataclasses.replace`` is held
to the same rules as a parsed one and fails before any training step.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

__all__ = [
    "ConfigError",
    "ArchSpec",
    "DatasetSpec",
    "DistillConfig",
    "GraphParams",
    "MASK_MODES",
    "Schedule",
    "parse_config",
    "load_config",
    "config_digest",
    "CONFIG_VERSION",
    "LOSSES",
]

CONFIG_VERSION = 1
LOSSES = ("vanilla", "ikd", "rkdd", "gkd")
MASK_MODES = ("all", "inter_class", "intra_class")
DEFAULT_LAMBDA_KD = 25.0
DEFAULT_SEEDS = (1, 2, 3)
DEFAULT_BATCH_SIZE = 128
DEFAULT_MOMENTUM = 0.9
DEFAULT_SCHEDULE = {
    "base_lr": 0.1,
    "decay_factor": 0.2,
    "milestones": [20, 40, 50],
    "total_epochs": 60,
}
DATASET_FIELDS = {
    "two_arcs": {"n", "noise", "seed", "test_fraction"},
    "gaussian_mixture": {"n", "classes", "dim", "separation", "seed", "test_fraction"},
    "idx": {"images", "labels", "limit", "seed", "test_fraction"},
}
# the JSON type of each key, checked without converting the value: a bool is
# no integer or number, and a dataset field keeps its value as written in the
# config's digest
_INT, _NUMBER, _STR = ("an integer", (int,)), ("a number", (int, float)), ("a string", (str,))
_INTS = ("a list of integers", (list, tuple))
DATASET_TYPES = {
    "n": _INT, "classes": _INT, "dim": _INT, "seed": _INT,
    "limit": ("an integer or null", (int, type(None))),
    "noise": _NUMBER, "separation": _NUMBER, "test_fraction": _NUMBER,
    "images": _STR, "labels": _STR,
}


class ConfigError(ValueError):
    """Raised for malformed or inconsistent experiment configurations."""


@dataclass(frozen=True)
class ArchSpec:
    depths: tuple[int, ...]
    widths: tuple[int, ...]

    def __post_init__(self):
        if len(self.depths) != len(self.widths) or not self.depths:
            raise ConfigError(
                f"depths and widths must be equal-length non-empty lists, "
                f"got {self.depths} and {self.widths}"
            )
        if any(d < 1 for d in self.depths) or any(w < 1 for w in self.widths):
            raise ConfigError(
                f"depths and widths must be positive, got {self.depths} and {self.widths}"
            )


@dataclass(frozen=True)
class GraphParams:
    """Construction parameters of a similarity graph."""

    k: int
    p: int = 1
    mask_mode: str = "all"


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    params: dict


@dataclass(frozen=True)
class Schedule:
    """Step learning-rate schedule: base_lr * decay_factor^(milestones passed)."""

    base_lr: float
    decay_factor: float
    milestones: tuple[int, ...]
    total_epochs: int

    def __post_init__(self):
        if self.base_lr <= 0:
            raise ConfigError(f"schedule: base_lr must be positive, got {self.base_lr}")
        if not 0 < self.decay_factor <= 1:
            raise ConfigError(
                f"schedule: decay_factor must lie in (0, 1], got {self.decay_factor}"
            )
        if self.total_epochs < 1:
            raise ConfigError(
                f"schedule: total_epochs must be positive, got {self.total_epochs}"
            )
        if any(m1 >= m2 for m1, m2 in zip(self.milestones, self.milestones[1:])):
            raise ConfigError(
                f"schedule: milestones must be strictly increasing, got {self.milestones}"
            )
        if any(not 0 <= m < self.total_epochs for m in self.milestones):
            raise ConfigError(
                f"schedule: milestones must lie in [0, total_epochs), got {self.milestones}"
            )


@dataclass(frozen=True)
class DistillConfig:
    version: int
    dataset: DatasetSpec
    teacher: ArchSpec
    student: ArchSpec
    loss: str
    lambda_kd: float
    graph: GraphParams | None
    schedule: Schedule
    batch_size: int
    momentum: float
    seeds: tuple[int, ...]

    def __post_init__(self):
        """Cross-field rules; ``dataclasses.replace`` re-runs them too."""
        if self.loss not in LOSSES:
            raise ConfigError(f"config: unknown loss {self.loss!r}, expected one of {LOSSES}")
        if self.batch_size < 2:
            raise ConfigError(f"config: batch_size must be at least 2, got {self.batch_size}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"config: momentum must lie in [0, 1), got {self.momentum}")
        if self.lambda_kd < 0:
            raise ConfigError(f"config: lambda_kd must be nonnegative, got {self.lambda_kd}")
        if self.loss == "vanilla" and self.lambda_kd != 0.0:
            raise ConfigError("config: vanilla training must have lambda_kd = 0")
        if self.loss != "gkd" and self.graph is not None:
            raise ConfigError(
                f"config: graph parameters are only valid for loss='gkd', not {self.loss!r}"
            )
        if self.loss == "gkd":
            graph = self.graph
            if graph is None:
                raise ConfigError("config: gkd training requires graph parameters")
            if graph.mask_mode not in MASK_MODES:
                raise ConfigError(
                    f"graph: unknown mask_mode {graph.mask_mode!r}, expected one of {MASK_MODES}"
                )
            if graph.p < 1:
                raise ConfigError(f"graph: p must be a positive integer, got {graph.p}")
            if not 1 <= graph.k <= self.batch_size - 1:
                raise ConfigError(
                    f"graph: k={graph.k} must lie in [1, batch_size-1] = [1, {self.batch_size - 1}]"
                )
        _check_seeds(self.seeds, "config: seeds")

    def to_dict(self) -> dict:
        out = asdict(self)
        out["dataset"] = {"name": self.dataset.name, **self.dataset.params}
        out["graph"] = None if self.graph is None else asdict(self.graph)
        return out


def _reject_unknown(obj: dict, allowed: set[str], context: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")


def _require(obj: dict, key: str, context: str):
    if key not in obj:
        raise ConfigError(f"{context}: missing required key {key!r}")
    return obj[key]


def _check_seeds(seeds, name: str) -> None:
    """The seed rule, for the config's seeds, the dataset seed and the seed
    overrides: a non-empty list of distinct non-negative integers."""
    if not seeds:
        raise ConfigError(f"{name} must be a non-empty list")
    if min(seeds) < 0:
        raise ConfigError(f"{name} must be non-negative, got {min(seeds)}")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"{name} must be distinct, got {seeds}")


def _is(value, types) -> bool:
    return isinstance(value, types) and not isinstance(value, bool)


def _typed(value, kind, key: str, context: str):
    """``value`` if its JSON type is ``kind`` (a list of integers as a tuple),
    else a ConfigError naming ``key``."""
    name, types = kind
    if not _is(value, types) or (kind is _INTS and not all(_is(v, int) for v in value)):
        raise ConfigError(f"{context}: {key} must be {name}, got {value!r}")
    return tuple(value) if kind is _INTS else value


def _float(value, key: str, context: str) -> float:
    """A number key's value, stored as a float so that 1 and 1.0 digest alike."""
    try:
        return float(_typed(value, _NUMBER, key, context))
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(f"{context}: {key} must be a number, got {value!r}") from None


def _parse_arch(obj, context: str) -> ArchSpec:
    if not isinstance(obj, dict):
        raise ConfigError(f"{context}: expected an object with depths and widths")
    _reject_unknown(obj, {"depths", "widths"}, context)
    depths = _typed(_require(obj, "depths", context), _INTS, "depths", context)
    widths = _typed(_require(obj, "widths", context), _INTS, "widths", context)
    try:
        return ArchSpec(depths=depths, widths=widths)
    except ConfigError as err:
        raise ConfigError(f"{context}: {err}") from None


def _parse_dataset(obj, context: str = "dataset") -> DatasetSpec:
    if not isinstance(obj, dict):
        raise ConfigError(f"{context}: expected an object")
    name = _require(obj, "name", context)
    if not isinstance(name, str) or name not in DATASET_FIELDS:
        raise ConfigError(
            f"{context}: unknown dataset {name!r}, expected one of {sorted(DATASET_FIELDS)}"
        )
    _reject_unknown(obj, DATASET_FIELDS[name] | {"name"}, context)
    params = {k: v for k, v in obj.items() if k != "name"}
    params.setdefault("seed", 0)
    params.setdefault("test_fraction", 0.25)
    if name == "two_arcs":
        _require(params, "n", context)
        params.setdefault("noise", 0.0)
    elif name == "gaussian_mixture":
        for key in ("n", "classes", "dim", "separation"):
            _require(params, key, context)
    else:  # idx
        for key in ("images", "labels"):
            _require(params, key, context)
        params.setdefault("limit", None)
    for key, value in params.items():
        _typed(value, DATASET_TYPES[key], key, context)
    _check_seeds((params["seed"],), f"{context}: seed")
    return DatasetSpec(name=name, params=params)


def _parse_schedule(obj, context: str = "schedule") -> Schedule:
    if not isinstance(obj, dict):
        raise ConfigError(f"{context}: expected an object")
    merged = dict(DEFAULT_SCHEDULE)
    _reject_unknown(obj, set(merged), context)
    merged.update(obj)
    return Schedule(
        base_lr=_float(merged["base_lr"], "base_lr", context),
        decay_factor=_float(merged["decay_factor"], "decay_factor", context),
        milestones=_typed(merged["milestones"], _INTS, "milestones", context),
        total_epochs=_typed(merged["total_epochs"], _INT, "total_epochs", context),
    )


def parse_config(obj: dict) -> DistillConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config: expected a JSON object at the top level")
    version = _require(obj, "version", "config")
    if not _is(version, int) or version != CONFIG_VERSION:
        raise ConfigError(f"config: unsupported version {version!r}, expected {CONFIG_VERSION}")
    allowed = {
        "version",
        "dataset",
        "teacher",
        "student",
        "loss",
        "lambda_kd",
        "graph",
        "schedule",
        "batch_size",
        "momentum",
        "seeds",
    }
    _reject_unknown(obj, allowed, "config")

    loss = _typed(_require(obj, "loss", "config"), _STR, "loss", "config")
    lambda_kd = obj.get("lambda_kd", 0.0 if loss == "vanilla" else DEFAULT_LAMBDA_KD)
    batch_size = _typed(obj.get("batch_size", DEFAULT_BATCH_SIZE), _INT, "batch_size", "config")
    graph = None
    if loss == "gkd" or "graph" in obj:
        graph_obj = obj.get("graph", {})
        if not isinstance(graph_obj, dict):
            raise ConfigError("graph: expected an object")
        _reject_unknown(graph_obj, {"k", "p", "mask_mode"}, "graph")
        graph = GraphParams(
            k=_typed(graph_obj.get("k", batch_size - 1), _INT, "k", "graph"),
            p=_typed(graph_obj.get("p", 1), _INT, "p", "graph"),
            mask_mode=_typed(graph_obj.get("mask_mode", "all"), _STR, "mask_mode", "graph"),
        )
    return DistillConfig(
        version=CONFIG_VERSION,
        dataset=_parse_dataset(_require(obj, "dataset", "config")),
        teacher=_parse_arch(_require(obj, "teacher", "config"), "teacher"),
        student=_parse_arch(_require(obj, "student", "config"), "student"),
        loss=loss,
        lambda_kd=_float(lambda_kd, "lambda_kd", "config"),
        graph=graph,
        schedule=_parse_schedule(obj.get("schedule", {})),
        batch_size=batch_size,
        momentum=_float(obj.get("momentum", DEFAULT_MOMENTUM), "momentum", "config"),
        seeds=_typed(obj.get("seeds", DEFAULT_SEEDS), _INTS, "seeds", "config"),
    )


def load_config(path) -> DistillConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        obj = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {path} is not valid JSON: {err}") from err
    return parse_config(obj)


def config_digest(config: DistillConfig) -> str:
    """SHA-256 of the fully-resolved config in canonical JSON form."""
    canonical = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
