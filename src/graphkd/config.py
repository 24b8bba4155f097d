"""Experiment configuration: JSON parsing, validation, canonical digests.

Configs are strict.  Each JSON object of a config, and the checkpoint header,
has one schema table that maps each key to its JSON kind and to its default or
``_REQUIRED``; one reader, :func:`_section`, reads every table and rejects
unknown keys.  Each config type checks its own rules in ``__post_init__``
(cross-field ones such as graph k vs batch size in :class:`DistillConfig`), so
a config built by ``dataclasses.replace`` is held to the same rules as a parsed
one and fails before any training step.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

CONFIG_VERSION = 1
LOSSES = ("vanilla", "ikd", "rkdd", "gkd")
MASK_MODES = ("all", "inter_class", "intra_class")


def _is(value, types) -> bool:
    return isinstance(value, types) and not isinstance(value, bool)


# A JSON kind: its name in errors, a test of the value as parsed (a bool is no
# integer or number), and how the value is stored: None keeps it as written,
# and a _FLOAT key is stored as a float so that 1 and 1.0 digest alike.
_INT = ("an integer", lambda v: _is(v, int), None)
_FLOAT = ("a number", lambda v: _is(v, (int, float)), float)
_STR = ("a string", lambda v: isinstance(v, str), None)
_INTS = ("a list of integers",
         lambda v: isinstance(v, (list, tuple)) and all(_is(i, int) for i in v), tuple)
_INT_OR_NULL = ("an integer or null", lambda v: v is None or _is(v, int), None)
_VERSION = (str(CONFIG_VERSION), lambda v: _is(v, int) and v == CONFIG_VERSION, None)
_OBJECT = ("an object", lambda v: True, None)  # checked when its own table reads it
_REQUIRED = object()  # the default of a key that must be given

# one schema table per JSON object: key -> (kind, default); parse_config
# fills in the defaults that depend on other keys
_CONFIG = {
    "version": (_VERSION, _REQUIRED),
    "dataset": (_OBJECT, _REQUIRED),
    "teacher": (_OBJECT, _REQUIRED),
    "student": (_OBJECT, _REQUIRED),
    "loss": (_STR, _REQUIRED),
    "lambda_kd": (_FLOAT, 25.0),  # 0.0 for vanilla
    "graph": (_OBJECT, {}),  # read for gkd, or when given
    "schedule": (_OBJECT, {}),
    "batch_size": (_INT, 128),
    "momentum": (_FLOAT, 0.9),
    "seeds": (_INTS, (1, 2, 3)),
}
_ARCH = {"depths": (_INTS, _REQUIRED), "widths": (_INTS, _REQUIRED)}
_SCHEDULE = {
    "base_lr": (_FLOAT, 0.1),
    "decay_factor": (_FLOAT, 0.2),
    "milestones": (_INTS, (20, 40, 50)),
    "total_epochs": (_INT, 60),
}
_GRAPH = {"k": (_INT, None), "p": (_INT, 1), "mask_mode": (_STR, "all")}  # k: batch_size - 1
# every dataset's keys: its name and the split's; then each dataset's own
_DATASET = {"name": (_STR, _REQUIRED), "seed": (_INT, 0), "test_fraction": (_FLOAT, 0.25)}
_DATASETS = {
    "two_arcs": {"n": (_INT, _REQUIRED), "noise": (_FLOAT, 0.0)},
    "gaussian_mixture": {"n": (_INT, _REQUIRED), "classes": (_INT, _REQUIRED),
                         "dim": (_INT, _REQUIRED), "separation": (_FLOAT, _REQUIRED)},
    "idx": {"images": (_STR, _REQUIRED), "labels": (_STR, _REQUIRED),
            "limit": (_INT_OR_NULL, None)},
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
        _check_finite("schedule", base_lr=self.base_lr, decay_factor=self.decay_factor)
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
        _check_finite("config", lambda_kd=self.lambda_kd, momentum=self.momentum)
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
        return out


def _check_seeds(seeds, name: str) -> None:
    """The seed rule, for the config's seeds, the dataset seed and the seed
    overrides: a non-empty list of distinct non-negative integers."""
    if not seeds:
        raise ConfigError(f"{name} must be a non-empty list")
    if min(seeds) < 0:
        raise ConfigError(f"{name} must be non-negative, got {min(seeds)}")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"{name} must be distinct, got {seeds}")


def _check_finite(context: str, **values) -> None:
    for key, value in values.items():
        if not -math.inf < value < math.inf:  # no float() call, so no OverflowError
            raise ConfigError(f"{context}: {key} must be finite, got {value!r}")


def _typed(value, kind, key: str, context: str):
    """``value`` stored as its JSON ``kind``, else a ConfigError naming ``key``."""
    name, test, store = kind
    try:
        if test(value):
            return store(value) if store else value
    except OverflowError:  # an integer beyond the float range
        pass
    raise ConfigError(f"{context}: {key} must be {name}, got {value!r}")


def _section(obj, schema: dict, context: str, label: str = "{}") -> dict:
    """The keys of the JSON object ``obj`` as ``schema`` reads them, defaults
    filled in.  Rejects a non-object, a missing key, a value not of its kind
    and, last, unknown keys; ``label`` formats key names."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{context}: expected an object")
    out = {}
    for key, (kind, default) in schema.items():
        if key in obj:
            out[key] = _typed(obj[key], kind, label.format(key), context)
        elif default is _REQUIRED:
            raise ConfigError(f"{context}: missing required key {key!r}")
        else:
            out[key] = default
    unknown = set(obj) - set(schema)
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
    return out


def _read_dataset(obj, context: str = "dataset") -> DatasetSpec:
    """The dataset section, read by its name's table plus the split keys."""
    name = obj.get("name") if isinstance(obj, dict) else None
    if name is not None and (not isinstance(name, str) or name not in _DATASETS):
        raise ConfigError(
            f"{context}: unknown dataset {name!r}, expected one of {sorted(_DATASETS)}"
        )
    # with no name (or no object), the reader says so
    params = _section(obj, {**_DATASET, **_DATASETS.get(name, {})}, context)
    del params["name"]
    _check_finite(context, **{key: v for key, v in params.items() if isinstance(v, float)})
    _check_seeds((params["seed"],), f"{context}: seed")
    return DatasetSpec(name=name, params=params)


def parse_config(obj: dict) -> DistillConfig:
    top = _section(obj, _CONFIG, "config")
    if top["loss"] == "vanilla" and "lambda_kd" not in obj:
        top["lambda_kd"] = 0.0
    graph = None
    if top["loss"] == "gkd" or "graph" in obj:
        graph = _section(top["graph"], _GRAPH, "graph")
        if graph["k"] is None:
            graph["k"] = top["batch_size"] - 1
        graph = GraphParams(**graph)
    top.update(
        dataset=_read_dataset(top["dataset"]),
        graph=graph,
        schedule=Schedule(**_section(top["schedule"], _SCHEDULE, "schedule")),
    )
    for role in ("teacher", "student"):
        arch = _section(top[role], _ARCH, role)
        try:
            top[role] = ArchSpec(**arch)
        except ConfigError as err:  # ArchSpec's rules, which build_blocknet shares
            raise ConfigError(f"{role}: {err}") from None
    return DistillConfig(**top)


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
