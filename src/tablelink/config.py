"""Project configuration: one JSON file plus dotted-path flag overrides.

The default profile uses desk-scale settings; the named "paper" profile
pins the published hyper-parameters (margin 0.001, keep probability 0.75,
learning rate 1e-5 with 0.9 decay every 1000 batches, 200 trees, top-10).
"""

import dataclasses
import json
import math
import types
import typing
from dataclasses import dataclass, field

from .formats import unique_keys


class ConfigError(ValueError):
    """Raised when a configuration value is missing or out of bounds."""


# Each numeric config key -> the interval (opening bracket, low, high, closing bracket) that
# its value, or each element of its list, lies in; so a float is finite, never NaN or ±inf.
# A seed is packed as an i64 (the encoder key, the .idx header), and numpy seeds no
# generator with a negative one; the .idx header packs index.t and leaf_capacity as u32s.
SEED = ("[", 0, 2**63, ")")
U32 = ("[", 1, 2**32, ")")
# A size of what a command allocates: a hashing encoder with more slots has almost no
# collisions left to remove, and a layer this wide over the narrowest raw input (512
# mention columns) already holds 2 GiB of f32 weights.
SIZE = ("[", 1, 2**20, "]")
POSITIVE = ("[", 1, math.inf, ")")
FRACTION = ("(", 0, 1, ")")
BOUNDS = {
    "encoder.dim": SIZE,
    "encoder.seed": SEED,
    "network.hidden_r": SIZE,
    "network.hidden_t": SIZE,
    "network.joint_dim": SIZE,
    "training.margin": ("[", 0, math.inf, ")"),
    # Adam moves each parameter by about lr per step, so a rate above 1 overwrites the init
    "training.lr": ("(", 0, 1, "]"),
    "training.decay": ("(", 0, 1, "]"),
    "training.decay_every": POSITIVE,
    "training.keep_prob": ("(", 0, 1, "]"),
    "training.batch_size": SIZE,
    "training.batch_budget": ("[", 0, math.inf, ")"),
    "training.seed": SEED,
    "index.t": U32,
    "index.leaf_capacity": U32,
    "index.search_k": POSITIVE,
    "index.n": POSITIVE,
    "index.seed": SEED,
    "split.seed": SEED,
    "split.unseen_fraction": FRACTION,
    "split.test_fraction_of_seen": FRACTION,
    "eval_ks": POSITIVE,
}


def check(key, value, error=ConfigError):
    """``value``, checked to lie in ``BOUNDS[key]`` (a list element by element); else ``error``."""
    opening, low, high, closing = BOUNDS[key]
    for v in value if type(value) is list else (value,):
        above = low <= v if opening == "[" else low < v
        below = v <= high if closing == "]" else v < high
        if not (above and below):
            raise error(f"{key} must lie in {opening}{low}, {high}{closing}, got {value}")
    return value


@dataclass
class PathsConfig:
    corpus: str = ""
    workdir: str = ""


@dataclass
class EncoderConfig:
    dim: int = 256
    seed: int = 0


@dataclass
class NetworkConfig:
    hidden_r: list[int] = field(default_factory=lambda: [512])
    hidden_t: list[int] = field(default_factory=list)
    joint_dim: int = 256


@dataclass
class TrainingConfig:
    # Desk-scale defaults: the hashing-encoder inputs train from scratch, so
    # the margin and rate run much hotter than the published profile (which
    # assumed pre-trained sentence vectors); `--profile paper` restores it.
    margin: float = 1.0
    lr: float = 1e-3
    decay: float = 0.9
    decay_every: int = 1000
    keep_prob: float = 0.75
    batch_size: int = 32
    batch_budget: int = 2400
    seed: int = 0


@dataclass
class IndexConfig:
    t: int = 16
    leaf_capacity: int = 16
    search_k: int | None = None
    n: int = 10
    seed: int = 0


@dataclass
class SplitConfig:
    seed: int = 0
    unseen_fraction: float = 0.20
    test_fraction_of_seen: float = 0.20


@dataclass
class ProjectConfig:
    paths: PathsConfig = field(default_factory=PathsConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    index: IndexConfig = field(default_factory=IndexConfig)
    split: SplitConfig = field(default_factory=SplitConfig)
    strategy: str = "semantic"
    eval_ks: list[int] = field(default_factory=lambda: [1, 5, 10])
    name_attributes: dict[str, str] = field(default_factory=dict)  # category -> attribute

    def validate(self):
        for key, value in _values(self):
            if key in BOUNDS and value is not None:  # None: index.search_k unset
                check(key, value)
        if self.strategy not in ("exact", "semantic"):
            raise ConfigError(f"strategy must be 'exact' or 'semantic', got {self.strategy!r}")
        if not self.eval_ks or len(set(self.eval_ks)) < len(self.eval_ks):
            raise ConfigError(f"eval_ks must be nonempty and distinct, got {self.eval_ks}")
        return self

    def check_name_attributes(self, schemas):
        """Each ``name_attributes`` key must name a category of ``schemas`` and its value
        an attribute that category's schema declares."""
        for category, attr in self.name_attributes.items():
            if category not in schemas:
                raise ConfigError(f"name_attributes: {category!r} names no category of the "
                                  f"corpus; categories: {sorted(schemas)}")
            if attr not in schemas[category].attribute_names:
                raise ConfigError(f"name_attributes[{category!r}]: {attr!r} is not an "
                                  f"attribute of {category!r}")


def _values(section, parts=()):
    """(dotted key, value) of every field under ``section``, nested sections walked."""
    for f in dataclasses.fields(section):
        value = getattr(section, f.name)
        if dataclasses.is_dataclass(value):
            yield from _values(value, (*parts, f.name))
        else:
            yield ".".join((*parts, f.name)), value


PROFILES = {
    "desk": {},
    "paper": {
        "training": {"margin": 0.001, "lr": 1e-5, "decay": 0.9, "decay_every": 1000,
                     "keep_prob": 0.75},
        "index": {"t": 200, "n": 10},
    },
}


def apply_profile(config: ProjectConfig, profile: str):
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}; available: {sorted(PROFILES)}")
    return _assign(config, PROFILES[profile])


def _field(config, parts):
    """(section object, dataclass field) of the config key ``parts``; an unknown key raises."""
    owner = config
    for i, part in enumerate(parts):
        found = getattr(owner, "__dataclass_fields__", {}).get(part)
        if found is None:
            raise ConfigError(f"unknown config key {'.'.join(parts[: i + 1])!r}")
        if i == len(parts) - 1:
            return owner, found
        owner = getattr(owner, part)


def _assign(config, values, parts=()):
    """Set every key of the nested dict ``values``, checked against its field's type."""
    if not isinstance(values, dict):
        where = f"section {'.'.join(parts)!r}" if parts else "config"
        raise ConfigError(f"{where} must be a JSON object")
    for key, value in values.items():
        owner, found = _field(config, (*parts, key))
        if dataclasses.is_dataclass(found.type):
            _assign(config, value, (*parts, key))
        else:
            setattr(owner, key, _typed(value, found.type, ".".join((*parts, key))))
    return config


def _typed(value, annotation, where):
    """``value`` checked against a field annotation; an int is taken as a float for a float field."""
    options = typing.get_args(annotation) if isinstance(annotation, types.UnionType) else (annotation,)
    for option in options:
        kind, element = typing.get_origin(option) or option, typing.get_args(option)
        if kind is float and type(value) is int:
            return float(value)
        if type(value) is kind and not (element and any(
                type(v) is not element[-1] for v in (value.values() if kind is dict else value))):
            return value
    name = annotation.__name__ if isinstance(annotation, type) else annotation
    raise ConfigError(f"{where}: expected {name}, got {value!r}")


def apply_overrides(config: ProjectConfig, overrides):
    """Apply ``section.key=value`` strings; a value is parsed as JSON unless its field is a str."""
    for item in overrides or ():
        path, is_pair, value = item.partition("=")
        if not is_pair:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        owner, found = _field(config, path.split("."))
        if found.type is not str:
            try:
                value = json.loads(value, object_pairs_hook=unique_keys)
            except json.JSONDecodeError:
                pass
            except ValueError as exc:  # a repeated key, or an int past Python's digit limit
                raise ConfigError(f"override {item!r}: {exc}") from None
        setattr(owner, found.name, _typed(value, found.type, f"override {item!r}"))
    return config


def load_config(path, profile=None, overrides=None):
    with open(path, encoding="utf-8") as f:
        try:
            raw = json.load(f, object_pairs_hook=unique_keys)
        except ValueError as exc:  # malformed JSON, a repeated key or not UTF-8
            raise ConfigError(f"{path}: not a valid JSON config ({exc})") from None
    config = _assign(ProjectConfig(), raw)
    if profile:
        apply_profile(config, profile)
    apply_overrides(config, overrides)
    return config.validate()

