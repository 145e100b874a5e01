"""Experiment configuration: flat key = value files and CLI mirroring."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import List

from .channel import VACUUM_PERMEABILITY, CoilParams, GlobalParams
from .estimators import parse_init_strategy
from .geometry import Deployment, Room
from .scenario import Scheme, check_topology, default_anchors, load_topology

ESTIMATORS = ("numls", "pairml", "turbols", "multilateration")
SCHEMES = ("coop", "noncoop")


class ConfigError(ValueError):
    """Invalid configuration file or option value."""


def parse_agent_spec(spec) -> List[int]:
    """Parse an agent-count spec: '10', '1..10' or '1,5,10', each count at most once."""
    text = str(spec).strip()
    try:
        if ".." in text:
            lo, hi = text.split("..")
            values = list(range(int(lo), int(hi) + 1))
        elif "," in text:
            values = [int(v) for v in text.split(",")]
        else:
            values = [int(text)]
    except ValueError as exc:
        raise ConfigError(f"bad agent spec {spec!r}") from exc
    if not values:
        raise ConfigError(f"agent range {spec!r} is empty")
    if any(v < 1 for v in values):
        raise ConfigError(f"agent counts must be >= 1, got {spec!r}")
    if len(set(values)) < len(values):
        raise ConfigError(f"agent counts repeat in {spec!r}")
    return values


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment parameters with the reference-setup defaults."""

    room_size_m: float = 1.5
    anchor_layout: str = "default"
    nu: int = 5
    diameter_m: float = 0.05
    resistance_ohm: float = 1.0
    frequency_hz: float = 500e3
    mu: float = VACUUM_PERMEABILITY
    sigma: float = 1e-5
    min_dist_factor: float = 3.0
    agents: str = "1..10"
    topologies: int = 100
    noise: int = 20
    scheme: str = "coop"
    estimator: str = "numls"
    init: str = "perfect"
    seed: int = 0
    out: str = "out"

    def __post_init__(self):
        # written so that NaN fails every check
        for name in ("room_size_m", "diameter_m", "resistance_ohm", "frequency_hz", "mu", "sigma"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite")
        if self.nu < 1:
            raise ConfigError("nu must be a positive integer")
        if not 0 <= self.min_dist_factor < math.inf:
            raise ConfigError("min_dist_factor must be non-negative and finite")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.topologies < 1 or self.noise < 1:
            raise ConfigError("topologies and noise counts must be >= 1")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {SCHEMES}")
        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"estimator must be one of {ESTIMATORS}")
        parse_agent_spec(self.agents)
        try:
            parse_init_strategy(self.init)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.init != "perfect" and self.estimator != "numls":
            raise ConfigError(f"init {self.init!r} applies to numls only, not to {self.estimator}")

    # -- derived objects -----------------------------------------------------

    def room(self) -> Room:
        return Room.cube(self.room_size_m)

    def coil(self) -> CoilParams:
        return CoilParams(turns=self.nu, diameter=self.diameter_m, resistance=self.resistance_ohm)

    def global_params(self) -> GlobalParams:
        return GlobalParams(frequency=self.frequency_hz, permeability=self.mu, noise_sigma=self.sigma)

    def anchors(self) -> List[Deployment]:
        """The default anchors, or the anchor_layout file's anchors, checked alone in room()."""
        if self.anchor_layout == "default":
            return default_anchors(self.room())
        path = Path(self.anchor_layout)
        if not path.exists():
            raise ConfigError(f"anchor_layout file not found: {path}")
        try:
            topo = load_topology(path, room=self.room())
        except ValueError as exc:
            raise ConfigError(f"anchor_layout file {path}: {exc}") from exc
        if not topo.anchors:
            raise ConfigError(f"anchor_layout file {path} contains no anchors")
        anchors_only = replace(topo, positions=topo.positions[:0], rotations=topo.rotations[:0])
        problems = check_topology(anchors_only, self.min_distance())
        if problems:
            raise ConfigError(f"anchor_layout file {path}: {problems[0]}")
        return topo.anchors

    def min_distance(self) -> float:
        return self.min_dist_factor * self.diameter_m

    def agent_counts(self) -> List[int]:
        return parse_agent_spec(self.agents)

    def scheme_enum(self) -> Scheme:
        return Scheme(self.scheme)

    # -- serialization ---------------------------------------------------------

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        values = {}
        for key, raw in mapping.items():
            if key not in known:
                raise ConfigError(f"unknown configuration key {key!r}")
            kind = type(getattr(cls, key))  # int, float or str, as the default
            try:
                values[key] = kind(raw)
            except ValueError as exc:
                expected = "an integer" if kind is int else "a number"
                raise ConfigError(f"key {key!r} expects {expected}") from exc
        return cls(**values)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        mapping = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            mapping[key.strip()] = value.strip()
        return cls.from_mapping(mapping)

    def override(self, **kwargs) -> "ExperimentConfig":
        updates = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **updates) if updates else self

    def echo(self) -> str:
        """Render the fully resolved configuration as key = value lines."""
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float):
                lines.append(f"{f.name} = {value:.12g}")
            else:
                lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"
