"""Experiment configuration: flat key = value files and CLI mirroring."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import List

from .channel import VACUUM_PERMEABILITY, CoilParams, GlobalParams
from .estimators import parse_init_strategy
from .geometry import Deployment, Room
from .scenario import Scheme, default_anchors, load_topology

ESTIMATORS = ("numls", "pairml", "turbols", "multilateration")
SCHEMES = ("coop", "noncoop")


class ConfigError(ValueError):
    """Invalid configuration file or option value."""


def parse_agent_spec(spec) -> List[int]:
    """Parse an agent-count spec: '10', '1..10' or '1,5,10'."""
    if isinstance(spec, int):
        return [spec]
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
    if not values or any(v < 1 for v in values):
        raise ConfigError(f"agent counts must be >= 1, got {spec!r}")
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
        for name in ("room_size_m", "diameter_m", "resistance_ohm", "frequency_hz", "mu", "sigma"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.nu < 1:
            raise ConfigError("nu must be a positive integer")
        if self.min_dist_factor < 0:
            raise ConfigError("min_dist_factor must be non-negative")
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

    # -- derived objects -----------------------------------------------------

    def room(self) -> Room:
        return Room.cube(self.room_size_m)

    def coil(self) -> CoilParams:
        return CoilParams(turns=self.nu, diameter=self.diameter_m, resistance=self.resistance_ohm)

    def global_params(self) -> GlobalParams:
        return GlobalParams(frequency=self.frequency_hz, permeability=self.mu, noise_sigma=self.sigma)

    def anchors(self) -> List[Deployment]:
        if self.anchor_layout == "default":
            return default_anchors(self.room())
        path = Path(self.anchor_layout)
        if not path.exists():
            raise ConfigError(f"anchor_layout file not found: {path}")
        topo = load_topology(path, room=self.room())
        if not topo.anchors:
            raise ConfigError(f"anchor_layout file {path} contains no anchors")
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
        known = {f.name: f.type for f in fields(cls)}
        values = {}
        for key, raw in mapping.items():
            if key not in known:
                raise ConfigError(f"unknown configuration key {key!r}")
            default = getattr(cls, key)
            if isinstance(default, int):
                try:
                    values[key] = int(raw)
                except ValueError as exc:
                    raise ConfigError(f"key {key!r} expects an integer") from exc
            elif isinstance(default, float):
                try:
                    values[key] = float(raw)
                except ValueError as exc:
                    raise ConfigError(f"key {key!r} expects a number") from exc
            else:
                values[key] = str(raw)
        return cls(**values)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        mapping = {}
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
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
