"""Run configuration: one JSON document driving every study stage.

Precedence is CLI flag > config file > built-in default.  The defaults
describe a USR30-like copper-stator motor; everything is overridable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import get_args, get_type_hints

from .contact import ContactConfig
from .dynamics import RotorConfig
from .stator import StatorGeometry
from .wave import DriveConfig

__all__ = ["ConfigError", "MeshSettings", "SimulationSettings", "RunConfig",
           "load_config"]

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid or unresolvable run configuration."""


@dataclass(frozen=True)
class MeshSettings:
    n_elements: int = 64
    modes: int = 13


@dataclass(frozen=True)
class SimulationSettings:
    duration: float = 5e-3
    output_interval: float = 1e-5
    dt: float | None = None          # None = 1/(400 f_drive)

    def __post_init__(self):
        if self.duration <= 0 or self.output_interval <= 0:
            raise ConfigError("duration and output_interval must be > 0")
        if self.dt is not None and self.dt <= 0:
            raise ConfigError("dt must be > 0")


@dataclass(frozen=True)
class RunConfig:
    """Complete description of one motor study."""

    geometry: StatorGeometry = field(default_factory=lambda: StatorGeometry(
        mean_radius=0.0125, section_width=0.005, section_thickness=0.0025,
        tooth_height=0.001, drive_nodal_diameters=4))
    mesh: MeshSettings = field(default_factory=MeshSettings)
    drive: DriveConfig = field(default_factory=DriveConfig)
    contact: ContactConfig = field(default_factory=ContactConfig)
    rotor: RotorConfig = field(default_factory=RotorConfig)
    simulation: SimulationSettings = field(default_factory=SimulationSettings)
    stator_material: str = "Copper"
    piezo_material: str = "PZT-5H"
    piezo_offset: float | None = None   # None = half the section thickness
    damping_ratio: float = 0.01
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        _reject_non_finite(self)
        if self.damping_ratio <= 0:
            raise ConfigError("damping_ratio must be > 0")
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {self.schema_version}")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """A config from a JSON document; a section's missing keys keep the defaults.

        Each section given replaces fields of the default config's own
        section, so a partial ``geometry`` keeps the default motor's other
        dimensions, not ``StatorGeometry``'s class defaults.
        """
        data = dict(data)
        parts = {}
        defaults = cls()
        try:
            for key in ("geometry", "mesh", "drive", "contact", "rotor", "simulation"):
                if key in data:
                    sect, default = data.pop(key), getattr(defaults, key)
                    _reject_unknown(type(default), sect, key)
                    _reject_mistyped(type(default), sect, key)
                    parts[key] = replace(default, **sect)
            _reject_unknown(cls, data, "top level")
            _reject_mistyped(cls, data)
            return cls(**parts, **data)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    def override(self, **sections) -> "RunConfig":
        """Return a copy with per-section field overrides.

        Usage: cfg.override(contact={"cof": 0.3}, drive={"voltage": 50}).
        """
        updates = {}
        for key, vals in sections.items():
            if vals is None:
                continue
            current = getattr(self, key)
            if isinstance(vals, dict):
                updates[key] = replace(current, **vals)
            else:
                updates[key] = vals
        try:
            return replace(self, **updates)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc


def _reject_non_finite(value, key=""):
    """Raise ConfigError naming the first NaN or infinite number in a config.

    Walks the sections' fields and inline material entries, with their
    lists; a key is named by its dotted path.
    """
    if is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in fields(value)}
    if isinstance(value, dict):
        for name, item in value.items():
            _reject_non_finite(item, f"{key}.{name}" if key else name)
    elif isinstance(value, list):
        for item in value:
            _reject_non_finite(item, key)
    elif isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, not {value}")


def _reject_unknown(typ, data, where):
    if not isinstance(data, dict):
        raise ConfigError(f"section {where!r} must be an object")
    known = {f.name for f in fields(typ)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _reject_mistyped(typ, data, where=""):
    """Raise ConfigError naming the first value not of its field's declared type.

    Integer fields take integers, number fields integers or floats, never
    booleans; None passes where allowed.  Material entries are not checked.
    """
    hints = get_type_hints(typ)
    for name, value in data.items():
        kinds = get_args(hints[name]) or (hints[name],)
        if value is None and type(None) in kinds:
            continue
        if int in kinds:
            accepted, noun = (int,), "an integer"
        elif float in kinds:
            accepted, noun = (int, float), "a number"
        else:
            continue
        if isinstance(value, bool) or not isinstance(value, accepted):
            key = f"{where}.{name}" if where else name
            raise ConfigError(f"{key} must be {noun}, not {value!r}")


def load_config(path) -> RunConfig:
    """Parse a JSON config file into a RunConfig."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return RunConfig.from_dict(data)


def phase_degrees_to_radians(text: str) -> float:
    """Parse a CLI phase value like '-90deg' or '45' (degrees) to radians."""
    text = text.strip().lower()
    if text.endswith("deg"):
        text = text[:-3]
    try:
        return math.radians(float(text))
    except ValueError as exc:
        raise ConfigError(f"cannot parse phase {text!r}") from exc
