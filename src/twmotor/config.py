"""Run configuration: one JSON document driving every study stage.

Precedence is CLI flag > config file > built-in default.  The defaults
describe a USR30-like copper-stator motor; everything is overridable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace

from .contact import ContactConfig
from .dynamics import RotorConfig
from .materials import IsotropicMaterial, PiezoMaterial, lookup
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
    dt: float | None = None          # None = 1/(100 f_drive), the coarsest accepted

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
    # a catalog name or an inline entry, held as the material it resolves to
    stator_material: IsotropicMaterial | str | dict = "Copper"
    piezo_material: PiezoMaterial | str | dict = "PZT-5H"
    piezo_offset: float | None = None   # None = half the section thickness
    damping_ratio: float = 0.01
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        for key, kind in (("stator_material", IsotropicMaterial),
                          ("piezo_material", PiezoMaterial)):
            object.__setattr__(self, key, _resolve_material(getattr(self, key), kind, key))
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
        return cls().override(**data)

    def override(self, **sections) -> "RunConfig":
        """A copy with the given sections and top-level fields replaced.

        Usage: cfg.override(contact={"cof": 0.3}, drive={"voltage": 50}).
        Each section's object replaces the fields it names of this config's
        section, and a material is a catalog name or a complete inline entry.
        These are ``from_dict``'s rules, which is ``override`` on the default
        config: an unknown or mistyped key is a ConfigError naming it.
        """
        parts = {}
        try:
            for key in ("geometry", "mesh", "drive", "contact", "rotor", "simulation"):
                if key in sections:
                    sect, current = sections.pop(key), getattr(self, key)
                    _reject_unknown(type(current), sect, key)
                    _reject_mistyped(type(current), sect, key)
                    parts[key] = replace(current, **sect)
            _reject_unknown(type(self), sections, "top level")
            _reject_mistyped(type(self), sections)
            return replace(self, **parts, **sections)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc


def _resolve_material(entry, kind, key):
    """The material of a config's ``key``: a catalog name or an inline entry.

    A name must be in the catalog and of ``kind``.  An inline entry is an
    object holding each of ``kind``'s fields, checked as a section is.
    """
    if isinstance(entry, str):
        try:
            entry = lookup(entry)
        except KeyError as exc:
            raise ConfigError(exc.args[0]) from None
    elif isinstance(entry, dict):
        _reject_unknown(kind, entry, key)
        missing = {f.name for f in fields(kind)} - set(entry)
        if missing:
            raise ConfigError(f"missing key(s) in {key}: {', '.join(sorted(missing))}")
        _reject_mistyped(kind, entry, key)
        _reject_non_finite(entry, key)
        try:
            entry = kind(**entry)
        except ValueError as exc:
            raise ConfigError(f"{key}.{exc}") from None
    elif not isinstance(entry, (IsotropicMaterial, PiezoMaterial)):
        raise ConfigError(f"{key} must be a catalog name or an object, "
                          f"not {type(entry).__name__}")
    if not isinstance(entry, kind):
        raise ConfigError(f"{key}: {entry.name!r} is of kind {type(entry).__name__}; "
                          f"need {kind.__name__}")
    return entry


def _reject_non_finite(value, key=""):
    """Raise ConfigError naming the first NaN or infinite number in a config.

    Walks the sections' fields and the materials' fields; a key is named by
    its dotted path.
    """
    if is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in fields(value)}
    if isinstance(value, dict):
        for name, item in value.items():
            _reject_non_finite(item, f"{key}.{name}" if key else name)
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
    booleans; None passes where allowed.  A field's kinds are the names in
    its annotation, which ``from __future__ import annotations`` keeps as a
    string such as "float | None", and which is not evaluated.
    """
    annotations = {f.name: f.type.split(" | ") for f in fields(typ)}
    for name, value in data.items():
        kinds = annotations[name]
        if value is None and "None" in kinds:
            continue
        if "int" in kinds:
            accepted, noun = (int,), "an integer"
        elif "float" in kinds:
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
