"""Run configuration: one JSON document driving every study stage.

Precedence is CLI flag > config file > built-in default.  The defaults
describe a USR30-like copper-stator motor; everything is overridable.
"""

from __future__ import annotations

import json
import math
from dataclasses import field, fields, is_dataclass, replace

from .contact import ContactConfig
from .dynamics import RotorConfig
from .materials import IsotropicMaterial, PiezoMaterial, lookup
from .record import Record
from .stator import StatorGeometry
from .wave import DriveConfig

__all__ = ["ConfigError", "MeshSettings", "SimulationSettings", "RunConfig",
           "load_config"]

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid or unresolvable run configuration."""


class MeshSettings(Record):
    """Ring mesh size and how many modes ``eigen`` lists."""

    n_elements: int = 64
    modes: int = 13


class SimulationSettings(Record):
    """Transient length, sampling interval and time step (s)."""

    duration: float = 5e-3
    output_interval: float = 1e-5
    dt: float | None = None          # None = 1/(100 f_drive), the coarsest accepted

    def __post_init__(self):
        for key in ("duration", "output_interval"):
            if getattr(self, key) <= 0:
                raise ConfigError(f"{key} must be > 0")
        if self.dt is not None and self.dt <= 0:
            raise ConfigError("dt must be > 0")


class RunConfig(Record):
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
        config: an unknown, mistyped or out-of-range key is a ConfigError
        naming it.
        """
        for key in ("geometry", "mesh", "drive", "contact", "rotor", "simulation"):
            if key in sections:
                sections[key] = _parse_record(sections[key], getattr(self, key), key)
        return _parse_record(sections, self)


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
        entry = _parse_record(entry, kind, key)
    elif not isinstance(entry, (IsotropicMaterial, PiezoMaterial)):
        raise ConfigError(f"{key} must be a catalog name or an object, "
                          f"not {type(entry).__name__}")
    if not isinstance(entry, kind):
        raise ConfigError(f"{key}: {entry.name!r} is of kind {type(entry).__name__}; "
                          f"need {kind.__name__}")
    return entry


# an annotation's kind: the values it accepts and their name in a refusal
_KINDS = {"int": ((int,), "an integer"), "float": ((int, float), "a number"),
          "str": ((str,), "a string")}


def _parse_record(data, base, key=""):
    """The record a JSON object describes: ``base`` with the object's fields
    replaced, or, if ``base`` is a record type, the record of every field.

    An unknown key, or a missing one where the record is built whole, is
    refused.  Each value must be of a kind its field's annotation names:
    an integer for ``int``, a finite integer or float for ``float``, a
    string for ``str``, never a boolean, and None where ``None`` is named.
    The annotation is the string ``from __future__ import annotations``
    keeps, such as "float | None", split on " | " and not evaluated.  A
    field whose annotation names a record type, a section or a material,
    is left to its own parser.  Every refusal, the record's own range
    errors included, is a ConfigError naming its key by the dotted path
    under ``key`` ("" for the top level).
    """
    if not isinstance(data, dict):
        raise ConfigError(f"section {key!r} must be an object")
    typ = base if isinstance(base, type) else type(base)
    annotations = {f.name: f.type.split(" | ") for f in fields(typ)}
    unknown = set(data) - set(annotations)
    if unknown:
        raise ConfigError(f"unknown key(s) in {key or 'top level'}: "
                          f"{', '.join(sorted(unknown))}")
    missing = set(annotations) - set(data) if typ is base else None
    if missing:
        raise ConfigError(f"missing key(s) in {key}: {', '.join(sorted(missing))}")
    for name, value in data.items():
        kinds = annotations[name]
        if value is None and "None" in kinds or not set(kinds) <= {*_KINDS, "None"}:
            continue
        accepted, noun = next(_KINDS[kind] for kind in _KINDS if kind in kinds)
        dotted = f"{key}.{name}" if key else name
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ConfigError(f"{dotted} must be {noun}, not {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{dotted} must be a finite number, not {value}")
    try:
        return base(**data) if typ is base else replace(base, **data)
    except ValueError as exc:
        raise ConfigError(f"{key}.{exc}" if key else str(exc)) from None


def _reject_non_finite(record, key=""):
    """Raise ConfigError naming the first NaN or infinite number in a record.

    Walks the fields of a config, its sections and its materials; a key is
    named by its dotted path.
    """
    for f in fields(record):
        value, name = getattr(record, f.name), f"{key}.{f.name}" if key else f.name
        if is_dataclass(value):
            _reject_non_finite(value, name)
        elif isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{name} must be a finite number, not {value}")


def load_config(path) -> RunConfig:
    """Parse a JSON config file into a RunConfig."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from exc
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
