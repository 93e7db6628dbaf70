"""The record contract: every record class is a ``Record``, frozen,
rebuilt through ``__post_init__`` by ``dataclasses.replace``, equal and
hashed by its fields, and shown without its ``repr=False`` fields."""

import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import twmotor
from twmotor import metrology, wave
from twmotor.contact import ContactConfig
from twmotor.record import Record
from twmotor.sweep import SweepCurve, SweepRow, SweepSpec

MODULES = [importlib.import_module(f"twmotor.{m.name}")
           for m in pkgutil.iter_modules(twmotor.__path__)]
RECORDS = sorted({cls for module in MODULES for _, cls in inspect.getmembers(
    module, inspect.isclass) if issubclass(cls, Record) and cls is not Record},
    key=lambda cls: cls.__name__)
# records with array fields, which compare by identity and do not hash
HOLDS_ARRAYS = {"ModeSet", "StatorModel", "MotorTimeSeries", "HeightMap"}
ids = [cls.__name__ for cls in RECORDS]


@pytest.fixture(scope="module")
def examples(default_config, stator_model, default_run):
    """One record of each class, keyed by class name."""
    series, _ = default_run
    hmap = metrology.HeightMap(np.arange(12.0).reshape(3, 4), 1.0, 2.0)
    row = SweepRow(param=1.0, torque=0.1, speed=2.0, t_ss=1e-3, settled=True)
    records = [
        default_config, *(getattr(default_config, f.name)
                          for f in dataclasses.fields(default_config)),
        stator_model, stator_model.modes, stator_model.pair,
        wave.steady_wave_response(stator_model.pair, 1.0, default_config.drive, 0.01),
        series, series.energy, hmap, metrology.areal_params(metrology.level_mean_plane(hmap)),
        SweepSpec("cof", (0.1, 0.2, 0.3)), row, SweepCurve("cof", (row,)),
    ]
    return {type(r).__name__: r for r in records if isinstance(r, Record)}


def test_every_record_class_is_a_record():
    """Each dataclass in the package is a ``Record``, and none defines
    the methods the base writes once: a class that did would pay its
    code generation again at every start-up."""
    dataclasses_found = {cls for module in MODULES for _, cls in inspect.getmembers(
        module, inspect.isclass) if dataclasses.is_dataclass(cls)}
    assert dataclasses_found == set(RECORDS)
    assert len(RECORDS) == 20
    for cls in RECORDS:
        own = {"__init__", "__eq__", "__hash__", "__repr__", "__setattr__",
               "__delattr__"} & set(vars(cls))
        assert not own, f"{cls.__name__} defines {own}"


def test_examples_cover_every_record(examples):
    assert set(examples) == set(ids)


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_fields_are_frozen(cls, examples):
    record = examples[cls.__name__]
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError, match=repr(f.name)):
            setattr(record, f.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError, match=repr(f.name)):
            delattr(record, f.name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.unknown = 1


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_repr_leaves_out_hidden_fields(cls, examples):
    record = examples[cls.__name__]
    text = repr(record)
    assert text.startswith(f"{cls.__qualname__}(") and text.endswith(")")
    for f in dataclasses.fields(cls):
        shown = f"{f.name}={getattr(record, f.name)!r}"
        assert (shown in text) == f.repr, f.name


@pytest.mark.parametrize("cls", [c for c in RECORDS if c.__name__ not in HOLDS_ARRAYS],
                         ids=[n for n in ids if n not in HOLDS_ARRAYS])
def test_value_records_equal_and_hash_by_fields(cls, examples):
    record = examples[cls.__name__]
    twin = dataclasses.replace(record)
    by_position = cls(*(getattr(record, f.name) for f in dataclasses.fields(cls)))
    for other in (twin, by_position):
        assert other is not record
        assert other == record and hash(other) == hash(record)
    assert record != dataclasses.astuple(record)


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_constructor_names_a_bad_argument(cls, examples):
    """An unknown, missing, repeated or extra argument is a TypeError
    naming the class and, where there is one, the field."""
    record = examples[cls.__name__]
    kwargs = {f.name: getattr(record, f.name) for f in dataclasses.fields(cls)}
    with pytest.raises(TypeError, match=f"{cls.__name__}.*'bogus'"):
        cls(**kwargs, bogus=1)
    required = [f.name for f in dataclasses.fields(cls)
                if f.default is f.default_factory is dataclasses.MISSING]
    for name in required:
        with pytest.raises(TypeError, match=f"{cls.__name__}.*missing.*'{name}'"):
            cls(**{k: v for k, v in kwargs.items() if k != name})
    first = dataclasses.fields(cls)[0].name
    with pytest.raises(TypeError, match=f"'{first}'"):
        cls(kwargs[first], **kwargs)
    with pytest.raises(TypeError, match=cls.__name__):
        cls(*kwargs.values(), None)


def test_replace_runs_post_init_again():
    """``dataclasses.replace`` builds through the constructor, so a
    record's own domain still refuses an out-of-range field."""
    config = ContactConfig()
    assert dataclasses.replace(config, point_count=64).point_count == 64
    with pytest.raises(ValueError, match="point_count must be >= 4"):
        dataclasses.replace(config, point_count=2)
    with pytest.raises(ValueError, match="exceeds its bound"):
        dataclasses.replace(config, point_count=2 ** 14 + 1)


def test_defaults_and_factories_fill_missing_fields(default_config):
    spec = SweepSpec("cof", (0.1, 0.2, 0.3))
    assert spec.base == default_config and spec.base is not SweepSpec("cof", (1, 2, 3)).base
    assert SweepRow(1.0, 0.1, 2.0, 1e-3, True).ok is True

