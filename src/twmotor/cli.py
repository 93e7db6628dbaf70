"""Command-line front end.

Subcommands: eigen | run | sweep | roughness | validate.  Exit codes:
0 success, 2 config error, 3 numerical divergence (for a sweep: every row
failed), 4 run did not settle, 5 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import metrology, runner, sweep
from .config import ConfigError, RunConfig, load_config, phase_degrees_to_radians
from .dynamics import SimulationDiverged
from .materials import validate_piezo
from .plotting import svg_line_chart

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_NOT_SETTLED = 4
EXIT_IO = 5


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twmotor",
        description="Traveling-wave ultrasonic motor simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON run configuration file")
        p.add_argument("--out-dir", default=".", help="output directory")

    p = sub.add_parser("eigen", help="stator eigenfrequency table")
    add_common(p)
    p.add_argument("--n-elements", type=int)
    p.add_argument("--modes", type=int)

    p = sub.add_parser("run", help="transient motor run")
    add_common(p)
    p.add_argument("--cof", type=float)
    p.add_argument("--preload", type=float, help="preload in N")
    p.add_argument("--voltage", type=float)
    p.add_argument("--phase", help="channel B phase lead, degrees (e.g. -90deg)")
    p.add_argument("--frequency", type=float, help="drive frequency in Hz")
    p.add_argument("--duration", type=float, help="simulated time in s")

    p = sub.add_parser("sweep", help="parametric sweep")
    add_common(p)
    p.add_argument("--preset", choices=sweep.PRESET_NAMES)
    p.add_argument("--param", choices=sweep.PARAMETER_UNITS)
    p.add_argument("--values", help="grid as start:stop:step (inclusive)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes; each lockstep batch of rows is split "
                        "into up to this many parts")
    p.add_argument("--plot", action="store_true", help="emit an SVG line plot")
    p.add_argument("--duration", type=float, help="simulated time per run in s")

    p = sub.add_parser("roughness", help="areal roughness report from CSV maps")
    p.add_argument("paths", nargs="+", help="height-map CSV files (um)")
    p.add_argument("--dx", type=float, required=True, help="pixel pitch x, um")
    p.add_argument("--dy", type=float, required=True, help="pixel pitch y, um")
    p.add_argument("--out", help="JSON report path (default: stdout)")

    p = sub.add_parser("validate", help="validate a configuration and materials")
    p.add_argument("--config")
    return parser


def _strict_json(data) -> str:
    """JSON text of a summary, with non-finite numbers written as null.

    Values are numbers, strings, booleans, None, or lists of such flat
    records (the ``samples`` of a roughness report).
    """
    def clean(record):
        return {k: None if isinstance(v, float) and not math.isfinite(v) else v
                for k, v in record.items()}

    clean_data = {k: [clean(r) for r in v] if isinstance(v, list) else v
                  for k, v in clean(data).items()}
    return json.dumps(clean_data, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _load(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    drive = {}
    if getattr(args, "cof", None) is not None:
        config = config.override(contact={"cof": args.cof})
    if getattr(args, "preload", None) is not None:
        config = config.override(rotor={"preload": args.preload})
    if getattr(args, "voltage", None) is not None:
        drive["voltage"] = args.voltage
    if getattr(args, "phase", None) is not None:
        drive["phase_offset"] = phase_degrees_to_radians(args.phase)
    if getattr(args, "frequency", None) is not None:
        drive["frequency"] = args.frequency
    if drive:
        config = config.override(drive=drive)
    if getattr(args, "duration", None) is not None:
        config = config.override(simulation={"duration": args.duration})
    if getattr(args, "n_elements", None) is not None:
        config = config.override(mesh={"n_elements": args.n_elements})
    if getattr(args, "modes", None) is not None:
        config = config.override(mesh={"modes": args.modes})
    return config


def _cmd_eigen(args) -> int:
    config = _load(args)
    model = runner.build_stator(config)
    n = config.geometry.drive_nodal_diameters
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["mode,frequency_hz,nodal_diameters,drive_pair"]
    print(f"{'mode':>4} {'frequency [Hz]':>16} {'n':>3}  drive pair")
    for i, (f, lab) in enumerate(zip(model.modes.frequencies_hz, model.modes.labels)):
        flag = "*" if lab == n else ""
        print(f"{i:>4} {f:>16.4f} {lab:>3}  {flag}")
        lines.append(f"{i},{f:.17g},{lab},{int(lab == n)}")
    (out_dir / "eigenfrequencies.csv").write_text("\n".join(lines) + "\n")
    print(f"drive pair n={n} at {model.pair.frequency_hz:.1f} Hz")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = _load(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        series, summary = runner.run_motor(config)
    except SimulationDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    series.to_csv(out_dir / "timeseries.csv")
    text = _strict_json(summary)
    (out_dir / "summary.json").write_text(text)
    print(text, end="")
    return EXIT_OK if summary["settled"] else EXIT_NOT_SETTLED


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        start, stop, step = (float(v) for v in text.split(":"))
    except ValueError:
        raise ConfigError(f"cannot parse grid {text!r}; expected start:stop:step") \
            from None
    if step <= 0 or stop < start:
        raise ConfigError("grid needs step > 0 and stop >= start")
    values = []
    v = start
    while v <= stop + 1e-9 * step:
        values.append(round(v, 12))
        v = start + len(values) * step
    return tuple(values)


def _cmd_sweep(args) -> int:
    config = _load(args)
    if args.preset:
        spec = sweep.make_preset(args.preset, config)
    elif args.param and args.values:
        spec = sweep.SweepSpec(args.param, _parse_grid(args.values), config)
    else:
        raise ConfigError("sweep needs --preset or both --param and --values")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    curve = sweep.run_sweep(spec, jobs=args.jobs)
    curve.to_csv(out_dir / "sweep.csv")
    if all(not r.ok for r in curve.rows):
        print(f"error: every sweep row failed; first: {curve.rows[0].error}",
              file=sys.stderr)
        return EXIT_DIVERGED
    try:
        peak = sweep.find_peak(curve)
        peak_summary = {"param": peak.param, "torque": peak.torque,
                        "unimodal": peak.unimodal,
                        "boundary_maximum": peak.boundary_maximum}
    except ValueError as exc:
        peak_summary = {"error": str(exc)}
    text = _strict_json(peak_summary)
    (out_dir / "peak.json").write_text(text)
    print(text, end="")
    if args.plot:
        unit = sweep.PARAMETER_UNITS[spec.parameter]
        svg = svg_line_chart(curve.column("param"),
                             {"torque": curve.column("torque")},
                             xlabel=f"{spec.parameter} [{unit}]",
                             ylabel="reported torque [N m]",
                             title=f"torque vs {spec.parameter}")
        (out_dir / "sweep.svg").write_text(svg)
    return EXIT_OK


def _cmd_roughness(args) -> int:
    for flag, pitch in (("--dx", args.dx), ("--dy", args.dy)):
        if not 0 < pitch < math.inf:
            raise ConfigError(f"pixel pitch {flag} must be finite and > 0, not {pitch:g}")

    def loaded_maps():
        """Each map in turn; after a failure, the rest are only checked."""
        failed = 0
        for path in args.paths:
            try:
                hmap = metrology.load_height_map(path, dx=args.dx, dy=args.dy)
            except (OSError, ValueError) as exc:
                print(f"error: {path}: {exc}", file=sys.stderr)
                failed += 1
            else:
                if not failed:
                    yield hmap
        if failed:
            raise OSError(f"{failed} of {len(args.paths)} height maps not read")

    report = metrology.roughness_report(
        loaded_maps(), labels=[Path(path).name for path in args.paths])
    text = _strict_json(report)
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return EXIT_OK


def _cmd_validate(args) -> int:
    config = load_config(args.config) if args.config else RunConfig()
    problems = []
    try:
        _, piezo = runner.resolve_materials(config)
    except ConfigError as exc:
        problems.append(str(exc))
    else:
        problems.extend(validate_piezo(piezo))
    if not problems:
        try:
            model = runner.build_stator(config)
            config.contact.check_resolution(model.pair.nodal_diameters)
        except (ConfigError, ValueError) as exc:
            problems.append(str(exc))
    try:
        runner.check_duration(config)
    except ConfigError as exc:
        problems.append(str(exc))
    if problems:
        for p in problems:
            print(f"invalid: {p}")
        return EXIT_CONFIG
    print("configuration valid")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "eigen": _cmd_eigen,
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "roughness": _cmd_roughness,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
