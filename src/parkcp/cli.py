"""Command-line entry point: scenario generation, simulation, coverage.

Configuration lives in a JSON file whose sections mirror the run-config
dataclasses; command-line flags override file values. Unknown keys and
wrongly typed values are rejected so typos fail fast. All randomness flows
from a single seed.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields, is_dataclass, replace

from .coverage import (
    DSRC_CLASSES,
    TransitArea,
    coverage_report,
    format_coverage_csv,
    parse_area,
    parse_points,
)
from .errors import ConfigError, ParkCPError
from .harness import (
    Algorithm,
    RunConfig,
    ensemble,
    format_results_csv,
    format_steps_csv,
    summary_rows,
)
from .model import MotionKind, Position2D
from .scenario import (
    GENERATORS,
    TRACE_HEADER,
    ChokePoint,
    ScenarioConfig,
    generate,
    parse_trace,
    serialize_trace,
)

_DEFAULTS = RunConfig()
_JSON_TYPES = {"int": int, "float": float, "bool": bool, "str": str}


def _schema(cls) -> dict[str, type | None]:
    """Field name -> JSON scalar type (None for structured fields) of a
    config dataclass."""
    return {f.name: _JSON_TYPES.get(getattr(f.type, "__name__", f.type)) for f in fields(cls)}


_TOP_SCHEMA = {**_schema(RunConfig), "algorithm": str, "coverage": None}
_ALGORITHMS = (*(a.value for a in Algorithm), "both")
# a config section for each dataclass-valued RunConfig field, and coverage
_SECTION_SCHEMAS = {
    **{f.name: _schema(type(value)) for f in fields(RunConfig)
       if is_dataclass(value := getattr(_DEFAULTS, f.name))},
    "coverage": {"cell_size": float},
}


def _has_type(value, expected: type) -> bool:
    """JSON type check: bools only for bool fields, ints also for floats."""
    if isinstance(value, bool) or expected is bool:
        return isinstance(value, bool) and expected is bool
    return isinstance(value, (int, float) if expected is float else expected)


def _check_keys(section: dict, schema: dict[str, type | None], context: str) -> None:
    """Reject unknown keys and wrongly typed scalars; JSON ints given for
    float fields become floats, so ``100`` and ``100.0`` configure alike."""
    unknown = set(section) - set(schema)
    if unknown:
        raise ConfigError(f"unknown {context} keys: {', '.join(sorted(unknown))}")
    for key, value in section.items():
        expected = schema[key]
        if expected is not None and not _has_type(value, expected):
            raise ConfigError(
                f"{context} key {key!r} must be {expected.__name__}, got {value!r}"
            )
        if expected is float:
            try:
                section[key] = float(value)
            except OverflowError:
                raise ConfigError(f"{context} key {key!r} is out of range: {value}") from None


def load_config(path: str) -> dict:
    """Read and structurally validate a JSON config file."""

    def finite(literal: str) -> float:
        # json reads NaN, Infinity and -Infinity, and overflows 1e999 to inf
        value = float(literal)
        if not math.isfinite(value):
            raise ConfigError(f"config file {path} has a non-finite number: {literal}")
        return value

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_float=finite, parse_constant=finite)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(raw, _TOP_SCHEMA, "top-level")
    for key, schema in _SECTION_SCHEMAS.items():
        if key in raw:
            if not isinstance(raw[key], dict):
                raise ConfigError(f"config section {key!r} must be an object")
            _check_keys(raw[key], schema, key)
    return raw


def _merged(values: dict, **flags) -> dict:
    """``values`` overridden by the flags that are given."""
    return {**values, **{k: v for k, v in flags.items() if v is not None}}


def _number(value, where: str, expected: type = float):
    """JSON number ``value`` of the key that ``where`` names, as
    ``expected``: never a string or a bool, and only an int for an int."""
    if not _has_type(value, expected):
        raise ConfigError(f"{where} entries must be {expected.__name__}, got {value!r}")
    try:
        return expected(value)
    except OverflowError:
        raise ConfigError(f"{where} is out of range: {value}") from None


def _array(value, where: str, length: int | None = None) -> list:
    """JSON array ``value`` of what ``where`` names, of ``length`` entries
    when given."""
    if not isinstance(value, list) or length is not None and len(value) != length:
        size = "" if length is None else f" of {length}"
        raise ConfigError(f"{where} must be an array{size}, got {value!r}")
    return value


# how a section's structured JSON values become field values, by field name;
# each is given the value and the words that name its key in an error
_CONVERT = {
    "circuit": lambda v, at: tuple(
        Position2D(*(_number(c, at) for c in _array(p, f"{at} entries", 2)))
        for p in _array(v, at)
    ),
    "area": lambda v, at: tuple(_number(c, at) for c in _array(v, at)),
    "choke_points": lambda v, at: tuple(
        ChokePoint(_number(x, at), _number(y, at), _number(r, at), _number(h, at, int))
        for x, y, r, h in (_array(p, f"{at} entries", 4) for p in _array(v, at))
    ),
}


def _section(raw: dict, name: str, base, **flags):
    """``base`` with the keys that config section ``name`` names replaced,
    then those of the flags that are given: flag over file over ``base``.
    A value that the section's class rejects is a ConfigError naming it."""
    values = _merged(raw.get(name, {}), **flags)
    try:
        return replace(base, **{k: _CONVERT[k](v, f"{name} key {k!r}") if k in _CONVERT else v
                                for k, v in values.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config section {name!r}: {exc}") from None


def _scenario(raw: dict, **flags) -> ScenarioConfig:
    """The scenario section; its seed is the flag, else ``scenario.seed``,
    else the top-level ``seed``, else RunConfig's default."""
    section = {**{k: raw[k] for k in ("seed",) if k in raw}, **raw.get("scenario", {})}
    return _section({"scenario": section}, "scenario", _DEFAULTS.scenario, **flags)


def run_config_from_config(
    raw: dict,
    algorithm: Algorithm,
    range_std: float | None,
    zone_radius: float | None,
    n_runs: int | None,
    seed: int | None,
) -> RunConfig:
    """RunConfig built directly, so that its defaults, including the noise-
    and scenario-derived EKF ones, are the only ones; file sections and
    flags override only the keys they name."""
    top = _merged({k: raw[k] for k in ("n_runs", "seed") if k in raw}, n_runs=n_runs, seed=seed)
    cfg = RunConfig(
        algorithm=algorithm,
        scenario=_scenario(raw, seed=seed),
        noise=_section(raw, "noise", _DEFAULTS.noise, range_std=range_std),
        **top,
    )
    return replace(
        cfg,
        zone=_section(raw, "zone", cfg.zone, radius=zone_radius),
        policy=_section(raw, "policy", cfg.policy),
        gcpso=_section(raw, "gcpso", cfg.gcpso),
        ekf=_section(raw, "ekf", cfg.ekf),
    )


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gen(args) -> int:
    scenario = _scenario(load_config(args.config), kind=args.kind, seed=args.seed)
    records = generate(scenario)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(serialize_trace(records))
    kinds = {k: sum(1 for r in records if r.kind is k) for k in MotionKind}
    print(
        f"wrote {args.out}: {len(records)} vehicles "
        f"(moving={kinds[MotionKind.MOVING]} queued={kinds[MotionKind.QUEUED]} "
        f"parked={kinds[MotionKind.PARKED]})"
    )
    return 0


def cmd_sim(args) -> int:
    raw = load_config(args.config)
    # the flag, else the config's "algorithm", else both
    algorithm = args.algorithm or raw.get("algorithm", "both")
    if algorithm not in _ALGORITHMS:
        raise ConfigError(
            f"top-level key 'algorithm' must be one of {', '.join(_ALGORITHMS)}, "
            f"got {algorithm!r}"
        )
    algorithms = list(Algorithm) if algorithm == "both" else [Algorithm(algorithm)]
    sigmas = args.sigma_r or [None]  # None: the config's noise.range_std
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")

    records = None
    if args.trace is not None:
        with open(args.trace, "r", encoding="utf-8") as fh:
            records = parse_trace(fh.read())

    summaries = [
        ensemble(run_config_from_config(raw, algorithm, sigma, args.zone, args.n_runs, args.seed),
                 records, jobs=args.jobs, keep_episodes=args.dump_steps)
        for algorithm in algorithms
        for sigma in sigmas
    ]
    all_rows = [r for summary in summaries for r in summary_rows(summary)]

    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(format_results_csv(all_rows))
    if args.dump_steps:
        stem = args.out[:-4] if args.out.endswith(".csv") else args.out
        steps_path = stem + ".steps.csv"
        with open(steps_path, "w", encoding="utf-8") as fh:
            fh.write(format_steps_csv(summaries))
        print(f"wrote per-step dump {steps_path}")

    print(f"{'algorithm':<10}{'sigma_r':>8}  {'vehicle':>7}  "
          f"{'mode':<12}{'rmse':>8}{'std':>8}  improvement")
    for r in all_rows:
        imp = "" if r.improvement_pct is None else f"{r.improvement_pct:.2f}%"
        print(
            f"{r.algorithm.value:<10}{r.range_std:>8.2f}  {r.vehicle_id:>7}  "
            f"{r.mode.value:<12}{r.rmse_mean:>8.3f}{r.rmse_std:>8.3f}  {imp}"
        )
    print(f"wrote {args.out}")
    return 0


def _load_parked(path: str) -> list[Position2D]:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    for raw_line in text.removeprefix("\ufeff").splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line == TRACE_HEADER:
            records = parse_trace(text)
            return [r.positions[0] for r in records if r.kind is MotionKind.PARKED]
        return parse_points(text)
    raise ConfigError(f"parked file {path} is empty")


def cmd_coverage(args) -> int:
    radii = [float(r) for r in args.radius or []]
    radii.extend(DSRC_CLASSES[c] for c in args.device_class or [])
    if not radii:
        raise ConfigError("give at least one --radius or --class")
    raw = load_config(args.config) if args.config is not None else {}
    # an empty area carries the coverage section's default and checks, so
    # the polygons are read and checked once
    settings = _section(raw, "coverage", TransitArea(polygons=()), cell_size=args.cell_size)
    with open(args.area, "r", encoding="utf-8") as fh:
        area = parse_area(fh.read(), cell_size=settings.cell_size)
    parked = _load_parked(args.parked)
    rows = [(radius, coverage_report(area, parked, radius)) for radius in radii]
    text = format_coverage_csv(rows)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(text, end="")
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------


def _finite_float(text: str) -> float:
    """argparse type of the float flags: a finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parkcp",
        description="Cooperative-positioning simulator with stationary-vehicle anchors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic mobility trace")
    p_gen.add_argument("--config", required=True, help="JSON config file")
    p_gen.add_argument("--out", required=True, help="trace CSV to write")
    p_gen.add_argument("--kind", choices=GENERATORS)
    p_gen.add_argument("--seed", type=int)
    p_gen.set_defaults(func=cmd_gen)

    p_sim = sub.add_parser("sim", help="run paired localisation ensembles")
    p_sim.add_argument("--config", required=True, help="JSON config file")
    p_sim.add_argument("--trace", help="trace CSV (generated from config when omitted)")
    p_sim.add_argument("--out", required=True, help="results CSV to write")
    p_sim.add_argument("--algorithm", choices=_ALGORITHMS,
                       help="default: the config's algorithm, else both")
    p_sim.add_argument("--sigma-r", type=_finite_float, action="append",
                       help="ranging noise std; repeatable")
    p_sim.add_argument("--zone", type=_finite_float, help="communication radius in meters")
    p_sim.add_argument("--n-runs", type=int)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--jobs", type=int, default=1,
                       help="worker processes, at most one per run")
    p_sim.add_argument("--dump-steps", action="store_true",
                       help="also write a per-step error CSV")
    p_sim.set_defaults(func=cmd_sim)

    p_cov = sub.add_parser("coverage", help="stationary-vehicle area coverage report")
    p_cov.add_argument("--area", required=True, help="transit-area polygon CSV")
    p_cov.add_argument("--parked", required=True, help="parked positions (x,y or trace CSV)")
    p_cov.add_argument("--radius", type=_finite_float, action="append", help="repeatable")
    p_cov.add_argument("--class", dest="device_class", choices=DSRC_CLASSES,
                       action="append", help="DSRC device class; repeatable")
    p_cov.add_argument("--config", help="JSON config (coverage.cell_size)")
    p_cov.add_argument("--cell-size", type=_finite_float,
                       help=f"raster cell in meters (default {TransitArea.cell_size})")
    p_cov.add_argument("--out", required=True, help="coverage CSV to write")
    p_cov.set_defaults(func=cmd_coverage)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParkCPError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
