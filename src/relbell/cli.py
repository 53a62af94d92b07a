"""Command-line front end.

Four commands, all emitting CSV or JSON: ``sweep`` tabulates a named
scenario's or a settings file's curves over a beta grid (scenarios.sweep),
``verify`` runs the closed-form-vs-brute-force battery and reports errata,
``optimize`` returns measurement settings of the peak violation (the
constructed optimum, search.optimal_settings, exact for every boost geometry
it offers; its --restarts and --seed are validated and recorded but steer
nothing), and ``sample`` runs a shot-level Monte Carlo
experiment.

Exit codes: 0 success, 1 verification failure, 2 bad arguments, 3 output
I/O failure, 4 internal failure.  The commands build every observable,
operator and shot record themselves, so NoConvergence, NotHermitian,
InvalidObservable, DimensionMismatch and MissingSetting are failures of
the program's own invariants and exit 4 with "internal error:"; input the
program refuses, such as a bad settings file or a degenerate observable at
a requested speed, exits 2.
Re-running a command with identical arguments and seed
produces byte-identical data output (the JSON meta timestamp is excluded
via --no-meta-time).

The verify, search and sampling modules are imported inside the one
handler that runs them, so a command pays the start-up cost of its own
layers only.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .bell import DIRECTION_NAMES, Settings, bell_terms
from .errors import BellToolkitError, DimensionMismatch, DomainError, \
    InvalidObservable, MissingSetting, NoConvergence, NotHermitian
from .observables import Boost, boost_speeds, normalized3
from .scenarios import BETA_GRID_STEP, SCENARIOS, X_AXIS, com_boosts, sweep

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

SWEEP_COLUMNS = ("beta", "scenario", "closed_form", "numeric_max",
                 "state_expectation", "residual")
#: The fields of verify.CheckResult, in order: one row per CheckResult.
VERIFY_COLUMNS = ("check", "status", "residual", "tolerance", "detail")


class UsageError(Exception):
    """Invalid command-line input; maps to exit code 2."""


#: Failures of invariants on matrices and shot records the commands built
#: themselves; exit 4.
INTERNAL_ERRORS = (NoConvergence, NotHermitian, InvalidObservable,
                   DimensionMismatch, MissingSetting)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _render_csv(columns, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(row.get(col)) for col in columns])
    return buffer.getvalue()


def _render_json(columns, rows, meta) -> str:
    payload = {"meta": meta,
               "rows": [{col: row.get(col) for col in columns} for row in rows]}
    return json.dumps(payload, indent=2) + "\n"


def _write_text(path: str, text: str) -> int:
    if path in (None, "-"):
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _meta(args, command: str, extra: dict | None = None) -> dict:
    meta = {"command": command, "version": __version__, "seed": args.seed}
    if extra:
        meta.update(extra)
    if not args.no_meta_time:
        meta["generated_at"] = datetime.now(timezone.utc).isoformat()
    return meta


def _emit(args, columns, rows, meta) -> int:
    if args.format == "json":
        text = _render_json(columns, rows, meta)
    else:
        text = _render_csv(columns, rows)
    return _write_text(args.output, text)


MAX_SWEEP_ROWS = 100001


def _beta_grid(lo: float, hi: float, step: float) -> list[float]:
    span = (hi - lo) / step + 1e-9
    # int(span) + 1 rows, then beta-max if the last falls short of it; an
    # infinite span (a subnormal step) fails the first test too, and the
    # message names the limit, never the count, which can have hundreds of
    # digits.
    if span < MAX_SWEEP_ROWS:
        betas = [min(lo + i * step, hi) for i in range(int(span) + 1)]
        if betas[-1] < hi - 1e-12:
            betas.append(hi)
        if len(betas) <= MAX_SWEEP_ROWS:
            return betas
    raise UsageError(
        f"beta-step {step} produces more rows than the limit of {MAX_SWEEP_ROWS}")


def _load_settings_file(path: str, n_particles: int, beta: float | None) -> Settings:
    """Read the Settings of an n_particles settings file, every boost at speed
    beta (None keeps the file's speeds, which are checked either way)."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        directions = [normalized3(data[key])
                      for key in DIRECTION_NAMES[:2 * n_particles]]
        boosts = data["boosts"]
        if len(boosts) != n_particles:
            raise ValueError(f"expected {n_particles} boosts, got {len(boosts)}")
        boost_dirs = [normalized3(entry["direction"]) for entry in boosts]
        boost_betas = [float(entry["beta"]) for entry in boosts]
        boost_speeds(boost_betas)
    except (OSError, KeyError, TypeError, ValueError, DomainError, OverflowError,
            RecursionError) as exc:
        raise UsageError(f"invalid settings file {path}: {exc}") from exc
    speeds = boost_betas if beta is None else [beta] * n_particles
    return Settings(directions, [Boost(d, b) for d, b in zip(boost_dirs, speeds)])


def _resolve_settings(args, beta: float | None) -> Settings:
    """The Settings a sweep or sample runs: --settings FILE's, for as many
    particles as --scenario has, or else the named scenario's; every boost at
    speed beta (None keeps the file's speeds, 0 for a named scenario), and
    prime-swapped under --prime-swap."""
    build_settings, _ = SCENARIOS[args.scenario]
    settings = build_settings(0.0 if beta is None else beta)
    if args.settings:
        settings = _load_settings_file(args.settings, settings.n_particles, beta)
    return settings.prime_swapped() if args.prime_swap else settings


def _cmd_sweep(args) -> int:
    if not (0.0 <= args.beta_min <= args.beta_max <= 1.0) or not args.beta_step > 0.0:
        raise UsageError("need 0 <= beta-min <= beta-max <= 1 and beta-step > 0")
    if not math.isfinite(args.beta_step):
        raise UsageError(f"beta-step must be finite, got {args.beta_step}")
    settings = _resolve_settings(args, 0.0)
    # no named curve for a settings file: each row's closed form is its operator norm
    peak = None if args.settings else SCENARIOS[args.scenario][1]
    betas = _beta_grid(args.beta_min, args.beta_max, args.beta_step)
    rows = [dict(zip(SWEEP_COLUMNS, (beta, args.scenario, *values)))
            for beta, values in zip(betas, sweep(settings, betas, peak))]
    meta = _meta(args, "sweep", {"scenario": args.scenario,
                                 "settings": args.settings,
                                 "beta_min": args.beta_min,
                                 "beta_max": args.beta_max,
                                 "beta_step": args.beta_step,
                                 "prime_swap": args.prime_swap})
    return _emit(args, SWEEP_COLUMNS, rows, meta)


def _cmd_verify(args) -> int:
    from .verify import FAIL, run_all_checks

    if not (args.tolerance > 0.0 and math.isfinite(args.tolerance)):
        raise UsageError("tolerance must be finite and > 0")
    checks = run_all_checks(tolerance=args.tolerance, seed=args.seed)
    rows = [dataclasses.asdict(c) for c in checks]
    meta = _meta(args, "verify", {"tolerance": args.tolerance})
    code = _emit(args, VERIFY_COLUMNS, rows, meta)
    if code != EXIT_OK:
        return code
    return EXIT_VERIFY_FAILED if any(c.status == FAIL for c in checks) else EXIT_OK


def _cmd_optimize(args) -> int:
    from .search import optimize

    if not 0.0 <= args.beta < 1.0:
        raise UsageError(f"optimization requires 0 <= beta < 1, got {args.beta}")
    if args.boost == "com" and not args.three:
        raise UsageError("the center-of-mass boost geometry needs --three")
    if args.restarts < 1:
        raise UsageError("restarts must be >= 1")
    n_particles = 3 if args.three else 2
    boost_dirs = com_boosts() if args.boost == "com" else (X_AXIS,) * n_particles
    settings, value = optimize(
        n_particles, boost_dirs, args.beta,
        constraint={"xy": "xy_plane", "free": "free_sphere"}[args.constraint],
        objective={"norm": "operator_norm", "state": "state_expectation"}[args.objective])
    names = DIRECTION_NAMES[:len(settings.directions)]
    row = {"mode": settings.family.name, "beta": args.beta,
           "constraint": args.constraint, "objective": args.objective,
           "boost": args.boost, "value": value}
    for name, vector in zip(names, settings.directions):
        for axis, component in zip("xyz", vector):
            row[f"{name}_{axis}"] = float(component)
    meta = _meta(args, "optimize", {"restarts": args.restarts})
    return _emit(args, list(row), rows=[row], meta=meta)


def _cmd_sample(args) -> int:
    from .sampling import estimate_bell, exact_bell, joint_distribution, outcome_labels, sample

    if args.shots < 1:
        raise UsageError(f"shots must be >= 1, got {args.shots}")
    if args.beta is not None and not 0.0 <= args.beta < 1.0:
        raise UsageError(f"sampling requires 0 <= beta < 1, got {args.beta}")
    settings = _resolve_settings(args, args.beta)
    state = settings.family.state()
    terms = bell_terms(settings)

    count_cols = outcome_labels(settings.n_particles)
    rows = []
    records = []
    distributions = []
    signs = [sign for _, sign, _ in terms]
    for index, (label, sign, observables) in enumerate(terms):
        distribution = joint_distribution(state, observables)
        record = sample(distribution, args.shots, args.seed, setting_index=index)
        distributions.append(distribution)
        records.append(record)
        row = {"setting": label, "sign": sign, "shots": args.shots,
               "correlator": record.correlator(),
               "standard_error": float(np.sqrt(record.correlator_variance())),
               "exact": distribution.correlator()}
        for col, count in zip(count_cols, record.counts):
            row[col] = int(count)
        rows.append(row)
    estimate, standard_error = estimate_bell(records, signs)
    rows.append({"setting": "bell_estimate", "sign": None,
                 "shots": args.shots * len(terms), "correlator": estimate,
                 "standard_error": standard_error,
                 "exact": exact_bell(distributions, signs)})
    meta = _meta(args, "sample", {"scenario": args.scenario,
                                  "beta": args.beta,
                                  "settings": args.settings,
                                  "shots": args.shots,
                                  "prime_swap": args.prime_swap})
    return _emit(args, list(rows[0]), rows, meta)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default="-", metavar="PATH",
                        help="output file, '-' for stdout (default)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--seed", type=int, default=0, metavar="U64",
                        help="seed of verify's random draws and sample's shots; "
                             "optimize validates and records it but uses none "
                             "(default 0)")
    common.add_argument("--no-meta-time", action="store_true",
                        help="omit the timestamp from JSON meta (for golden files)")

    parser = argparse.ArgumentParser(
        prog="relbell",
        description="Boosted-spin Bell operators: sweeps, verification, "
                    "optimization and sampling.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", parents=[common],
                       help="closed-form vs numeric violation curve over beta")
    p.add_argument("--scenario", required=True, choices=tuple(SCENARIOS))
    p.add_argument("--beta-min", type=float, default=0.0)
    p.add_argument("--beta-max", type=float, default=1.0)
    p.add_argument("--beta-step", type=float, default=BETA_GRID_STEP)
    p.add_argument("--prime-swap", action="store_true",
                   help="exchange primed and unprimed settings")
    p.add_argument("--settings", metavar="FILE",
                   help="JSON settings file overriding the named directions")

    p = sub.add_parser("verify", parents=[common],
                       help="run every closed-form-vs-brute-force check")
    p.add_argument("--tolerance", type=float, default=1e-9)

    p = sub.add_parser("optimize", parents=[common],
                       help="measurement settings of the peak violation",
                       description="Return measurement settings of the peak violation: "
                                   "the constructed optimum, exact for every boost "
                                   "geometry offered here. --restarts and --seed are "
                                   "validated and recorded in the meta, but steer "
                                   "nothing.")
    p.add_argument("--three", action="store_true",
                   help="three-qubit operator (default: two-qubit)")
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--constraint", choices=("xy", "free"), default="xy")
    p.add_argument("--boost", choices=("collinear", "com"), default="collinear")
    p.add_argument("--objective", choices=("norm", "state"), default="norm")
    p.add_argument("--restarts", type=int, default=16,
                   help="at least 1; validated and recorded in the meta, but "
                        "steers nothing (default 16)")

    p = sub.add_parser("sample", parents=[common],
                       help="shot-level Monte Carlo Bell experiment")
    p.add_argument("--scenario", default="chsh-collinear",
                   choices=tuple(SCENARIOS))
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--prime-swap", action="store_true")
    p.add_argument("--settings", metavar="FILE",
                   help="JSON settings file overriding the named directions")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if not 0 <= args.seed < 2 ** 64:
        print("error: seed must be an unsigned 64-bit integer", file=sys.stderr)
        return EXIT_USAGE
    handlers = {"sweep": _cmd_sweep, "verify": _cmd_verify,
                "optimize": _cmd_optimize, "sample": _cmd_sample}
    try:
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except INTERNAL_ERRORS as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except BellToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
