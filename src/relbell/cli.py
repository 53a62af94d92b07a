"""Command-line front end.

Four commands, all emitting CSV or JSON: ``sweep`` evaluates a named
scenario's closed-form and numeric violation curves over a beta grid,
``verify`` runs the closed-form-vs-brute-force battery and reports errata,
``optimize`` searches measurement settings for the peak violation, and
``sample`` runs a shot-level Monte Carlo experiment.

Exit codes: 0 success, 1 verification failure, 2 bad arguments, 3 output
I/O failure, 4 internal failure (such as the eigensolver not converging).
Re-running a command with identical arguments and seed
produces byte-identical data output (the JSON meta timestamp is excluded
via --no-meta-time).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .bell import DIRECTION_NAMES, Settings, bell_terms
from .errors import BellToolkitError, DomainRestriction, NoConvergence
from .observables import Boost, normalized3
from .sampling import estimate_bell, exact_bell, joint_distribution, sample
from .scenarios import BETA_GRID_STEP, Scenario, X_AXIS, com_boosts, \
    scenario_curve, scenario_settings, settings_curve
from .search import SearchConfig, optimize_chsh, optimize_mermin
from .verify import FAIL, run_all_checks

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

SCENARIO_NAMES = {
    "chsh-collinear": "chsh_collinear",
    "mermin-collinear": "mermin_collinear",
    "mermin-com": "mermin_center_of_mass",
}

SWEEP_COLUMNS = ("beta", "scenario", "closed_form", "numeric_max",
                 "state_expectation", "residual")
VERIFY_COLUMNS = ("check", "status", "residual", "tolerance", "detail")


class UsageError(Exception):
    """Invalid command-line input; maps to exit code 2."""


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
    if not math.isfinite(span):
        raise UsageError(f"beta-step {step} produces too many rows "
                         f"(limit {MAX_SWEEP_ROWS})")
    count = int(span)
    if count + 1 > MAX_SWEEP_ROWS:
        raise UsageError(
            f"beta-step {step} produces {count + 1} rows "
            f"(limit {MAX_SWEEP_ROWS})")
    betas = [min(lo + i * step, hi) for i in range(count + 1)]
    if betas[-1] < hi - 1e-12:
        betas.append(hi)
    return betas


def _load_settings_file(path: str, kind: str) -> dict:
    """Read a settings file for as many particles as scenario ``kind`` has."""
    n_particles = scenario_settings(Scenario(kind, 0.0)).n_particles
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
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"invalid settings file {path}: {exc}") from exc
    return {"directions": directions, "boost_dirs": boost_dirs,
            "boost_betas": boost_betas}


def _settings_from_custom(custom: dict, beta_override: float | None,
                          prime_swap: bool) -> Settings:
    betas = custom["boost_betas"] if beta_override is None \
        else [beta_override] * len(custom["boost_betas"])
    boosts = [Boost(d, b) for d, b in zip(custom["boost_dirs"], betas)]
    settings = Settings(custom["directions"], boosts)
    return settings.prime_swapped() if prime_swap else settings


def _custom_sweep_values(beta: float, custom: dict, prime_swap: bool) -> tuple:
    """(closed_form, numeric_max, state_expectation, residual) of a settings
    file at the grid speed; all None at beta = 1, where no matrix exists and
    a file has no closed-form curve."""
    if beta >= 1.0:
        return None, None, None, None
    settings = _settings_from_custom(custom, beta, prime_swap)
    try:
        closed = float(np.sqrt(settings.family.square_peak(settings)))
    except DomainRestriction:
        closed = None
    return (closed, *settings_curve(settings, closed))


def _cmd_sweep(args) -> int:
    if not (0.0 <= args.beta_min <= args.beta_max <= 1.0) or not args.beta_step > 0.0:
        raise UsageError("need 0 <= beta-min <= beta-max <= 1 and beta-step > 0")
    if not math.isfinite(args.beta_step):
        raise UsageError(f"beta-step must be finite, got {args.beta_step}")
    kind = SCENARIO_NAMES[args.scenario]
    custom = _load_settings_file(args.settings, kind) if args.settings else None
    rows = []
    for beta in _beta_grid(args.beta_min, args.beta_max, args.beta_step):
        if custom is None:
            result = scenario_curve(Scenario(kind, beta, args.prime_swap))
            values = (result.closed_form, result.numeric_max,
                      result.state_expectation, result.residual_closed_numeric)
        else:
            values = _custom_sweep_values(beta, custom, args.prime_swap)
        rows.append(dict(zip(SWEEP_COLUMNS, (beta, args.scenario, *values))))
    meta = _meta(args, "sweep", {"scenario": args.scenario,
                                 "beta_min": args.beta_min,
                                 "beta_max": args.beta_max,
                                 "beta_step": args.beta_step,
                                 "prime_swap": args.prime_swap})
    return _emit(args, SWEEP_COLUMNS, rows, meta)


def _cmd_verify(args) -> int:
    if not (args.tolerance > 0.0 and math.isfinite(args.tolerance)):
        raise UsageError("tolerance must be finite and > 0")
    checks = run_all_checks(tolerance=args.tolerance, seed=args.seed)
    rows = [{"check": c.check, "status": c.status, "residual": c.residual,
             "tolerance": c.tolerance, "detail": c.detail} for c in checks]
    meta = _meta(args, "verify", {"tolerance": args.tolerance})
    code = _emit(args, VERIFY_COLUMNS, rows, meta)
    if code != EXIT_OK:
        return code
    return EXIT_VERIFY_FAILED if any(c.status == FAIL for c in checks) else EXIT_OK


def _cmd_optimize(args) -> int:
    if not 0.0 <= args.beta < 1.0:
        raise UsageError(f"optimization requires 0 <= beta < 1, got {args.beta}")
    if args.boost == "com" and not args.three:
        raise UsageError("the center-of-mass boost geometry needs --three")
    constraint = {"xy": "xy_plane", "free": "free_sphere"}[args.constraint]
    objective = {"norm": "operator_norm", "state": "state_expectation"}[args.objective]
    config = SearchConfig(constraint=constraint, restarts=args.restarts,
                          grid_points_per_angle=args.grid_points,
                          seed=args.seed, objective=objective)
    if args.boost == "com":
        boost_dirs = com_boosts()
    else:
        boost_dirs = (X_AXIS,) * (3 if args.three else 2)
    optimize = optimize_mermin if args.three else optimize_chsh
    settings, value = optimize(boost_dirs, args.beta, config)
    names = DIRECTION_NAMES[:len(settings.directions)]
    row = {"mode": settings.family.name, "beta": args.beta,
           "constraint": args.constraint, "objective": args.objective,
           "boost": args.boost, "value": value}
    for name, vector in zip(names, settings.directions):
        for axis, component in zip("xyz", vector):
            row[f"{name}_{axis}"] = float(component)
    columns = ["mode", "beta", "constraint", "objective", "boost", "value"]
    columns += [f"{name}_{axis}" for name in names for axis in "xyz"]
    meta = _meta(args, "optimize", {"restarts": args.restarts,
                                    "grid_points": args.grid_points})
    return _emit(args, columns, rows=[row], meta=meta)


def _count_columns(n_particles: int) -> list[str]:
    labels = []
    for index in range(2 ** n_particles):
        bits = format(index, f"0{n_particles}b")
        labels.append("n_" + bits.replace("0", "p").replace("1", "m"))
    return labels


def _cmd_sample(args) -> int:
    if args.shots < 1:
        raise UsageError(f"shots must be >= 1, got {args.shots}")
    kind = SCENARIO_NAMES[args.scenario]
    if args.settings:
        custom = _load_settings_file(args.settings, kind)
        settings = _settings_from_custom(custom, args.beta, args.prime_swap)
    else:
        beta = 0.0 if args.beta is None else args.beta
        if not 0.0 <= beta < 1.0:
            raise UsageError(f"sampling requires 0 <= beta < 1, got {beta}")
        settings = scenario_settings(Scenario(kind, beta, args.prime_swap))
    state = settings.family.state()
    terms = bell_terms(settings)

    count_cols = _count_columns(settings.n_particles)
    rows = []
    records = []
    distributions = []
    signs = [sign for _, sign, _ in terms]
    for index, (label, sign, observables) in enumerate(terms):
        distribution = joint_distribution(state, observables)
        record = sample(distribution, args.shots, args.seed,
                        setting_index=index, label=label)
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
    columns = ["setting", "sign", "shots", "correlator", "standard_error",
               "exact"] + count_cols
    meta = _meta(args, "sample", {"scenario": args.scenario,
                                  "shots": args.shots,
                                  "prime_swap": args.prime_swap})
    return _emit(args, columns, rows, meta)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default="-", metavar="PATH",
                        help="output file, '-' for stdout (default)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--seed", type=int, default=0, metavar="U64")
    common.add_argument("--tolerance", type=float, default=1e-9)
    common.add_argument("--no-meta-time", action="store_true",
                        help="omit the timestamp from JSON meta (for golden files)")

    parser = argparse.ArgumentParser(
        prog="relbell",
        description="Boosted-spin Bell operators: sweeps, verification, "
                    "optimization and sampling.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", parents=[common],
                       help="closed-form vs numeric violation curve over beta")
    p.add_argument("--scenario", required=True, choices=tuple(SCENARIO_NAMES))
    p.add_argument("--beta-min", type=float, default=0.0)
    p.add_argument("--beta-max", type=float, default=1.0)
    p.add_argument("--beta-step", type=float, default=BETA_GRID_STEP)
    p.add_argument("--prime-swap", action="store_true",
                   help="exchange primed and unprimed settings")
    p.add_argument("--settings", metavar="FILE",
                   help="JSON settings file overriding the named directions")

    sub.add_parser("verify", parents=[common],
                   help="run every closed-form-vs-brute-force check")

    p = sub.add_parser("optimize", parents=[common],
                       help="search measurement settings for the peak violation")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--two", action="store_true",
                       help="two-qubit operator (default)")
    group.add_argument("--three", action="store_true",
                       help="three-qubit operator")
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--constraint", choices=("xy", "free"), default="xy")
    p.add_argument("--boost", choices=("collinear", "com"), default="collinear")
    p.add_argument("--objective", choices=("norm", "state"), default="norm")
    p.add_argument("--restarts", type=int, default=16)
    p.add_argument("--grid-points", type=int, default=24)

    p = sub.add_parser("sample", parents=[common],
                       help="shot-level Monte Carlo Bell experiment")
    p.add_argument("--scenario", default="chsh-collinear",
                   choices=tuple(SCENARIO_NAMES))
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
    except NoConvergence as exc:
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
