"""The benchmark's workloads: the relbell commands of one pass, and the checks
on their output.

A pass is a list of commands whose inputs (``--seed``, ``--beta``) are drawn
from the run's random stream, so one workload seed fixes every input of a run.
The checks do not depend on output bits: a kernel that is exact but sums in
another order must still pass them.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

WORKLOADS = ("search", "scan", "shots")

#: Restarts per optimize command.  The CLI default is 16; two and three keep
#: a pass near 3.5 s, so a run holds about ten passes for its median.
RESTARTS_2 = 2
RESTARTS_3 = 3
#: Beta step of the scan sweeps: 1001 grid rows per scenario.
SWEEP_STEP = 0.001
SWEEP_ROWS = 1001
SWEEP_SCENARIOS = (("chsh-collinear",), ("mermin-collinear", "--prime-swap"),
                   ("mermin-com",))
#: Shots per sample command; each command samples four setting combinations.
SHOTS = 10_000_000
SAMPLE_SCENARIOS = ("chsh-collinear", "mermin-com")
SETTINGS_PER_SAMPLE = 4

#: verify's default gate, which the sweep residuals must also meet.
VERIFY_TOLERANCE = 1e-9
#: verify rows that report a known-bad formula variant; every other row PASSes.
VERIFY_ERRATA = frozenset({
    "pair-correlator-z-term", "ghz-diagonal-element",
    "ghz-collinear-settings-expectation", "mermin-square-leg-placement",
    "com-primed-coefficient"})
VERIFY_ROWS = 23
#: Optimum over all settings: the boost maps every sphere (and, for in-plane
#: boosts, every xy circle) onto itself, so the unboosted maxima 2 sqrt(2)
#: and 4 are reached at any beta < 1.
OPTIMUM_2 = 2.0 * math.sqrt(2.0)
OPTIMUM_3 = 4.0
#: How far below the optimum a converged search may stop.  Values measured
#: at this version sit within 1e-9 of it.
OPTIMUM_TOLERANCE = 1e-6
#: Standard errors by which the shot estimate may miss the exact value.
ESTIMATE_SIGMAS = 5.0


@dataclass(frozen=True)
class Command:
    """One relbell invocation: its kind (which metric it feeds) and argv."""

    kind: str
    argv: tuple[str, ...]


def one_pass(workload: str, rng) -> list[Command]:
    """The commands of one pass, with inputs drawn from ``rng``."""
    seed = str(rng.randrange(2 ** 32))
    if workload == "search":
        return [
            Command("optimize2", ("optimize", "--beta", f"{rng.uniform(0.45, 0.55):.4f}",
                                  "--constraint", "free",
                                  "--restarts", str(RESTARTS_2), "--seed", seed)),
            Command("optimize3", ("optimize", "--three", "--boost", "com",
                                  "--beta", f"{rng.uniform(0.55, 0.65):.4f}",
                                  "--restarts", str(RESTARTS_3), "--seed", seed)),
        ]
    if workload == "scan":
        commands = [Command("verify", ("verify", "--seed", seed))]
        for scenario, *flags in SWEEP_SCENARIOS:
            commands.append(Command("sweep", ("sweep", "--scenario", scenario, *flags,
                                              "--beta-step", str(SWEEP_STEP))))
        return commands
    if workload == "shots":
        return [Command("sample", ("sample", "--scenario", scenario,
                                   "--beta", f"{rng.uniform(0.3, 0.7):.4f}",
                                   "--shots", str(SHOTS), "--seed", seed))
                for scenario in SAMPLE_SCENARIOS]
    raise ValueError(f"unknown workload {workload!r}")


def shots_of(command: Command) -> int:
    """Shots drawn by a command: zero unless it samples."""
    if command.kind != "sample":
        return 0
    return SETTINGS_PER_SAMPLE * int(command.argv[command.argv.index("--shots") + 1])


def check(command: Command, exit_code: int, text: str) -> str | None:
    """Return why the command's result is wrong, or None when it is right."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        rows = list(csv.DictReader(io.StringIO(text)))
        return _CHECKS[command.kind](command, rows)
    except (KeyError, ValueError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


def _check_verify(command, rows):
    if len(rows) != VERIFY_ROWS:
        return f"{len(rows)} verify rows, expected {VERIFY_ROWS}"
    for row in rows:
        expected = "ERRATUM" if row["check"] in VERIFY_ERRATA else "PASS"
        if row["status"] != expected:
            return f"{row['check']}: {row['status']}, expected {expected}"
    return None


def _check_sweep(command, rows):
    if len(rows) != SWEEP_ROWS:
        return f"{len(rows)} sweep rows, expected {SWEEP_ROWS}"
    for row in rows:
        if float(row["beta"]) < 1.0 and not row["residual"]:
            return f"no residual at beta {row['beta']}"
        if row["residual"] and not float(row["residual"]) <= VERIFY_TOLERANCE:
            return f"residual {row['residual']} at beta {row['beta']}"
    return None


def _check_optimize(command, rows):
    optimum = OPTIMUM_3 if "--three" in command.argv else OPTIMUM_2
    value = float(rows[0]["value"])
    if not optimum - OPTIMUM_TOLERANCE <= value <= optimum + 1e-12:
        return f"value {value!r}, expected {optimum!r} within {OPTIMUM_TOLERANCE:g}"
    return None


def _check_sample(command, rows):
    shots = int(command.argv[command.argv.index("--shots") + 1])
    if len(rows) != SETTINGS_PER_SAMPLE + 1:
        return f"{len(rows)} sample rows, expected {SETTINGS_PER_SAMPLE + 1}"
    for row in rows[:-1]:
        counted = sum(int(v) for k, v in row.items() if k.startswith("n_"))
        if counted != shots:
            return f"{row['setting']}: counts sum to {counted}, not {shots}"
    estimate = rows[-1]
    miss = abs(float(estimate["correlator"]) - float(estimate["exact"]))
    if estimate["setting"] != "bell_estimate" or \
            not miss <= ESTIMATE_SIGMAS * float(estimate["standard_error"]):
        return f"bell estimate off by {miss!r}"
    return None


_CHECKS = {"verify": _check_verify, "sweep": _check_sweep,
           "optimize2": _check_optimize, "optimize3": _check_optimize,
           "sample": _check_sample}
