"""Benchmark of the relbell command line.

Run from the repository root:

    python3 perfbench/run.py --workload {search,scan,shots,all} --seed N \
        --seconds S --trace {0,1}

With ``--trace 0`` every relbell command runs in a fresh child process, one at
a time, and the end-to-end metrics are printed.  With ``--trace 1`` the same
commands run in this process through ``relbell.cli.main`` with spans recorded
at each layer's public functions, and the per-layer metrics are printed (see
``layers.py``).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See NOTES.md for the
workloads and what each metric should respond to.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build" / "perfbench"
#: Single-threaded BLAS, so the figures measure the program, not the scheduler.
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
#: setup_s: a fresh interpreter, with numpy already loaded, times its own
#: import of relbell.cli.  Interpreter start and the numpy import are left
#: out: the program cannot change them, and on a shared machine their cost
#: drifts by a quarter between sets of runs.  At least SETUP_REPEATS samples,
#: after one untimed import that fills the bytecode cache.
SETUP = """\
import time
import numpy
start = time.perf_counter()
import relbell.cli
print(time.perf_counter() - start)
"""
SETUP_REPEATS = 7
#: No single command of any workload should come near this.
COMMAND_TIMEOUT_S = 60.0
#: A fixed child that does not import relbell: numpy start-up, small complex
#: matrix products and a Python loop, about 0.4 s.  The speed of the shared
#: machine drifts by 15% between runs, moving set-up and pass times together.
#: wall_rel divides the median pass by the median of this child, timed twice
#: around each pass's set-up sample.
CALIBRATION = """\
import math
import numpy as np
a = np.array([[0.6, 0.8j], [-0.8j, 0.6]])
for _ in range(4000):
    b = np.kron(a, a)
    np.linalg.norm(b @ b)
x = 0.0
for i in range(150000):
    x += math.hypot(1.0, x * 1e-9 + i)
"""

os.environ.update(THREAD_CAPS)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def machine_info() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine(), "nproc": os.cpu_count(),
            "thread_caps": THREAD_CAPS}


def summary(values: list[float]) -> str:
    """Median, sample count, and the highest whole percentile with at least
    ten samples above it (none below eleven samples)."""
    n = len(values)
    text = f"median of {n}"
    if n >= 11:
        rank = n - 10
        text += f", p{math.floor(100 * rank / n)} {sorted(values)[rank - 1]:.6g}"
    return text


def run_child(argv: list[str], out_path: Path):
    """Run one child interpreter with output to ``out_path``; return its exit
    code (negative when killed, as after COMMAND_TIMEOUT_S), wall time, peak
    resident set in MB and standard error."""
    err_path = out_path.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=child_env(),
                                stdout=out, stderr=err)
        # A blocking wait returns as soon as the child exits; wait(timeout=)
        # polls with sleeps of up to 50 ms, which would show in the timings.
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.daemon = True
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, \
        err_path.read_text(errors="replace")


def time_code(code: str) -> tuple[float, str]:
    """Wall time and output of a fresh interpreter running ``code``."""
    out = WORK_DIR / "code.out"
    status, wall, _, err = run_child(["-c", code], out)
    if status != 0:
        raise RuntimeError(f"python3 -c {code!r} failed: {err.strip()}")
    return wall, out.read_text()


def time_setup() -> float:
    return float(time_code(SETUP)[1])


def end_to_end(workload: str, seed: int, seconds: float):
    """Untraced run: fresh child per command, for ``seconds``.  Set-up and
    calibration samples are taken before each pass, so they spread over the
    run."""
    time_setup()
    setup, calibration = [], []
    rng = random.Random(f"{workload}/{seed}")
    passes, failures, attempted, peak_mb = [], [], 0, 0.0
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        calibration.append(time_code(CALIBRATION)[0])
        setup.append(time_setup())
        calibration.append(time_code(CALIBRATION)[0])
        timings = []
        for index, command in enumerate(workloads.one_pass(workload, rng)):
            out = WORK_DIR / f"{workload}-{index}.out"
            code, wall, rss_mb, err = run_child(["-m", "relbell.cli", *command.argv],
                                                out)
            attempted += 1
            peak_mb = max(peak_mb, rss_mb)
            problem = workloads.check(command, code, out.read_text(errors="replace"))
            if problem:
                failures.append(f"{' '.join(command.argv)}: {problem} {err.strip()}")
            timings.append((command, wall))
        passes.append(timings)
    while len(setup) < SETUP_REPEATS:
        setup.append(time_setup())
    walls = [sum(wall for _, wall in timings) for timings in passes]
    metrics = {
        "wall_rel": (statistics.median(walls) / statistics.median(calibration), "ratio",
                     "median wall_s over median calibration_s"),
        "peak_rss_mb": (peak_mb, "MB", f"max over {attempted} commands"),
        "setup_s": (statistics.median(setup), "s", summary(setup)),
    }
    report = dict(metrics)
    report["wall_s"] = (statistics.median(walls), "s", summary(walls))
    report["calibration_s"] = (statistics.median(calibration), "s", summary(calibration))
    by_kind = {}
    for timings in passes:
        per_pass = {}
        for command, wall in timings:
            per_pass[command.kind] = per_pass.get(command.kind, 0.0) + wall
        for kind, wall in per_pass.items():
            by_kind.setdefault(kind, []).append(wall)
    for kind, values in by_kind.items():
        if kind != "sample":
            report[f"{kind}_s"] = (statistics.median(values), "s", summary(values))
    sampled = [(workloads.shots_of(c), wall) for t in passes for c, wall in t
               if c.kind == "sample"]
    if sampled:
        report["sample_shots_per_s"] = (sum(s for s, _ in sampled)
                                        / sum(w for _, w in sampled), "1/s",
                                        f"total over {len(sampled)} commands")
    report["failed_share"] = (len(failures) / attempted, "share",
                              f"{len(failures)} of {attempted} commands")
    return attempted, failures, metrics, report


def print_report(workload: str, report: dict) -> None:
    for name, (value, unit, how) in report.items():
        print(f"{workload:7s} {name:42s} {value:14.6g} {unit:6s} ({how})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "relbell" / "cli.py").is_file():
        print(f"error: no relbell sources under {SRC}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    print("machine", json.dumps(machine_info()))

    if args.trace:
        import layers
        sys.path.insert(0, str(SRC))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted, failures, metrics = 0, [], {}
    for name in names:
        if args.trace:
            done, failed, values, report = layers.traced_run(name, args.seed,
                                                             args.seconds, WORK_DIR)
        else:
            done, failed, values, report = end_to_end(name, args.seed, args.seconds)
        print_report(name, report)
        attempted += done
        failures += failed
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + key: {"value": value, "unit": unit}
                        for key, (value, unit, _) in values.items()})
    for failure in failures:
        print("FAILED", failure)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
