"""Benchmark the spinnet command end to end, or per layer with --trace 1.

    python3 bench/run.py --workload surface --seed 1 --seconds 20 --trace 0

Runs the workload's spinnet command again and again, as a closed loop of
one client, for about --seconds (it starts no command that would end
further past the budget than short of it), then checks every output (see
checks.py) and prints one JSON object as the last line of stdout:
{"correct", "attempted", "failed", "metrics"}. One operation is one CSV
row of a scan workload or one check of the report; a command that exits
non-zero fails all of its operations.

--trace 0 reports the end-to-end metrics: wall_s (launch to exit),
setup_s (launch until spinnet.cli is imported) and cells_per_s
(operations completed per second of wall_s - setup_s) of the run's
fastest command, and the median peak_rss_mb. --trace 1 alternates plain
and traced commands and reports the median per-layer metrics of the
traced ones (see launch.py), plus trace.overhead_s, the fastest traced
minus the fastest plain wall_s.

The program runs from the checkout's src/ with BLAS pinned to one thread
and --threads at its default of 1. A record of the run (machine,
versions, thread settings, every command's figures) is written to
bench/results/.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Pinned before numpy loads, here and in every command the benchmark starts.
for _name in BLAS_THREAD_VARS:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections.abc import Callable  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
COMMAND_TIMEOUT_S = 100.0

SURFACE_T_STEPS = 256
LARGE_N = {"n_min": 16, "n_max": 20, "t_steps": 100}
LARGE_N_ETA = 0.01
LARGE_N_T_MAX = 4.0 * math.pi


def trajectory_config(seed: int) -> dict:
    return {
        "n": 6, "m": 4, "eta": 1.0, "dt": 1e-3, "t_min": 0.125, "t_max": 1.0, "t_steps": 8,
        "n_traj": 256, "method": "trajectories", "master_seed": seed,
    }


@dataclass(frozen=True)
class Workload:
    subcommand: str
    config: dict | None
    check: Callable[[str, int, int], checks.Verdict]  # (output, exit code, seed)
    same_bytes: bool = False


def _scan_check(check):
    def run(text: str, code: int, seed: int) -> checks.Verdict:
        verdict = check(text, seed)
        if code != 0:
            verdict.fail(verdict.attempted, f"exit code {code}")
        return verdict

    return run


WORKLOADS = {
    "surface": Workload(
        "fig1", {"t_steps": SURFACE_T_STEPS},
        _scan_check(lambda text, seed: checks.check_surface(text, SURFACE_T_STEPS, seed)),
    ),
    "large-n": Workload(
        "fig2", LARGE_N,
        _scan_check(lambda text, seed: checks.check_large_n(
            text, LARGE_N["n_min"], LARGE_N["n_max"], LARGE_N_ETA, LARGE_N["t_steps"],
            LARGE_N_T_MAX, seed,
        )),
    ),
    "traj-grid": Workload(
        "simulate", None,
        _scan_check(lambda text, seed: checks.check_trajectories(text, trajectory_config(seed))),
        same_bytes=True,
    ),
    "report": Workload(
        "report", None,
        lambda text, code, seed: checks.check_report(text, code),
    ),
}


@dataclass
class Command:
    traced: bool
    wall_s: float
    setup_s: float
    peak_rss_mb: float
    code: int
    text: str
    module: str
    layers: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SPINNET_THREADS", None)
    env.pop("BENCH_TRACE_FILE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def launch(args: list[str], work: Path, index: int, traced: bool) -> Command:
    """Start one spinnet command through launch.py and time it to its exit."""
    env = child_env()
    ready = work / f"ready-{index}.json"
    env["BENCH_READY_FILE"] = str(ready)
    layers_file = work / f"layers-{index}.json"
    if traced:
        env["BENCH_TRACE_FILE"] = str(layers_file)
    with open(work / f"stderr-{index}.txt", "w", encoding="utf-8") as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py"), *args],
            env=env, cwd=work, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.monotonic()
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    try:
        info = json.loads(ready.read_text(encoding="utf-8"))
        setup, module = info["ready"] - start, info["module"]
    except (OSError, ValueError, KeyError):
        setup, module = math.nan, ""
    out = work / f"out-{index}"
    text = out.read_text(encoding="utf-8") if out.exists() else ""
    layers = json.loads(layers_file.read_text(encoding="utf-8")) if layers_file.exists() else {}
    return Command(traced, end - start, setup, usage.ru_maxrss / 1024.0, code, text, module, layers)


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = {"model": "unknown", "cache": "unknown"}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and cpu["model"] == "unknown":
                    cpu["model"] = value.strip()
                if key.strip() == "cache size" and cpu["cache"] == "unknown":
                    cpu["cache"] = value.strip()
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu_model": cpu["model"],
        "cpu_cache": cpu["cache"],
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {name: os.environ[name] for name in BLAS_THREAD_VARS},
        "spinnet_threads": 1,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in 0..2^63-1")
    if not (SRC / "spinnet" / "cli.py").is_file():
        print(f"spinnet sources not found under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = RESULTS / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        command = [workload.subcommand]
        config = trajectory_config(args.seed) if args.workload == "traj-grid" else workload.config
        if config is not None:
            (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
            command += ["--config", "config.json"]

        # untimed warm-up: compiles bytecode and fills the file cache
        warm = launch(["--help"], work, 0, traced=False)
        if warm.code != 0 or not Path(warm.module).resolve().is_relative_to(SRC.resolve()):
            print((work / "stderr-0.txt").read_text(encoding="utf-8"), file=sys.stderr)
            print(f"spinnet does not start from {SRC}; no result", file=sys.stderr)
            return 2

        commands: list[Command] = []
        start = time.monotonic()
        while True:
            index = len(commands) + 1
            traced = bool(args.trace) and index % 2 == 0
            args_out = [*command, "--out", f"out-{index}"]
            commands.append(launch(args_out, work, index, traced))
            # stop when one more command would end nearer past the budget
            # than short of it, so a run lasts about --seconds
            next_end = time.monotonic() - start + statistics.median(c.wall_s for c in commands) / 2
            if len(commands) >= (2 if args.trace else 1) and next_end >= args.seconds:
                break

        verdicts: dict[str, checks.Verdict] = {}
        first = next((c.text for c in commands if c.code == 0), None)
        for cmd in commands:
            key = hashlib.sha256(f"{cmd.code}\n{cmd.text}".encode()).hexdigest()
            if key not in verdicts:
                verdicts[key] = workload.check(cmd.text, cmd.code, args.seed)
            verdict = verdicts[key]
            if workload.same_bytes and first is not None:
                verdict = checks.Verdict(verdict.attempted, verdict.failed, list(verdict.notes))
                checks.check_same_bytes(cmd.text, first, verdict)
            cmd.attempted, cmd.failed, cmd.notes = verdict.attempted, verdict.failed, verdict.notes
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(c.attempted for c in commands)
    failed = sum(c.failed for c in commands)
    plain = [c for c in commands if not c.traced]
    traced = [c for c in commands if c.traced]
    if args.trace:
        measured = {
            name: statistics.median(c.layers[name] for c in traced if name in c.layers)
            for name in {name for c in traced for name in c.layers}
        }
        measured["trace.overhead_s"] = min(c.wall_s for c in traced) - min(c.wall_s for c in plain)
    else:
        # Times are the fastest command's: co-tenant load slows this kind of
        # shared machine in stretches of seconds, and only ever slows it.
        measured = {
            "wall_s": min(c.wall_s for c in plain),
            "setup_s": min(c.setup_s for c in plain),
            "cells_per_s": max((c.attempted - c.failed) / (c.wall_s - c.setup_s) for c in plain),
            "peak_rss_mb": statistics.median(c.peak_rss_mb for c in plain),
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    # a traced command killed before writing its trace leaves its layers at 0
    metrics = {name: measured.get(name, 0.0) if args.trace else measured[name] for name in units}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "command": ["spinnet", *command],
        "config": config,
        "machine": machine_record(),
        "attempted": attempted,
        "failed": failed,
        "commands": [
            {
                "traced": c.traced, "wall_s": c.wall_s, "setup_s": c.setup_s,
                "peak_rss_mb": c.peak_rss_mb, "exit_code": c.code,
                "attempted": c.attempted, "failed": c.failed, "notes": c.notes,
                "layers": c.layers,
            }
            for c in commands
        ],
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    record_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload}: {len(commands)} commands, {attempted} operations attempted, {failed} failed")
    for cmd in commands:
        for note in cmd.notes[:3]:
            print(f"  failed: {note}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"record: {record_path.relative_to(ROOT)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
