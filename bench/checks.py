"""Correctness checks of the workloads' outputs, run after the timed interval.

Each check returns a Verdict: the operations it attempted (one CSV row of
a scan, one check of the report) and how many of them failed. A row that
is missing, malformed, duplicated or outside the expected grid counts as
failed, as does a row that fails any of its checks. Values are compared
with ``reference`` (an independent solver) or with properties the method
must have, never with a stored copy of an earlier output.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

import numpy as np

import reference

HEADER = "n,m,eta,t,F,abs_z,lambda,delta,method,seed"

# The printed %.12e values carry 13 significant digits.
READOUT_ATOL = 1e-11
CLOSED_FORM_ATOL = 1e-10
REFERENCE_ATOL = 1e-9

REPORT_CHECKS = (
    "bloch-average-vs-closed-form",
    "eta0-lindblad-vs-unitary",
    "four-node-continuity-eta16",
    "four-node-continuity-eta8",
    "four-node-lambda-z-rescaled",
    "four-node-literal-lambda-z",
    "four-node-literal-z-sq",
    "four-node-literal-z-sq-at-t0",
    "lindblad-vs-trajectories",
    "network-reduction-n6-m2",
    "peak-fidelity-closed-form-monotone",
    "weak-noise-beta-vs-engine-amplitude",
    "weak-noise-linearity-in-eta",
    "weak-noise-printed-vs-numeric",
    "weak-noise-xi2-single-vertex",
    "weak-noise-zeroth-order-amplitude",
    "zeno-amplitude-modulus",
    "zeno-amplitude-phase",
    "zeno-effective-vs-lindblad",
    "zeno-limit-pst",
)


@dataclass
class Verdict:
    attempted: int
    failed: int
    notes: list[str] = field(default_factory=list)

    def fail(self, count: int, note: str) -> None:
        self.failed = min(self.attempted, self.failed + count)
        if len(self.notes) < 20:
            self.notes.append(note)


@dataclass(frozen=True)
class Row:
    n: int
    m: int
    eta: float
    t: float
    F: float
    abs_z: float
    lam: float
    delta: float | None
    method: str
    seed: int


def _parse_row(line: str) -> Row:
    n, m, eta, t, f, abs_z, lam, delta, method, seed = line.split(",")
    return Row(
        int(n), int(m), float(eta), float(t), float(f), float(abs_z), float(lam),
        float(delta) if delta else None, method, int(seed),
    )


def grid_rows(
    text: str,
    grid: dict[tuple[int, int, float], np.ndarray],
    method: str,
    seed: int,
    verdict: Verdict,
) -> dict[tuple[tuple[int, int, float], int], Row]:
    """Map each expected cell (series, time index) to its parsed CSV row.

    ``grid`` maps a series (n, m, eta) to its uniform time grid. Rows that
    cannot be parsed, fall outside the grid, repeat a cell, or carry the
    wrong method or seed are charged to ``verdict`` here; missing cells
    are left for the caller, which sees them absent from the result.
    """
    lines = text.split("\n")
    if not lines or lines[0] != HEADER or lines[-1] != "":
        verdict.fail(verdict.attempted, "header or final newline missing")
        return {}
    rows: dict[tuple[tuple[int, int, float], int], Row] = {}
    for line in lines[1:-1]:
        try:
            row = _parse_row(line)
        except ValueError:
            verdict.fail(1, f"malformed row {line!r}")
            continue
        series = (row.n, row.m, row.eta)
        if series not in grid:
            series = next(
                (s for s in grid if s[:2] == series[:2] and abs(s[2] - row.eta) <= 1e-12), None
            )
        if series is None or row.method != method or row.seed != seed:
            verdict.fail(1, f"unexpected row {line!r}")
            continue
        times = grid[series]
        step = times[1] - times[0] if times.size > 1 else 1.0
        k = int(round((row.t - times[0]) / step))
        if not 0 <= k < times.size or abs(row.t - times[k]) > 1e-10 * max(1.0, row.t):
            verdict.fail(1, f"time off the grid {line!r}")
            continue
        if (series, k) in rows:
            verdict.fail(1, f"duplicate row {line!r}")
            continue
        rows[(series, k)] = row
    return rows


def _row_defect(row: Row) -> str | None:
    """Properties every engine row has: F in [1/2, 1] and F = 1/2 + lambda|z|/3 + |z|^2/6."""
    if not 0.5 <= row.F <= 1.0 + 1e-12:
        return f"F = {row.F!r} outside [1/2, 1]"
    readout = 0.5 + row.lam * row.abs_z / 3.0 + row.abs_z**2 / 6.0
    if abs(row.F - readout) > READOUT_ATOL:
        return f"F = {row.F!r} disagrees with its own channel (z, lambda) by {row.F - readout:.3e}"
    return None


def _check_cells(rows, grid, verdict: Verdict, extra) -> None:
    """Charge every missing cell and every row failing the common or extra checks."""
    for series, times in grid.items():
        for k in range(times.size):
            row = rows.get((series, k))
            problem = "missing" if row is None else _row_defect(row) or extra(series, k, row)
            if problem:
                verdict.fail(1, f"cell {series} t[{k}]: {problem}")


def surface_grid(t_steps: int, t_max: float = 2.0 * math.pi) -> dict:
    times = np.arange(1, t_steps + 1) * (t_max / t_steps)
    return {(4, 2, float(eta)): times for eta in range(65)}


def surface_sample(t_steps: int, seed: int, size: int = 128) -> list[tuple[float, int]]:
    """Seeded cells at eta > 0, always including the exceptional points eta = 4 and 8."""
    rng = random.Random(seed)
    cells = [(float(eta), k) for eta in range(1, 65) for k in range(t_steps)]
    sample = rng.sample(cells, min(size, len(cells)))
    sample += [(eta, rng.randrange(t_steps)) for eta in (4.0, 8.0) for _ in range(4)]
    return sample


def check_surface(text: str, t_steps: int, seed: int) -> Verdict:
    """fig1: clean rows on the closed form, a seeded sample on the reference."""
    grid = surface_grid(t_steps)
    verdict = Verdict(attempted=65 * t_steps, failed=0)
    rows = grid_rows(text, grid, "lindblad", 0, verdict)
    generators = {}
    sampled = set(surface_sample(t_steps, seed))

    def extra(series, k, row):
        if row.delta is not None:
            return "delta column filled"
        eta = series[2]
        if eta == 0.0:
            gap = abs(row.F - reference.clean_fidelity(4, row.t))
            return f"off the clean closed form by {gap:.3e}" if gap > CLOSED_FORM_ATOL else None
        if (eta, k) in sampled:
            if eta not in generators:
                generators[eta] = reference.generator(4, reference.noisy_set(4, 2), eta)
            gap = abs(row.F - reference.fidelity(4, 2, eta, row.t, generators[eta]))
            return f"off the reference by {gap:.3e}" if gap > REFERENCE_ATOL else None
        return None

    _check_cells(rows, grid, verdict, extra)
    return verdict


def large_n_grid(n_min: int, n_max: int, eta: float, t_steps: int, t_max: float) -> dict:
    times = np.arange(1, t_steps + 1) * (t_max / t_steps)
    return {(n, n - 2, eta): times for n in range(n_min, n_max + 1)}


def large_n_sample(n_min: int, n_max: int, t_steps: int, seed: int) -> dict[int, int]:
    """Seeded time index per n whose row is compared with the reference."""
    rng = random.Random(seed)
    return {n: rng.randrange(t_steps) for n in range(n_min, n_max + 1)}


def check_large_n(text: str, n_min: int, n_max: int, eta: float, t_steps: int, t_max: float, seed: int) -> Verdict:
    """fig2: Delta against the clean peak on every row, a benefit at every n, a seeded row per n."""
    grid = large_n_grid(n_min, n_max, eta, t_steps, t_max)
    verdict = Verdict(attempted=len(grid) * t_steps, failed=0)
    rows = grid_rows(text, grid, "lindblad", 0, verdict)
    sampled = large_n_sample(n_min, n_max, t_steps, seed)
    benefit = {series for (series, _), row in rows.items() if row.delta and row.delta > 0.0}

    def extra(series, k, row):
        n = series[0]
        expected = max(row.F - reference.peak_fidelity(n), 0.0)
        if row.delta is None or abs(row.delta - expected) > READOUT_ATOL:
            return f"delta {row.delta!r} is not max(F - F_peak, 0) = {expected!r}"
        if series not in benefit:
            return "no cell of this n has Delta > 0"
        if sampled[n] == k:
            gap = abs(row.F - reference.fidelity(n, n - 2, eta, row.t))
            return f"off the reference by {gap:.3e}" if gap > REFERENCE_ATOL else None
        return None

    _check_cells(rows, grid, verdict, extra)
    return verdict


def check_trajectories(text: str, config: dict) -> Verdict:
    """simulate --method trajectories: every F within the sampling bound of the reference."""
    n, m, eta = config["n"], config["m"], config["eta"]
    times = np.linspace(config["t_min"], config["t_max"], config["t_steps"])
    grid = {(n, m, eta): times}
    verdict = Verdict(attempted=times.size, failed=0)
    rows = grid_rows(text, grid, "trajectories", config["master_seed"], verdict)
    gen = reference.generator(n, reference.noisy_set(n, m), eta)

    def extra(series, k, row):
        rho = reference.evolve(n, m, eta, row.t, gen)
        bound = reference.trajectory_bound(rho, config["n_traj"], config["dt"], eta)
        gap = abs(row.F - reference.readout_fidelity(rho))
        return f"off the reference by {gap:.3e} > {bound:.3e}" if gap > bound else None

    _check_cells(rows, grid, verdict, extra)
    return verdict


def check_same_bytes(text: str, first: str, verdict: Verdict) -> None:
    """Charge every row that differs from the first run of the same command."""
    lines, first_lines = text.split("\n"), first.split("\n")
    differing = sum(a != b for a, b in zip(lines, first_lines)) + abs(len(lines) - len(first_lines))
    if differing:
        verdict.fail(differing, f"{differing} lines differ from the first run")


def check_report(text: str, returncode: int) -> Verdict:
    """report: exit 0, all checks present once, no mismatch, verdicts consistent."""
    verdict = Verdict(attempted=len(REPORT_CHECKS), failed=0)
    if returncode != 0:
        verdict.fail(verdict.attempted, f"exit code {returncode}")
        return verdict
    try:
        records = json.loads(text)
        by_name: dict[str, list[dict]] = {}
        for record in records:
            by_name.setdefault(record["name"], []).append(record)
    except (ValueError, TypeError, KeyError) as err:
        verdict.fail(verdict.attempted, f"unreadable report: {err}")
        return verdict
    for name in sorted(set(by_name) - set(REPORT_CHECKS)):
        verdict.fail(1, f"unexpected check {name}")
    for name in REPORT_CHECKS:
        found = by_name.get(name, [])
        if len(found) != 1:
            verdict.fail(1, f"check {name} appears {len(found)} times")
            continue
        record = found[0]
        try:
            within = record["discrepancy"] <= record["tolerance"]
            expected = "match" if within else (
                "mismatch" if record["engine_grade"] else "documented-discrepancy"
            )
            verdict_name = record["verdict"]
        except (KeyError, TypeError) as err:
            verdict.fail(1, f"check {name} lacks a field: {err}")
            continue
        if verdict_name == "mismatch" or verdict_name != expected:
            verdict.fail(1, f"check {name}: verdict {verdict_name}, expected {expected}")
    return verdict
