"""Each output check of the benchmark rejects a corrupted output.

    python3 -m pytest bench/test_checks.py

Real outputs come from the program in the checkout's src/, at sizes far
below the workloads'; each test then corrupts one row or one check.
"""

import json
import math
import sys
from pathlib import Path

import pytest

import checks
import reference

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from spinnet.cli import main as spinnet  # noqa: E402

SEED = 11


def run(tmp_path, *args, config=None):
    out = tmp_path / "out"
    command = [*args, "--out", str(out)]
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        command += ["--config", str(tmp_path / "config.json")]
    assert spinnet(command) == 0
    return out.read_text()


def edit(text, pick, change):
    """Apply ``change`` to the fields of the first data row for which ``pick`` holds."""
    lines = text.split("\n")
    for i, line in enumerate(lines[1:-1], start=1):
        fields = line.split(",")
        if pick(fields):
            lines[i] = ",".join(change(fields))
            return "\n".join(lines)
    raise AssertionError("no row picked")


def shift_f(fields, by=1e-6):
    return [*fields[:4], f"{float(fields[4]) + by:.12e}", *fields[5:]]


def drop(fields):
    return []


def remove_empty(text):
    return text.replace("\n\n", "\n")


def swap_channel(text, pick, pick_source):
    """Give one row the (F, |z|, lambda) of another: self-consistent but wrong."""
    source = next(l.split(",") for l in text.split("\n")[1:-1] if pick_source(l.split(",")))
    return edit(text, pick, lambda f: [*f[:4], *source[4:7], *f[7:]])


@pytest.fixture(scope="module")
def surface(tmp_path_factory):
    return run(tmp_path_factory.mktemp("surface"), "fig1", config={"t_steps": 16})


def test_surface_accepts_the_program_output(surface):
    verdict = checks.check_surface(surface, 16, SEED)
    assert (verdict.attempted, verdict.failed) == (65 * 16, 0)


def test_surface_rejects_a_shifted_f(surface):
    for eta in ("0.0", "37.0"):
        bad = edit(surface, lambda f: float(f[2]) == float(eta), shift_f)
        assert checks.check_surface(bad, 16, SEED).failed == 1


def test_surface_rejects_a_missing_row(surface):
    bad = remove_empty(edit(surface, lambda f: float(f[2]) == 8.0, drop))
    assert checks.check_surface(bad, 16, SEED).failed == 1


def test_surface_rejects_a_wrong_channel_on_a_sampled_row(surface):
    eta, k = checks.surface_sample(16, SEED)[0]
    t = checks.surface_grid(16)[(4, 2, eta)][k]
    bad = swap_channel(
        surface,
        lambda f: float(f[2]) == eta and abs(float(f[3]) - t) < 1e-9,
        lambda f: float(f[2]) == eta and abs(float(f[3]) - t) > 0.2,
    )
    assert checks.check_surface(bad, 16, SEED).failed == 1


LARGE = {"n_min": 4, "n_max": 6, "t_steps": 100}


@pytest.fixture(scope="module")
def large_n(tmp_path_factory):
    return run(tmp_path_factory.mktemp("large"), "fig2", config=LARGE)


def check_large(text):
    return checks.check_large_n(text, 4, 6, 0.01, 100, 4.0 * math.pi, SEED)


def test_large_n_accepts_the_program_output(large_n):
    verdict = check_large(large_n)
    assert (verdict.attempted, verdict.failed) == (300, 0)


def test_large_n_rejects_a_shifted_f_missing_row_and_wrong_delta(large_n):
    benefit = lambda f: f[7] and float(f[7]) > 0.0  # noqa: E731
    assert check_large(edit(large_n, benefit, shift_f)).failed == 1
    assert check_large(remove_empty(edit(large_n, benefit, drop))).failed == 1
    wrong_delta = lambda f: [*f[:7], f"{float(f[7]) * 1.01:.12e}", *f[8:]]  # noqa: E731
    assert check_large(edit(large_n, benefit, wrong_delta)).failed == 1


def test_large_n_rejects_a_wrong_channel_on_the_sampled_row(large_n):
    k = checks.large_n_sample(4, 6, 100, SEED)[4]
    t = (k + 1) * 4.0 * math.pi / 100
    target = lambda f: f[0] == "4" and abs(float(f[3]) - t) < 1e-9  # noqa: E731
    bad = swap_channel(large_n, target, lambda f: f[0] == "4" and abs(float(f[3]) - t) > 1.0)
    # keep Delta consistent with the copied F, so only the reference can tell
    delta = lambda f: [*f[:7], f"{max(float(f[4]) - reference.peak_fidelity(4), 0.0):.12e}", *f[8:]]  # noqa: E731
    assert check_large(edit(bad, target, delta)).failed == 1


def test_large_n_rejects_a_map_without_noise_benefit(tmp_path):
    # at eta = 0 no cell beats the clean peak (n = 4 puts no grid time on it)
    clean = run(tmp_path, "fig2", config={"n_min": 4, "n_max": 4, "t_steps": 100, "eta": 0.0})
    verdict = checks.check_large_n(clean, 4, 4, 0.0, 100, 4.0 * math.pi, SEED)
    assert verdict.failed == verdict.attempted == 100


TRAJ = {
    "n": 4, "m": 2, "eta": 1.0, "dt": 1e-3, "t_min": 0.25, "t_max": 0.5, "t_steps": 2,
    "n_traj": 64, "method": "trajectories", "master_seed": SEED,
}


@pytest.fixture(scope="module")
def trajectories(tmp_path_factory):
    return run(tmp_path_factory.mktemp("traj"), "simulate", config=TRAJ)


def test_trajectories_accept_the_program_output(trajectories):
    verdict = checks.check_trajectories(trajectories, TRAJ)
    assert (verdict.attempted, verdict.failed) == (2, 0)


def test_trajectories_reject_a_channel_beyond_the_sampling_bound(trajectories):
    def off(fields):
        abs_z = float(fields[5]) + 0.3
        f = 0.5 + float(fields[6]) * abs_z / 3.0 + abs_z**2 / 6.0
        return [*fields[:4], f"{f:.12e}", f"{abs_z:.12e}", *fields[6:]]

    bad = edit(trajectories, lambda f: True, off)
    assert checks.check_trajectories(bad, TRAJ).failed == 1
    assert checks.check_trajectories(edit(trajectories, lambda f: True, shift_f), TRAJ).failed == 1


def test_trajectories_reject_a_missing_row_and_changed_bytes(trajectories):
    missing = remove_empty(edit(trajectories, lambda f: True, drop))
    assert checks.check_trajectories(missing, TRAJ).failed == 1
    verdict = checks.Verdict(2, 0)
    checks.check_same_bytes(edit(trajectories, lambda f: True, lambda f: shift_f(f, 1e-12)), trajectories, verdict)
    assert verdict.failed == 1


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    return run(tmp_path_factory.mktemp("report"), "report", config={"n_traj": 256})


def test_report_accepts_the_program_output(report):
    verdict = checks.check_report(report, 0)
    assert (verdict.attempted, verdict.failed) == (20, 0)


def test_report_rejects_a_mismatch_a_missing_check_and_a_failed_exit(report):
    records = json.loads(report)
    engine = next(r for r in records if r["engine_grade"])
    engine.update(discrepancy=1.0, verdict="mismatch")
    assert checks.check_report(json.dumps(records), 0).failed == 1
    assert checks.check_report(json.dumps(json.loads(report)[1:]), 0).failed == 1
    assert checks.check_report(report, 2).failed == 20
