"""Command-line contract: config schema, CSV shape, exit codes, determinism."""

from __future__ import annotations

import gc
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from spinnet import cli, lindblad, network
from spinnet.cli import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    ScanSeries,
    main,
    records_to_csv,
    run_scan_fig1,
    run_scan_fig2,
    run_scan_fig3,
    run_simulate,
)
from spinnet.lindblad import DenseLiouvillian
from spinnet.network import standard_noise_spec
from spinnet.perturbation import beta


def _cfg(**over):
    base = {"n": 4, "m": 2, "eta": 1.0, "t_min": 0.5, "t_max": 1.0, "t_steps": 2}
    base.update(over)
    return ExperimentConfig.from_dict(base)


def _cli_command(args, config=None, tmp_path=None):
    cmd = [sys.executable, "-m", "spinnet.cli", *args]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        cmd += ["--config", str(path)]
    return cmd


def _cli(args, config=None, tmp_path=None, text=True):
    return subprocess.run(_cli_command(args, config, tmp_path), capture_output=True, text=text)


class TestConfigSchema:
    def test_defaults_applied(self):
        cfg = ExperimentConfig.from_dict({"n": 4})
        assert cfg.method == "lindblad"
        assert cfg.noisy_vertices == ()
        assert cfg.t_steps == 64

    def test_unknown_field_rejected_with_name(self):
        with pytest.raises(ConfigError, match="tsteps"):
            ExperimentConfig.from_dict({"n": 4, "tsteps": 10})

    def test_m_expands_to_highest_free_vertices(self):
        cfg = ExperimentConfig.from_dict({"n": 6, "m": 3})
        assert cfg.noisy_vertices == (4, 5, 6)

    def test_m_respects_transfer_pair(self):
        cfg = ExperimentConfig.from_dict(
            {"n": 5, "m": 2, "input_vertex": 4, "output_vertex": 5}
        )
        assert cfg.noisy_vertices == (2, 3)

    def test_m_and_explicit_set_conflict(self):
        with pytest.raises(ConfigError, match="'m'"):
            ExperimentConfig.from_dict({"n": 5, "m": 2, "noisy_vertices": [3, 4]})

    def test_noisy_overlap_rejected(self):
        with pytest.raises(ConfigError, match="noisy_vertices"):
            ExperimentConfig.from_dict({"n": 4, "noisy_vertices": [2, 3]})

    def test_method_whitelist(self):
        with pytest.raises(ConfigError, match="method"):
            ExperimentConfig.from_dict({"n": 4, "method": "exact"})

    def test_per_edge_eta_parsed(self):
        cfg = ExperimentConfig.from_dict(
            {"n": 5, "noisy_vertices": [3, 4, 5], "eta": {"3-4": 1.0, "3-5": 2.0, "4-5": 3.0}}
        )
        assert cfg.eta == {(3, 4): 1.0, (3, 5): 2.0, (4, 5): 3.0}
        assert cfg.eta_column() == pytest.approx(2.0)

    def test_bad_edge_key_rejected(self):
        with pytest.raises(ConfigError, match="eta"):
            ExperimentConfig.from_dict({"n": 4, "noisy_vertices": [3, 4], "eta": {"3:4": 1.0}})

    def test_negative_eta_rejected(self):
        with pytest.raises(ConfigError, match="eta"):
            ExperimentConfig.from_dict({"n": 4, "eta": -1.0})

    def test_time_grid_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"n": 4, "t_min": 2.0, "t_max": 1.0})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("t_min", float("nan")),
            ("t_max", float("nan")),
            ("t_max", float("inf")),
            ("dt", float("nan")),
            ("eta", float("nan")),
            ("eta", {(3, 4): float("inf")}),
        ],
    )
    def test_direct_construction_rejects_non_finite(self, field, value):
        # every comparison is false on NaN, so the range checks alone
        # would let it through
        fields = {"n": 4, "noisy_vertices": (3, 4), field: value}
        with pytest.raises(ConfigError, match=f"field '{field}'.*must be finite") as err:
            ExperimentConfig(**fields)
        assert err.value.field_name == field

    def test_direct_construction_names_first_bad_field(self):
        nan = float("nan")
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(n=4, t_max=nan, dt=nan, eta=nan)
        assert err.value.field_name == "t_max"


class TestCsvShape:
    def test_header_exact(self):
        assert CSV_HEADER == "n,m,eta,t,F,abs_z,lambda,delta,method,seed"

    def test_rows_use_scientific_notation(self):
        records = run_simulate(_cfg(method="unitary"))
        text = records_to_csv(records)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        first = lines[1].split(",")
        assert first[0] == "4" and first[1] == "2"
        assert "e" in first[2] and "e" in first[4]
        # delta column empty when the scan does not compute it
        assert first[7] == ""
        assert text.endswith("\n") and "\r" not in text

    def test_all_methods_produce_rows(self):
        for method in (
            "unitary",
            "lindblad",
            "perturbation-numeric",
            "perturbation-printed",
        ):
            [series] = run_simulate(_cfg(method=method))
            assert len(series.t) == 2
            assert series.method == method

    def test_perturbation_numeric_may_leave_physical_range(self, tmp_path, capsys):
        # at eta t of order one the first-order state is no state, and
        # its fidelity passes 1 on the default grid 0..2 pi
        out = tmp_path / "run.csv"
        config = {"n": 4, "m": 2, "eta": 1.0, "method": "perturbation-numeric"}
        code, err = _main(["simulate", "--out", str(out)], config, tmp_path, capsys)
        assert code == 0, err
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 64
        assert max(float(row.split(",")[4]) for row in rows) > 1.0

    def test_non_finite_first_order_row_exits_2_naming_t(self, tmp_path, capsys):
        # eta times a finite slope overflows after t = 0
        config = {"n": 4, "m": 2, "eta": 1e300, "method": "perturbation-numeric", "t_steps": 4}
        code, err = _main(["simulate"], config, tmp_path, capsys)
        assert code == 2
        assert err == "numeric failure: fidelity inf not finite at t=2.0943951023931953\n"

    def test_engine_row_outside_physical_range_raises(self):
        with pytest.raises(RuntimeError, match=r"fidelity 1.1 outside \[1/2, 1\] at t=1.0"):
            ScanSeries(
                4, 2, 1.0, "lindblad", 0,
                t=np.array([0.5, 1.0]), fidelity=np.array([1.0, 1.1]), abs_z=np.ones(2), dephasing=np.ones(2),
            )

    def test_trajectories_method_runs(self):
        [series] = run_simulate(_cfg(method="trajectories", n_traj=30, t_steps=1))
        assert len(series.t) == 1
        assert 0.5 <= series.fidelity[0] <= 1.0

    def test_trajectory_grid_rows_equal_one_point_runs(self):
        # one pass over the grid writes the bytes of a run at each time
        # alone; the grid has t = 0 and times off the dt grid
        grid = _cfg(method="trajectories", n_traj=40, t_min=0.0, t_max=0.1505, t_steps=4)
        rows = records_to_csv(run_simulate(grid)).splitlines()[1:]
        assert len(rows) == 4
        for t, row in zip(grid.times(), rows):
            alone = _cfg(method="trajectories", n_traj=40, t_min=float(t), t_max=float(t), t_steps=1)
            assert records_to_csv(run_simulate(alone)).splitlines()[1:] == [row]


class TestFigureScans:
    def test_fig1_grid_contains_landmarks(self):
        [series] = run_scan_fig1({"eta_values": [0.0]})
        times = {round(t, 12) for t in series.t.tolist()}
        assert round(math.pi / 4, 12) in times
        assert round(3 * math.pi / 2, 12) in times
        assert len(series.t) == 64

    def test_fig1_exceptional_points_match_expm(self):
        # eta = 4 and 8 are exceptional points of the four-node generator,
        # where an eigenbasis loses accuracy; a plain exponential per
        # point is the reference
        scan = run_scan_fig1({"eta_values": [4, 8], "t_steps": 256})
        assert sum(len(series.t) for series in scan) == 512
        a, b = math.cos(math.pi / 4), math.sin(math.pi / 4)
        rho0 = np.zeros((5, 5), dtype=complex)
        rho0[np.ix_([0, 1], [0, 1])] = [[a * a, a * b], [a * b, b * b]]
        worst = 0.0
        for eta, series in zip((4.0, 8.0), scan):
            assert series.eta == eta
            generator = DenseLiouvillian(4, standard_noise_spec(4, 2, eta)).generator
            for t, f, abs_z in zip(series.t, series.fidelity, series.abs_z):
                v = scipy.linalg.expm(generator * t) @ rho0.reshape(-1, order="F")
                rho = v.reshape((5, 5), order="F")
                prob = rho[2, 2].real / (b * b)
                fidelity = 0.5 + abs(rho[2, 0]) / (3 * a * b) + prob / 6
                worst = max(worst, abs(f - fidelity), abs(abs_z - math.sqrt(prob)))
        assert worst < 1e-12

    def test_fig2_scale_free(self):
        # n = 10^4 has a dense generator of 10^16 entries; the lumped
        # engine runs it in milliseconds
        n, t_steps = 10**4, 50
        start = time.perf_counter()
        [clean] = run_scan_fig2({"n_min": n, "n_max": n, "eta": 0.0, "t_steps": t_steps})
        [noisy] = run_scan_fig2({"n_min": n, "n_max": n, "t_steps": t_steps})
        assert time.perf_counter() - start < 30.0
        assert len(clean.t) == len(noisy.t) == t_steps
        prob = (2.0 / n**2) * (1.0 - np.cos(n * clean.t))
        assert np.all(np.abs(clean.abs_z**2 - prob) < 1e-12)
        assert np.all(np.abs(clean.fidelity - (0.5 + np.sqrt(prob) / 3 + prob / 6)) < 1e-12)
        assert noisy.delta.max() > 0.0

    def test_fig1_unknown_override_rejected(self):
        with pytest.raises(ConfigError, match="etas"):
            run_scan_fig1({"etas": [1]})

    def test_fig2_rows_cover_size_range(self):
        scan = run_scan_fig2({"n_min": 4, "n_max": 5, "t_steps": 10})
        assert {series.n for series in scan} == {4, 5}
        assert all(series.m == series.n - 2 for series in scan)
        assert all(series.delta is not None and np.all(series.delta >= 0.0) for series in scan)

    def test_fig3_gain_at_large_noisy_set(self):
        # n = 10, m = 8, eta = 0.01 gains over the clean peak, and a scan
        # of its best time alone reads the same Delta
        [series] = run_scan_fig3({"m_values": [8]})
        best = int(np.argmax(series.delta))
        assert series.delta[best] > 1e-4
        [alone] = run_scan_fig3({"m_values": [8], "t_max": float(series.t[best]), "t_steps": 1})
        assert alone.t.tolist() == [series.t[best]]
        assert alone.delta[0] == pytest.approx(series.delta[best], abs=1e-12)

    def test_fig2_no_gain_without_noise(self):
        [series] = run_scan_fig2({"n_max": 4, "eta": 0.0, "t_max": 6.0, "t_steps": 12})
        assert len(series.t) == 12
        assert series.delta.max() == 0.0

    def test_fig3_rows_cover_m_range(self):
        scan = run_scan_fig3({"m_values": [2, 4], "t_steps": 10})
        assert {series.m for series in scan} == {2, 4}
        assert all(series.n == 10 for series in scan)


class TestSeriesCheck:
    """A series checks its rows when made and names the first bad one, as each row once did."""

    # fig1 over two noise strengths: two series of five rows on t = k 2 pi / 5
    SCAN = {"eta_values": [0.0, 1.0], "t_steps": 5}
    T = (np.arange(1, 6) * (2.0 * math.pi / 5)).tolist()

    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("fidelity", 1.1, "fidelity 1.1 outside [1/2, 1]"),
            # an engine row's range check comes first, and NaN is outside it
            ("fidelity", math.nan, "fidelity nan outside [1/2, 1]"),
            ("abs_z", math.inf, "abs_z inf not finite"),
            ("dephasing", math.nan, "lambda nan not finite"),
        ],
        ids=["F-above-1", "nan-F", "inf-abs-z", "nan-lambda"],
    )
    def test_first_bad_row_named(self, column, value, message, tmp_path, capsys, monkeypatch):
        # the defect sits on the middle row of the second series, and a
        # later row of it carries another one that must not be named
        fidelity_curve = lindblad.fidelity_curve
        calls = []

        def defective(engine, times, *args):
            curve = fidelity_curve(engine, times, *args)
            calls.append(curve)
            if len(calls) == 2:
                columns = {"amplitude": curve.amplitude.copy(), "dephasing": curve.dephasing.copy(),
                           "fidelity": curve.fidelity.copy()}
                columns["amplitude" if column == "abs_z" else column][2] = value
                columns["fidelity"][3] = 2.0
                curve = lindblad.FidelityCurve(**columns)
            return curve

        monkeypatch.setattr(lindblad, "fidelity_curve", defective)
        expected = f"numeric failure: {message} at t={self.T[2]}"
        with pytest.raises(RuntimeError) as err:
            run_scan_fig1(self.SCAN)
        assert str(err.value) == expected
        calls.clear()
        code, err = _main(["fig1"], self.SCAN, tmp_path, capsys)
        assert code == 2
        assert err == expected + "\n"

    def test_clean_scan_passes(self):
        assert [len(series.t) for series in run_scan_fig1(self.SCAN)] == [5, 5]

    @pytest.mark.parametrize("method", ["perturbation-numeric", "perturbation-printed"])
    def test_first_order_rows_may_leave_range_but_not_be_infinite(self, method):
        columns = {"t": np.array([0.5, 1.0]), "abs_z": np.ones(2), "dephasing": np.ones(2)}
        ScanSeries(4, 2, 1.0, method, 0, fidelity=np.array([1.1, 0.2]), **columns)
        with pytest.raises(RuntimeError) as err:
            ScanSeries(4, 2, 1.0, method, 0, fidelity=np.array([1.1, math.nan]), **columns)
        assert str(err.value) == "numeric failure: fidelity nan not finite at t=1.0"


def _main(args, config, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = main([*args, "--config", str(path)])
    return code, capsys.readouterr().err


class TestFailureExits:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("t_max", float("nan")),
            ("dt", float("inf")),
            ("eta", float("nan")),
            ("eta", {"3-4": float("inf")}),
        ],
    )
    def test_non_finite_number_exits_1_naming_field(self, field, value, tmp_path, capsys):
        config = {"n": 4, "m": 2, "t_steps": 2, "method": "trajectories", field: value}
        code, err = _main(["simulate"], config, tmp_path, capsys)
        assert code == 1
        assert f"field '{field}'" in err and "must be finite" in err

    @pytest.mark.parametrize("seed", [-5, 2**64, 10**23])
    @pytest.mark.parametrize(
        "command, config",
        [
            ("simulate", {"n": 4, "t_steps": 1, "method": "unitary"}),
            ("fig1", {"eta_values": [0.0], "t_steps": 1}),
            ("fig2", {"n_max": 4, "t_steps": 1}),
            ("fig3", {"m_values": [2], "t_steps": 1}),
            ("report", {"n_traj": 2}),
        ],
    )
    def test_seed_outside_64_bits_exits_1(self, command, config, seed, tmp_path, capsys):
        code, err = _main([command, "--seed", str(seed)], config, tmp_path, capsys)
        assert code == 1
        assert "field 'seed'" in err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["simulate", "--threads", "2"], "unrecognized arguments: --threads 2"),
            (["fig1", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
            ([], "the following arguments are required: command"),
        ],
    )
    def test_usage_error_exits_1(self, args, message, capsys):
        # argparse would exit 2, the code of a numeric failure
        assert main(args) == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    def test_report_threads_field_rejected(self, tmp_path, capsys):
        # ensembles run serially; there is no worker count to set
        code, err = _main(["report"], {"threads": 7, "n_traj": 50}, tmp_path, capsys)
        assert code == 1
        assert "field 'threads': unknown field" in err

    @pytest.mark.parametrize("method", cli._METHODS)
    @pytest.mark.parametrize(
        "config, message",
        [
            ({"n": 3, "m": 1, "eta": {"3-3": 1.0}}, r"self-loop \(3, 3\) is not allowed"),
            ({"n": 5, "m": 2, "eta": {"1-2": 1.0}}, r"per-edge strengths missing pairs \[\(4, 5\)\]"),
            ({"n": 5, "m": 2, "eta": {"4-5": 1.0, "9-9": 3}}, r"self-loop \(9, 9\) is not allowed"),
            (
                {"n": 4, "noisy_vertices": [3, 4], "eta": {"3-4": 1.0, "4-3": 2.0}},
                r"per-edge strengths name pair \(3, 4\) twice",
            ),
        ],
        ids=["self-loop", "edge-on-transfer-pair", "vertex-outside-network", "pair-named-twice"],
    )
    def test_bad_edge_map_exits_1_on_every_method(self, config, message, method, tmp_path, capsys):
        # unitary reads no noise, yet it checks the map as the other routes do
        code, err = _main(["simulate"], {**config, "method": method}, tmp_path, capsys)
        assert code == 1
        assert re.fullmatch(f"configuration error: field 'eta': {message}\n", err)

    @staticmethod
    def _certify_nothing(monkeypatch):
        # every Cholesky certificate fails, as for a state at the floor,
        # so each state goes on to eigvalsh
        def not_positive_definite(matrix):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", not_positive_definite)

    @classmethod
    def _broken_eigvalsh_exit(cls, eta, tmp_path, capsys, monkeypatch):
        # both engines decide uncertified states through eigvalsh: the
        # lumped one for a scalar eta, the dense one for a per-edge map
        def broken_eigvalsh(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        cls._certify_nothing(monkeypatch)
        monkeypatch.setattr(np.linalg, "eigvalsh", broken_eigvalsh)
        config = {"n": 4, "m": 2, "eta": eta, "t_steps": 2, "method": "lindblad"}
        return _main(["simulate"], config, tmp_path, capsys)

    def test_linalg_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        code, err = self._broken_eigvalsh_exit(1.0, tmp_path, capsys, monkeypatch)
        assert code == 2
        assert err.startswith("numeric failure:")

    def test_dense_linalg_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        code, err = self._broken_eigvalsh_exit({"3-4": 1.0}, tmp_path, capsys, monkeypatch)
        assert code == 2
        assert err.startswith("numeric failure:")

    @pytest.mark.parametrize(
        "config",
        [
            {"eta": 1.0},
            {"eta": {"3-4": 1.0}},
            {"eta": 1.0, "method": "trajectories", "n_traj": 8, "t_max": 0.01},
        ],
        ids=["lumped", "per-edge-map", "trajectories"],
    )
    def test_defective_state_exits_2_naming_t(self, config, tmp_path, capsys, monkeypatch):
        # every eigenvalue read one low: the first state of each route, at
        # t = 0, fails its check as a numeric failure, not a config error
        eigvalsh = np.linalg.eigvalsh
        self._certify_nothing(monkeypatch)
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda matrix: eigvalsh(matrix) - 1.0)
        code, err = _main(["simulate"], {"n": 4, "m": 2, "t_steps": 2, **config}, tmp_path, capsys)
        assert code == 2
        assert err == "numeric failure at t=0.0: negative eigenvalue -1.000e+00\n"

    @pytest.mark.parametrize(
        "config",
        [
            {"n": 4, "m": 2, "eta": 1e300},
            {"n": 5, "noisy_vertices": [3, 4], "eta": {"3-4": 1e300}},
        ],
        ids=["lumped", "per-edge-map"],
    )
    def test_non_finite_state_exits_2_naming_t_and_defect(self, config, tmp_path, capsys):
        # the states after t = 0 are not finite; no eigensolver sees them
        code, err = _main(["simulate"], {"t_steps": 4, **config}, tmp_path, capsys)
        assert code == 2
        assert re.fullmatch(r"numeric failure at t=2\.0943951023931953: (Hermiticity|trace) defect nan\n", err)


# one out-of-range value per accepted field of every subcommand, and one
# wrong-type value where the field has a type: (command, base config,
# field, bad value)
_SIMULATE = {"n": 4}
_BAD_FIELDS = [
    ("simulate", {}, "n", 1),
    ("simulate", {}, "n", "4"),
    ("simulate", _SIMULATE, "input_vertex", 0),
    ("simulate", _SIMULATE, "input_vertex", 9),
    ("simulate", _SIMULATE, "input_vertex", "1"),
    ("simulate", _SIMULATE, "output_vertex", 9),
    ("simulate", _SIMULATE, "output_vertex", 2.0),
    ("simulate", _SIMULATE, "noisy_vertices", [9]),
    ("simulate", _SIMULATE, "noisy_vertices", "34"),
    ("simulate", _SIMULATE, "m", 3),
    ("simulate", _SIMULATE, "m", "2"),
    ("simulate", _SIMULATE, "eta", -1),
    ("simulate", _SIMULATE, "eta", "x"),
    ("simulate", _SIMULATE, "t_min", -1),
    ("simulate", _SIMULATE, "t_min", "0"),
    ("simulate", _SIMULATE, "t_max", -1),
    ("simulate", _SIMULATE, "t_max", "1"),
    ("simulate", _SIMULATE, "t_steps", 0),
    ("simulate", _SIMULATE, "t_steps", 1.5),
    ("simulate", _SIMULATE, "method", "exact"),
    ("simulate", _SIMULATE, "method", 3),
    ("simulate", _SIMULATE, "dt", 0),
    ("simulate", _SIMULATE, "dt", "x"),
    # the trajectory engine's step bounds eta * dt <= 0.05 and ||H|| * dt <= 0.05
    ("simulate", {"n": 4, "m": 2, "eta": 10.0, "method": "trajectories", "n_traj": 8}, "dt", 0.01),
    ("simulate", {"n": 100, "method": "trajectories"}, "dt", 1e-3),
    ("simulate", _SIMULATE, "n_traj", 0),
    ("simulate", _SIMULATE, "n_traj", 2.5),
    ("simulate", _SIMULATE, "master_seed", -1),
    ("simulate", _SIMULATE, "master_seed", 2**64),
    ("simulate", _SIMULATE, "master_seed", 1.5),
    ("simulate", {"n": 4, "m": 2}, "eta", {"3-5": 1}),
    ("simulate", {"n": 4, "m": 2}, "eta", {"3-4": 1, "2-3": 1}),
    ("simulate", {"n": 4, "m": 2, "method": "trajectories"}, "eta", {"3-5": 1}),
    ("fig1", {}, "n", 3),
    ("fig1", {}, "n", "4"),
    ("fig1", {}, "eta_values", [-1]),
    ("fig1", {}, "eta_values", "abc"),
    ("fig1", {}, "t_max", -1),
    ("fig1", {}, "t_max", "x"),
    ("fig1", {}, "t_steps", 0),
    ("fig1", {}, "t_steps", 1.5),
    ("fig2", {}, "n_min", 3),
    ("fig2", {}, "n_min", 4.5),
    ("fig2", {}, "n_max", 3),
    ("fig2", {}, "n_max", "12"),
    ("fig2", {}, "eta", -0.5),
    ("fig2", {}, "eta", "x"),
    ("fig2", {}, "t_max", -1),
    ("fig2", {}, "t_max", "x"),
    ("fig2", {}, "t_steps", 0),
    ("fig2", {}, "t_steps", 1.5),
    ("fig3", {}, "n", 3),
    ("fig3", {}, "n", "10"),
    ("fig3", {}, "m_values", [9]),
    ("fig3", {}, "m_values", [2.5]),
    ("fig3", {}, "eta", -0.5),
    ("fig3", {}, "eta", "x"),
    ("fig3", {}, "t_max", -1),
    ("fig3", {}, "t_max", "x"),
    ("fig3", {}, "t_steps", 0),
    ("fig3", {}, "t_steps", 1.5),
    ("report", {}, "n_traj", 0),
    # one trajectory has a standard error of 0
    ("report", {}, "n_traj", 1),
    ("report", {}, "n_traj", "x"),
    ("report", {}, "dt", -1),
    ("report", {}, "dt", "x"),
    ("report", {}, "dt", 10.0),
    ("report", {}, "seed", -1),
    ("report", {}, "seed", 1.5),
]


class TestMemory:
    def test_lumped_simulate_builds_nothing_of_size_n_squared(self, tmp_path, capsys):
        # the scalar-eta route reads only its lumped state; an
        # (n+1) x (n+1) Hamiltonian alone would be 8 MB at n = 1,002
        config = {"n": 1002, "m": 500, "eta": 200, "t_steps": 64}
        tracemalloc.start()
        try:
            code, err = _main(["simulate"], config, tmp_path, capsys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert peak < 5 << 20

    def test_per_edge_map_beyond_dense_bound_exits_1_before_allocating(self, tmp_path, capsys):
        # the dense generator at n = 100 would be about 1.7 GB of complex128
        config = {"n": 100, "m": 2, "eta": {"99-100": 1.0}}
        tracemalloc.start()
        try:
            code, err = _main(["simulate"], config, tmp_path, capsys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        assert err.startswith("configuration error: field 'n': "), err
        assert peak < 10 << 20

    @pytest.mark.parametrize(
        "command, config",
        [
            ("simulate", {"n": 1002, "m": 500, "eta": 800, "t_steps": 801}),
            ("fig3", {"n": 10002, "m_values": [5000], "eta": 200, "t_max": 2 * math.pi,
                      "t_steps": 800}),
        ],
    )
    def test_lumped_trace_holds_at_large_n(self, command, config, tmp_path, capsys):
        # an exponential of the lumped population generator with
        # ||G dt|| near 1e4 broke its trace by 1e-10 over these grids, and
        # both exited 2; the trace is now a coordinate no step changes
        code, err = _main([command], config, tmp_path, capsys)
        assert code == 0, err

    @pytest.mark.parametrize(
        "command, config",
        [
            ("simulate", {"n": 6, "m": 3, "eta": 1.0, "t_steps": 3, "method": "trajectories",
                          "n_traj": 64}),
            ("report", {"n_traj": 200}),
        ],
    )
    def test_trajectory_routes_build_no_hamiltonian(
        self, command, config, tmp_path, capsys, monkeypatch
    ):
        # the trajectory engine models the complete graph itself. H raises
        # when the CLI's trajectory branch, the report's trajectory check
        # or the engine builds it; the dense routes still build their own
        routes = {"_engine_curve", "_check_trajectories"}

        def guard(build):
            def guarded(n):
                caller = sys._getframe(1)
                if caller.f_code.co_name in routes or caller.f_globals["__name__"] == "spinnet.stochastic":
                    raise AssertionError(f"{caller.f_code.co_name} built H")
                return build(n)

            return guarded

        for module in (network, lindblad):
            built = module.single_excitation_hamiltonian
            monkeypatch.setattr(module, "single_excitation_hamiltonian", guard(built))
        code, err = _main([command], config, tmp_path, capsys)
        assert code == 0, err


class TestUnitaryRoute:
    def test_unitary_calls_no_eigensolver(self, tmp_path, capsys, monkeypatch):
        def broken_eigh(matrix):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", broken_eigh)
        code, err = _main(["simulate"], {"n": 4, "method": "unitary", "t_steps": 8}, tmp_path, capsys)
        assert code == 0, err

    def test_unitary_rows_read_beta_at_large_n(self, tmp_path, capsys):
        # a dense H alone would be 0.8 GB at this size
        config = {"n": 10002, "method": "unitary", "t_max": 0.01, "t_steps": 16}
        out = tmp_path / "unitary.csv"
        code, err = _main(["simulate", "--out", str(out)], config, tmp_path, capsys)
        assert code == 0, err
        rows = out.read_text().splitlines()[1:]
        times = ExperimentConfig.from_dict(config).times()
        assert [row.split(",")[5] for row in rows] == [f"{abs(beta(10002, float(t))):.12e}" for t in times]


class TestFieldContract:
    @pytest.mark.parametrize(
        "command, base, field, value",
        _BAD_FIELDS,
        ids=[f"{command}-{field}={value!r}" for command, _, field, value in _BAD_FIELDS],
    )
    def test_bad_field_exits_1_naming_it(self, command, base, field, value, tmp_path, capsys):
        code, err = _main([command], {**base, field: value}, tmp_path, capsys)
        assert code == 1
        assert err.startswith(f"configuration error: field '{field}': "), err

    @pytest.mark.parametrize(
        "fields, name",
        [({"n": 1}, "n"), ({"n": 4, "t_steps": 1.5}, "t_steps"), ({"n": 4, "t_min": -1.0}, "t_min")],
    )
    def test_direct_construction_names_bad_field(self, fields, name):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(**fields)
        assert err.value.field_name == name

    @pytest.mark.parametrize(
        "config",
        [
            {"n": 4, "m": 2, "eta": 0.5, "t_steps": 2},
            {"n": 5, "noisy_vertices": [3, 4, 5], "eta": {"3-4": 1.0, "3-5": 2.0, "4-5": 0.5}, "t_steps": 2},
            {"n": 6, "noisy_vertices": [5, 3], "eta": 0.2, "input_vertex": 4, "output_vertex": 1,
             "t_min": 0, "t_max": 1, "t_steps": 2, "method": "unitary"},
            {"n": 4, "m": 2, "eta": 1, "method": "trajectories", "n_traj": 20, "dt": 2e-3,
             "t_max": 0.1, "t_steps": 2, "master_seed": 5},
        ],
        ids=["scalar-eta", "per-edge-map", "explicit-noisy-set", "trajectories"],
    )
    def test_sidecar_round_trips(self, config, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code, err = _main(["simulate", "--out", str(out)], config, tmp_path, capsys)
        assert code == 0, err
        meta = json.loads((tmp_path / "run.csv.meta.json").read_text())
        assert ExperimentConfig.from_dict(meta["config"]) == ExperimentConfig.from_dict(config)


class TestEndToEnd:
    def test_simulate_writes_csv_and_metadata(self, tmp_path):
        out = tmp_path / "run.csv"
        res = _cli(
            ["simulate", "--out", str(out)],
            config={"n": 4, "m": 2, "eta": 0.5, "t_steps": 2, "method": "lindblad"},
            tmp_path=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        assert out.read_text().startswith(CSV_HEADER)
        meta = json.loads((tmp_path / "run.csv.meta.json").read_text())
        assert meta["config"]["n"] == 4

    def test_config_error_exits_1(self, tmp_path):
        res = _cli(["simulate"], config={"n": 4, "bogus": 1}, tmp_path=tmp_path)
        assert res.returncode == 1
        assert "bogus" in res.stderr

    def test_missing_config_value_error_message(self, tmp_path):
        res = _cli(["simulate"], config={"n": 1}, tmp_path=tmp_path)
        assert res.returncode == 1
        assert "field 'n'" in res.stderr

    def test_seed_flag_overrides_config(self, tmp_path):
        res = _cli(
            ["simulate", "--seed", "99"],
            config={"n": 4, "m": 2, "eta": 0.0, "t_steps": 1, "method": "unitary"},
            tmp_path=tmp_path,
        )
        assert res.returncode == 0
        assert res.stdout.strip().split("\n")[1].endswith(",unitary,99")

    def test_report_smoke(self, tmp_path):
        out = tmp_path / "report.json"
        res = _cli(
            ["report", "--out", str(out)],
            config={"n_traj": 200},
            tmp_path=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        payload = json.loads(out.read_text())
        assert all(entry["verdict"] != "mismatch" for entry in payload)
        # the human table goes to stdout when JSON goes to a file
        assert "verdict" in res.stdout


class TestProcessExit:
    """A CLI process skips the heap teardown at exit; each way out keeps its code."""

    def test_exit_handler_freezes_the_heap(self):
        # handlers run last-registered first: this one, registered before
        # the import, runs after spinnet's and sees the frozen heap
        code = "import atexit, gc; atexit.register(lambda: print(gc.get_freeze_count() > 0)); import spinnet.cli"
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "True\n"

    def test_in_process_gc_untouched(self, tmp_path, capsys):
        assert gc.get_freeze_count() == 0
        code, err = _main(["fig2"], {"n_max": 4, "t_steps": 1}, tmp_path, capsys)
        assert code == 0, err
        assert gc.get_freeze_count() == 0

    @pytest.mark.parametrize("command, config", [("fig1", {"t_steps": 256}), ("report", {})])
    def test_stdout_bytes_equal_out_file(self, command, config, tmp_path):
        out = tmp_path / "out"
        to_file = _cli([command, "--out", str(out)], config, tmp_path, text=False)
        to_stdout = _cli([command], config, tmp_path, text=False)
        assert to_file.returncode == to_stdout.returncode == 0, to_stdout.stderr
        assert to_stdout.stderr == b""
        assert to_stdout.stdout == out.read_bytes()

    @pytest.mark.parametrize(
        "config, code, message",
        [
            ({"n": 4, "m": 2, "t_max": float("nan")}, 1, "configuration error: field 't_max': must be finite\n"),
            (
                {"n": 4, "m": 2, "eta": 1e300, "method": "perturbation-numeric", "t_steps": 4},
                2,
                "numeric failure: fidelity inf not finite at t=2.0943951023931953\n",
            ),
        ],
        ids=["config-error", "numeric-failure"],
    )
    def test_failure_exit_codes_kept(self, config, code, message, tmp_path):
        res = _cli(["simulate"], config, tmp_path)
        assert res.returncode == code
        assert res.stderr == message and res.stdout == ""

    @pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
    def test_closed_stdout_exits_141_without_traceback(self, unbuffered, tmp_path):
        # buffered, as a pipe's stdout is by default, and unbuffered, where
        # the binary layer is the raw file and a closed pipe first shows
        # as a short write
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered is not None:
            env["PYTHONUNBUFFERED"] = unbuffered
        proc = subprocess.Popen(
            _cli_command(["fig1"], {"t_steps": 256}, tmp_path),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 141
        assert head.startswith(CSV_HEADER.encode()) and len(head) == 100
        assert err == b""

    @pytest.mark.parametrize(
        "command, config, blocked",
        [
            ("fig2", {"n_max": 4, "t_steps": 1}, "data"),
            ("fig2", {"n_max": 4, "t_steps": 1}, "sidecar"),
            ("report", {"n_traj": 50}, "data"),
        ],
    )
    def test_unwritable_out_exits_1_naming_out(self, command, config, blocked, tmp_path, capsys, monkeypatch):
        # the path is checked before the run, which must not start
        def runner(*args, **kwargs):
            raise AssertionError("the run started before --out was checked")

        monkeypatch.setattr(cli, {"fig2": "run_scan_fig2", "report": "run_report"}[command], runner)
        if blocked == "data":
            out = path = tmp_path / "missing" / "x.csv"
            reason = "[Errno 2] No such file or directory"
        else:
            # a directory where the sidecar goes
            out, path = tmp_path / "x.csv", tmp_path / "x.csv.meta.json"
            path.mkdir()
            reason = "[Errno 21] Is a directory"
        before = set(tmp_path.rglob("*"))
        code, err = _main([command, "--out", str(out)], config, tmp_path, capsys)
        assert code == 1
        assert err == f"configuration error: field 'out': cannot write {path}: {reason}: '{path}'\n"
        # the config file is the one file made
        assert set(tmp_path.rglob("*")) - before == {tmp_path / "config.json"}

    def test_stdout_write_loops_over_short_writes(self, monkeypatch):
        # a binary layer that takes at most 7 bytes a call, as a raw file
        # may: every byte must still arrive, in order
        class ShortWrites:
            def __init__(self):
                self.received = bytearray()

            def write(self, data):
                self.received += bytes(data[:7])
                return min(len(data), 7)

            def flush(self):
                pass

        class FakeStdout:
            buffer = ShortWrites()

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", FakeStdout())
        text = records_to_csv(run_scan_fig1({"eta_values": [0.0, 1.0], "t_steps": 3}))
        cli._write_output(text, None)
        assert bytes(FakeStdout.buffer.received) == text.encode("utf-8")
