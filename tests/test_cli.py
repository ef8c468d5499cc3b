"""Command-line contract: config schema, CSV shape, exit codes, determinism."""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from spinnet.cli import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    main,
    records_to_csv,
    run_scan_fig1,
    run_scan_fig2,
    run_scan_fig3,
    run_simulate,
)
from spinnet.lindblad import complete_network_liouvillian
from spinnet.propagator import complete_graph_transfer_prob


def _cfg(**over):
    base = {"n": 4, "m": 2, "eta": 1.0, "t_min": 0.5, "t_max": 1.0, "t_steps": 2}
    base.update(over)
    return ExperimentConfig.from_dict(base)


def _cli(args, config=None, tmp_path=None):
    cmd = [sys.executable, "-m", "spinnet.cli", *args]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        cmd += ["--config", str(path)]
    return subprocess.run(cmd, capture_output=True, text=True)


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
            records = run_simulate(_cfg(method=method))
            assert len(records) == 2
            assert all(r.method == method for r in records)

    def test_trajectories_method_runs(self):
        records = run_simulate(_cfg(method="trajectories", n_traj=30, t_steps=1))
        assert len(records) == 1
        assert 0.5 <= records[0].fidelity <= 1.0

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
        records = run_scan_fig1({"eta_values": [0.0]})
        times = {round(r.t, 12) for r in records}
        assert round(math.pi / 4, 12) in times
        assert round(3 * math.pi / 2, 12) in times
        assert len(records) == 64

    def test_fig1_exceptional_points_match_expm(self):
        # eta = 4 and 8 are exceptional points of the four-node generator,
        # where an eigenbasis loses accuracy; a plain exponential per
        # point is the reference
        records = run_scan_fig1({"eta_values": [4, 8], "t_steps": 256})
        assert len(records) == 512
        a, b = math.cos(math.pi / 4), math.sin(math.pi / 4)
        rho0 = np.zeros((5, 5), dtype=complex)
        rho0[np.ix_([0, 1], [0, 1])] = [[a * a, a * b], [a * b, b * b]]
        worst = 0.0
        for eta in (4.0, 8.0):
            generator = complete_network_liouvillian(4, 2, eta).generator
            for r in (r for r in records if r.eta == eta):
                v = scipy.linalg.expm(generator * r.t) @ rho0.reshape(-1, order="F")
                rho = v.reshape((5, 5), order="F")
                prob = rho[2, 2].real / (b * b)
                fidelity = 0.5 + abs(rho[2, 0]) / (3 * a * b) + prob / 6
                worst = max(worst, abs(r.fidelity - fidelity), abs(r.abs_z - math.sqrt(prob)))
        assert worst < 1e-12

    def test_fig2_scale_free(self):
        # n = 10^4 has a dense generator of 10^16 entries; the lumped
        # engine runs it in milliseconds
        n, t_steps = 10**4, 50
        start = time.perf_counter()
        clean = run_scan_fig2({"n_min": n, "n_max": n, "eta": 0.0, "t_steps": t_steps})
        noisy = run_scan_fig2({"n_min": n, "n_max": n, "t_steps": t_steps})
        assert time.perf_counter() - start < 30.0
        assert len(clean) == len(noisy) == t_steps
        for r in clean:
            prob = complete_graph_transfer_prob(n, r.t)
            assert abs(r.abs_z**2 - prob) < 1e-12
            assert abs(r.fidelity - (0.5 + math.sqrt(prob) / 3 + prob / 6)) < 1e-12
        assert max(r.delta for r in noisy) > 0.0

    def test_fig1_unknown_override_rejected(self):
        with pytest.raises(ConfigError, match="etas"):
            run_scan_fig1({"etas": [1]})

    def test_fig2_rows_cover_size_range(self):
        records = run_scan_fig2({"n_min": 4, "n_max": 5, "t_steps": 10})
        assert {r.n for r in records} == {4, 5}
        assert all(r.m == r.n - 2 for r in records)
        assert all(r.delta is not None and r.delta >= 0.0 for r in records)

    def test_fig3_rows_cover_m_range(self):
        records = run_scan_fig3({"m_values": [2, 4], "t_steps": 10})
        assert {r.m for r in records} == {2, 4}
        assert all(r.n == 10 for r in records)


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
            ("report", {"n_traj": 1}),
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

    @staticmethod
    def _broken_eigvalsh_exit(eta, tmp_path, capsys, monkeypatch):
        # both engines validate states through eigvalsh: the lumped one
        # for a scalar eta, the dense one for a per-edge map
        def broken_eigvalsh(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

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
    ("report", {}, "n_traj", "x"),
    ("report", {}, "dt", -1),
    ("report", {}, "dt", "x"),
    ("report", {}, "seed", -1),
    ("report", {}, "seed", 1.5),
]


class TestMemory:
    def test_lumped_simulate_builds_nothing_of_size_n_squared(self, tmp_path, capsys):
        # the scalar-eta route reads only its lumped sectors; an
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
