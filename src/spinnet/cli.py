"""Command-line harness: config parsing, scans, figure data, reporting.

Subcommands:

  simulate  one engine run over a time grid, driven by a JSON config
  fig1      fidelity surface F(t, eta) for the four-node network
  fig2      noise-benefit map Delta(t, n) at m = n - 2
  fig3      noise-benefit map Delta(t, m) at n = 10
  report    cross-oracle consistency suite (JSON + text)

Every command takes --config, --out and --seed; the seed must lie in
0..2^64 - 1.
All output is a deterministic function of the resolved configuration:
CSV rows are emitted in grid order, floats in %.12e, UNIX newlines,
UTF-8, and nothing time- or host-dependent is ever written. Exit codes
are 0 (success), 1 (configuration error, usage errors such as an
unknown flag included), 2 (numeric failure, or a consistency report in
which two engines disagree).
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
from collections.abc import Mapping, Sequence
from dataclasses import MISSING, dataclass, fields, replace
from typing import NoReturn

import numpy as np

from . import lindblad, stochastic
from .analytics import ReportConfig, consistency_report
from .network import (
    NoiseSpec,
    lindblad_edge_operators,
    single_excitation_hamiltonian,
)
from .perturbation import (
    baseline_max_fidelity,
    first_order_numeric,
    printed_weak_noise_channel,
)
from .propagator import ChannelParams, transfer_amplitude

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ScanRecord",
    "run_simulate",
    "run_scan_fig1",
    "run_scan_fig2",
    "run_scan_fig3",
    "run_report",
    "main",
]

CSV_HEADER = "n,m,eta,t,F,abs_z,lambda,delta,method,seed"

_METHODS = ("unitary", "lindblad", "trajectories", "perturbation-numeric", "perturbation-printed")


class ConfigError(ValueError):
    """Configuration rejection carrying the offending field name."""

    def __init__(self, field_name: str, message: str) -> None:
        super().__init__(f"field '{field_name}': {message}")
        self.field_name = field_name


def _edge(key: object) -> tuple[int, int]:
    """A per-edge map key as a vertex pair: a pair of integers, or 'k-l' as JSON writes it."""
    parts = key.split("-") if isinstance(key, str) else key
    if not isinstance(parts, (tuple, list)) or len(parts) != 2:
        raise ConfigError("eta", f"edge key {key!r} is not of the form 'k-l'")
    try:
        return int(parts[0]), int(parts[1])
    except (TypeError, ValueError):
        raise ConfigError("eta", f"edge key {key!r} is not a pair of integers") from None


def _require_eta(raw: object) -> float | dict[tuple[int, int], float]:
    if not isinstance(raw, Mapping):
        if not isinstance(raw, numbers.Real) or isinstance(raw, bool):
            raise ConfigError("eta", "must be a number or a map of 'k-l' edge keys to numbers")
        return _require_number(raw, "eta", "nonnegative")
    out: dict[tuple[int, int], float] = {}
    for key, value in raw.items():
        edge = _edge(key)
        if not isinstance(value, numbers.Real) or isinstance(value, bool) or value < 0:
            raise ConfigError("eta", f"strength for edge {key!r} must be a nonnegative number")
        if not math.isfinite(value):
            raise ConfigError("eta", f"strength for edge {key!r} must be finite")
        out[edge] = float(value)
    if not out:
        raise ConfigError("eta", "per-edge map must not be empty")
    return out


def _require_int(raw: object, name: str, minimum: int) -> int:
    if not isinstance(raw, numbers.Integral) or isinstance(raw, bool):
        raise ConfigError(name, "must be an integer")
    if raw < minimum:
        raise ConfigError(name, f"must be at least {minimum}")
    return int(raw)


def _require_seed(raw: object, name: str) -> int:
    seed = _require_int(raw, name, 0)
    if seed >= 2**64:
        raise ConfigError(name, "must fit in 64 bits")
    return seed


def _require_number(raw: object, name: str, sign: str | None = None) -> float:
    """A finite number; ``sign`` "nonnegative" or "positive" bounds it below by 0."""
    if not isinstance(raw, numbers.Real) or isinstance(raw, bool):
        raise ConfigError(name, "must be a number")
    if not math.isfinite(raw):
        raise ConfigError(name, "must be finite")
    if (sign == "nonnegative" and raw < 0) or (sign == "positive" and raw <= 0):
        raise ConfigError(name, f"must be {sign}")
    return float(raw)


def _require_list(raw: object, name: str, message: str, empty_ok: bool = False) -> Sequence:
    if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)) or not (raw or empty_ok):
        raise ConfigError(name, message)
    return raw


def _defaults(cls: type) -> dict[str, object]:
    """Every field of a config dataclass with its default; MISSING marks a required one."""
    return {f.name: f.default for f in fields(cls)}


def _with_defaults(raw: Mapping[str, object], defaults: Mapping[str, object]) -> dict:
    """The defaults overridden by ``raw``; a name the defaults lack is rejected."""
    unknown = sorted(set(raw) - set(defaults))
    if unknown:
        raise ConfigError(unknown[0], "unknown field")
    return {**defaults, **raw}


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully resolved experiment: network, noise, grid, engine, seeds.

    Every field is checked, and stored in its plain Python type, when
    the config is made, however it is made. from_dict builds one from a
    flat JSON document; unknown keys are rejected so a typo cannot
    silently fall back to a default. Either the noisy vertices are
    listed explicitly or a count m is given, in which case the m
    highest-numbered vertices away from the transfer pair are picked.
    """

    n: int
    input_vertex: int = 1
    output_vertex: int = 2
    noisy_vertices: tuple[int, ...] = ()
    eta: float | dict[tuple[int, int], float] = 0.0
    t_min: float = 0.0
    t_max: float = 2.0 * math.pi
    t_steps: int = 64
    method: str = "lindblad"
    dt: float = 1e-3
    n_traj: int = 10000
    master_seed: int = 0

    def __post_init__(self) -> None:
        n = _require_int(self.n, "n", 2)
        vertices = _require_list(
            self.noisy_vertices, "noisy_vertices", "must be a list of vertices", empty_ok=True
        )
        checked = {
            "n": n,
            "input_vertex": _require_int(self.input_vertex, "input_vertex", 1),
            "output_vertex": _require_int(self.output_vertex, "output_vertex", 1),
            "noisy_vertices": tuple(_require_int(v, "noisy_vertices", 1) for v in vertices),
            "t_min": _require_number(self.t_min, "t_min", "nonnegative"),
            "t_max": _require_number(self.t_max, "t_max"),
            "t_steps": _require_int(self.t_steps, "t_steps", 1),
            "dt": _require_number(self.dt, "dt", "positive"),
            "eta": _require_eta(self.eta),
            "n_traj": _require_int(self.n_traj, "n_traj", 1),
            "master_seed": _require_seed(self.master_seed, "master_seed"),
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        if self.input_vertex == self.output_vertex:
            raise ConfigError("output_vertex", "must differ from input_vertex")
        for name in ("input_vertex", "output_vertex"):
            if getattr(self, name) > n:
                raise ConfigError(name, f"must lie in 1..{n}")
        clash = set(self.noisy_vertices) & {self.input_vertex, self.output_vertex}
        if clash:
            raise ConfigError("noisy_vertices", f"{sorted(clash)} overlap the transfer pair")
        if any(v > n for v in self.noisy_vertices):
            raise ConfigError("noisy_vertices", f"vertices must lie in 1..{n}")
        if len(set(self.noisy_vertices)) != len(self.noisy_vertices):
            raise ConfigError("noisy_vertices", "contains duplicates")
        if self.method not in _METHODS:
            raise ConfigError("method", f"must be one of {', '.join(_METHODS)}")
        if self.t_max < self.t_min:
            raise ConfigError("t_max", "time grid needs 0 <= t_min <= t_max")

    @classmethod
    def from_dict(cls, raw: Mapping[str, object]) -> "ExperimentConfig":
        options = _with_defaults(raw, {**_defaults(cls), "m": MISSING})
        if options["n"] is MISSING:
            raise ConfigError("n", "required")
        m = options.pop("m")
        if m is not MISSING and "noisy_vertices" in raw:
            raise ConfigError("m", "give either noisy_vertices or m, not both")
        config = cls(**options)
        if m is MISSING:
            return config
        m = _require_int(m, "m", 0)
        if m > config.n - 2:
            raise ConfigError("m", f"must not exceed n-2 = {config.n - 2}")
        pair = (config.input_vertex, config.output_vertex)
        pool = [v for v in range(config.n, 0, -1) if v not in pair]
        return replace(config, noisy_vertices=tuple(sorted(pool[:m])))

    @property
    def m(self) -> int:
        return len(self.noisy_vertices)

    def noise_spec(self) -> NoiseSpec:
        """The noise on the noisy set; a per-edge map must name each of its pairs once."""
        try:
            return NoiseSpec(self.noisy_vertices, self.eta)
        except ValueError as err:
            raise ConfigError("eta", str(err)) from None

    def uniform_eta(self) -> float:
        """Scalar noise strength; rejects per-edge maps where one value is needed."""
        if isinstance(self.eta, dict):
            raise ConfigError("eta", f"method '{self.method}' needs a scalar eta, not a map")
        return self.eta

    def eta_column(self) -> float:
        """Value for the CSV eta column: the scalar, or the mean of a per-edge map."""
        if isinstance(self.eta, dict):
            return float(np.mean(list(self.eta.values())))
        return self.eta

    def times(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.t_steps)

    def to_metadata(self) -> dict:
        meta = {f.name: getattr(self, f.name) for f in fields(self)}
        if isinstance(self.eta, dict):
            meta["eta"] = {f"{k}-{l}": v for (k, l), v in self.eta.items()}
        return meta


@dataclass(frozen=True)
class ScanRecord:
    """One CSV row: channel numbers at a single grid cell."""

    n: int
    m: int
    eta: float
    t: float
    fidelity: float
    abs_z: float
    dephasing: float
    delta: float | None
    method: str
    seed: int

    def __post_init__(self) -> None:
        # the literal first-order forms are claims, not channels, and
        # may leave the physical range; engine rows must not
        if self.method != "perturbation-printed":
            if not 0.5 - 1e-9 <= self.fidelity <= 1.0 + 1e-9:
                raise RuntimeError(
                    f"numeric failure: fidelity {self.fidelity} outside [1/2, 1] at t={self.t}"
                )

    def to_csv_row(self) -> str:
        delta = "" if self.delta is None else f"{self.delta:.12e}"
        return (
            f"{self.n},{self.m},{self.eta:.12e},{self.t:.12e},{self.fidelity:.12e},"
            f"{self.abs_z:.12e},{self.dephasing:.12e},{delta},{self.method},{self.seed}"
        )


def records_to_csv(records: Sequence[ScanRecord]) -> str:
    return "\n".join([CSV_HEADER, *(r.to_csv_row() for r in records)]) + "\n"


def run_simulate(config: ExperimentConfig) -> list[ScanRecord]:
    """Evaluate the configured engine at every time-grid point.

    unitary ignores the noise entirely; lindblad and trajectories run
    the full noisy engines; the perturbation methods use the
    first-order machinery, which by the permutation symmetry of the
    complete graph depends on the noisy set only through its size.
    """
    times = config.times()
    curve = _engine_curve(config, times)
    return _curve_records(
        config.n, config.m, config.eta_column(), times, curve, config.master_seed, config.method
    )


def _engine_curve(config: ExperimentConfig, times: np.ndarray) -> lindblad.FidelityCurve:
    if config.method.startswith("perturbation"):
        # uniform strength only
        eta = config.uniform_eta()
        numeric = config.method == "perturbation-numeric"
        route = first_order_numeric if numeric else printed_weak_noise_channel
        channels = (route(config.n, config.m, eta, float(t)) for t in times)
        return lindblad.FidelityCurve.of(ChannelParams(ch.abs_z, ch.dephasing) for ch in channels)

    pair = (config.input_vertex, config.output_vertex)

    if config.method == "unitary":
        h = single_excitation_hamiltonian(config.n)
        return lindblad.FidelityCurve.of(
            ChannelParams(transfer_amplitude(h, float(t), *pair), 1.0) for t in times
        )

    if config.method == "lindblad":
        # scalar noise is a relabelling of the standard placement; only a
        # per-edge map needs the dense engine
        if isinstance(config.eta, dict):
            ops = lindblad_edge_operators(config.n, config.noise_spec(), *pair)
            engine = lindblad.build_liouvillian(single_excitation_hamiltonian(config.n), ops)
        else:
            engine = lindblad.LumpedLiouvillian(config.n, config.m, config.eta)
        return lindblad.fidelity_curve(engine, times, pair)

    spec = config.noise_spec()
    spec.validate_for(config.n, *pair)
    a, b = lindblad.PROBE.amplitudes()
    psi = np.zeros(config.n + 1, dtype=complex)
    psi[0], psi[config.input_vertex] = a, b
    plan = stochastic.TrajectoryPlan(
        n_traj=config.n_traj,
        dt=config.dt,
        t_final=float(times[-1]),
        master_seed=config.master_seed,
        noise=spec,
    )
    h = single_excitation_hamiltonian(config.n)
    results = stochastic.ensemble_average(plan, h, psi, times=times)
    return lindblad.FidelityCurve.of(
        lindblad.extract_channel(r.rho_mean, lindblad.PROBE, *pair) for r in results
    )


def _curve_records(
    n: int,
    m: int,
    eta: float,
    times: np.ndarray,
    curve: lindblad.FidelityCurve,
    seed: int,
    method: str = "lindblad",
    baseline: float | None = None,
) -> list[ScanRecord]:
    """One row per time of a fidelity curve, with Delta when a baseline is given."""
    return [
        ScanRecord(
            n=n,
            m=m,
            eta=eta,
            t=float(t),
            fidelity=float(fidelity),
            abs_z=abs(params.amplitude),
            dephasing=params.dephasing,
            delta=None if baseline is None else max(float(fidelity) - baseline, 0.0),
            method=method,
            seed=seed,
        )
        for t, fidelity, params in zip(times, curve.fidelity, curve.channels)
    ]


def _delta_records(
    n: int,
    m: int,
    eta: float,
    times: np.ndarray,
    seed: int,
) -> list[ScanRecord]:
    """Lindblad channel plus Delta against the analytic noiseless baseline."""
    curve = lindblad.fidelity_curve(lindblad.LumpedLiouvillian(n, m, eta), times)
    return _curve_records(n, m, eta, times, curve, seed, baseline=baseline_max_fidelity(n))


def _open_grid(options: Mapping[str, object]) -> np.ndarray:
    """Open-start time grid of the figure scans: t = k t_max / t_steps, k = 1..t_steps."""
    t_steps = _require_int(options["t_steps"], "t_steps", 1)
    t_max = _require_number(options["t_max"], "t_max", "nonnegative")
    return np.arange(1, t_steps + 1) * (t_max / t_steps)


def run_scan_fig1(overrides: Mapping[str, object] | None = None, seed: int = 0) -> list[ScanRecord]:
    """Fidelity surface for the four-node network with one noisy edge.

    Defaults: eta = 0, 1, ..., 64 by the Lindblad engine, against the
    time grid t = k pi/32 for k = 1..64, so the fidelity peak t = pi/4
    and the resonance t = 3 pi/2 sit exactly on grid points.
    """
    options = _with_defaults(
        overrides or {},
        {"n": 4, "eta_values": list(range(0, 65)), "t_max": 2.0 * math.pi, "t_steps": 64},
    )
    n = _require_int(options["n"], "n", 4)
    times = _open_grid(options)
    etas = _require_list(options["eta_values"], "eta_values", "must be a nonempty list of numbers")
    records: list[ScanRecord] = []
    for eta in [_require_number(eta, "eta_values", "nonnegative") for eta in etas]:
        curve = lindblad.fidelity_curve(lindblad.LumpedLiouvillian(n, n - 2, eta), times)
        records.extend(_curve_records(n, n - 2, eta, times, curve, seed))
    return records


def run_scan_fig2(overrides: Mapping[str, object] | None = None, seed: int = 0) -> list[ScanRecord]:
    """Noise-benefit map over network size: Delta(t, n) at m = n - 2, eta = 0.01."""
    options = _with_defaults(
        overrides or {},
        {"n_min": 4, "n_max": 12, "eta": 0.01, "t_max": 4.0 * math.pi, "t_steps": 200},
    )
    n_min = _require_int(options["n_min"], "n_min", 4)
    n_max = _require_int(options["n_max"], "n_max", n_min)
    eta = _require_number(options["eta"], "eta", "nonnegative")
    times = _open_grid(options)
    records: list[ScanRecord] = []
    for n in range(n_min, n_max + 1):
        records.extend(_delta_records(n, n - 2, eta, times, seed))
    return records


def run_scan_fig3(overrides: Mapping[str, object] | None = None, seed: int = 0) -> list[ScanRecord]:
    """Noise-benefit map over noisy-set size: Delta(t, m) at n = 10, eta = 0.01."""
    options = _with_defaults(
        overrides or {},
        {"n": 10, "m_values": list(range(2, 9)), "eta": 0.01, "t_max": 4.0 * math.pi, "t_steps": 200},
    )
    n = _require_int(options["n"], "n", 4)
    eta = _require_number(options["eta"], "eta", "nonnegative")
    times = _open_grid(options)
    m_values = _require_list(options["m_values"], "m_values", "must be a nonempty list of integers")
    m_values = [_require_int(m, "m_values", 0) for m in m_values]
    if max(m_values) > n - 2:
        raise ConfigError("m_values", f"must not exceed n-2 = {n - 2}")
    records: list[ScanRecord] = []
    for m in m_values:
        records.extend(_delta_records(n, m, eta, times, seed))
    return records


def run_report(config: ReportConfig | None = None) -> tuple[str, str, bool]:
    """Consistency suite: returns (json_text, table_text, engines_disagree)."""
    report = consistency_report(config)
    return report.to_json(), report.to_text(), report.has_engine_mismatch


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as err:
        raise ConfigError("config", f"cannot read {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError("config", f"{path} is not valid JSON: {err}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config", "top level must be a JSON object")
    return raw


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _write_metadata(out_path: str | None, payload: dict) -> None:
    # sidecar lives next to the data file; stdout runs skip it
    if out_path is None:
        return
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with open(out_path + ".meta.json", "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


class _Parser(argparse.ArgumentParser):
    """Raises usage errors instead of exiting 2, so that they exit 1 like any bad input."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _Parser(
        prog="spinnet",
        description="State-transfer experiments on noisy fully connected spin networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("simulate", "run one engine over a time grid"),
        ("fig1", "four-node fidelity surface F(t, eta)"),
        ("fig2", "noise-benefit map Delta(t, n) at m = n-2"),
        ("fig3", "noise-benefit map Delta(t, m) at n = 10"),
        ("report", "cross-oracle consistency suite"),
    ):
        cmd = sub.add_parser(name, help=blurb)
        cmd.add_argument("--config", help="JSON configuration file")
        cmd.add_argument("--out", help="output path (default: stdout)")
        cmd.add_argument("--seed", type=int, help="override the master seed")

    try:
        args = parser.parse_args(argv)
        raw = _load_config_file(args.config)
        seed = _require_seed(args.seed, "seed") if args.seed is not None else 0

        if args.command == "simulate":
            if args.seed is not None:
                raw = {**raw, "master_seed": args.seed}
            config = ExperimentConfig.from_dict(raw)
            records = run_simulate(config)
            _write_output(records_to_csv(records), args.out)
            _write_metadata(args.out, {"command": "simulate", "config": config.to_metadata()})
            return 0

        if args.command in ("fig1", "fig2", "fig3"):
            runner = {"fig1": run_scan_fig1, "fig2": run_scan_fig2, "fig3": run_scan_fig3}[
                args.command
            ]
            records = runner(raw, seed=seed)
            _write_output(records_to_csv(records), args.out)
            _write_metadata(
                args.out,
                {
                    "command": args.command,
                    "overrides": raw,
                    "seed": seed,
                    "time_axis": "open-start grid: t = k * t_max / t_steps, k = 1..t_steps",
                },
            )
            return 0

        # report
        options = _with_defaults(raw, _defaults(ReportConfig))
        report_config = ReportConfig(
            n_traj=_require_int(options["n_traj"], "n_traj", 1),
            dt=_require_number(options["dt"], "dt", "positive"),
            seed=seed if args.seed is not None else _require_seed(options["seed"], "seed"),
        )
        json_text, table_text, engines_disagree = run_report(report_config)
        _write_output(json_text + "\n", args.out)
        if args.out is not None:
            sys.stdout.write(table_text + "\n")
        if engines_disagree:
            print("consistency report: engine-grade mismatch", file=sys.stderr)
            return 2
        return 0

    except np.linalg.LinAlgError as err:
        # a ValueError subclass, but a failure of the numerics, not the input
        print(f"numeric failure: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        # config errors, usage errors and engine-level argument
        # rejections (step too coarse for the rate) alike
        print(f"configuration error: {err}", file=sys.stderr)
        return 1
    except RuntimeError as err:
        print(str(err), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
