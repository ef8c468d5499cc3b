"""Run the spinnet command as its console script does, and report when it is ready.

    python3 bench/launch.py <spinnet arguments>

The benchmark starts every measured command through this file. It
imports ``spinnet.cli``, writes ``{"ready": time.monotonic(), "module":
...}`` to the path in ``BENCH_READY_FILE`` (CLOCK_MONOTONIC is shared by
all processes, so the parent subtracts its launch time to get the
set-up time), then calls ``spinnet.cli.main`` and exits with its code.

With ``BENCH_TRACE_FILE`` set, it first wraps the public functions of
every spinnet module, plus the ``numpy.linalg.eig`` and
``scipy.linalg.expm`` calls made while a ``lindblad`` function runs, and
at exit writes the per-layer metrics to that path. Without it, nothing
is wrapped.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import time
import types
from collections import defaultdict

LAYERS = ("network", "propagator", "lindblad", "stochastic", "perturbation", "analytics", "cli")

# Private functions timed as part of a layer metric.
EXTRA = {"cli": ("_write_output",)}


class Tracer:
    """Per-function call counts, inclusive time and self time, plus layer counters."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.stack: list[list] = []
        self.lindblad_depth = 0
        self.points = 0
        self.rows = 0
        self.series: dict[tuple, list[int]] = {}

    def wrap(self, key: str, fn, after=None, lindblad_only: bool = False):
        layer = key.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if lindblad_only and not self.lindblad_depth:
                return fn(*args, **kwargs)
            frame = [0.0]
            self.stack.append(frame)
            inside = layer == "lindblad"
            self.lindblad_depth += inside
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.lindblad_depth -= inside
                self.stack.pop()
                if self.stack:
                    self.stack[-1][0] += elapsed
                entry = self.stats[key]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[0]
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _count_points(self, args, kwargs, result) -> None:
        self.points += len(result) if isinstance(result, list) else 1

    def _count_rows(self, args, kwargs, result) -> None:
        self.rows += len(args[0] if args else kwargs["records"])

    def _count_steps(self, args, kwargs, result) -> None:
        plan = args[0] if args else kwargs["plan"]
        # the program's horizon split: whole steps plus one shorter tail step
        n_full = int(math.floor(plan.t_final / plan.dt + 1e-12))
        tail = plan.t_final - n_full * plan.dt >= 1e-12 * max(plan.t_final, plan.dt)
        steps = n_full + int(tail)
        key = (plan.master_seed, plan.n_traj, plan.dt, repr(plan.noise))
        taken = self.series.setdefault(key, [0, 0])
        taken[0] = max(taken[0], steps)
        taken[1] += steps

    def install(self) -> None:
        import numpy.linalg
        import scipy.linalg

        import spinnet

        modules = {name: importlib.import_module(f"spinnet.{name}") for name in LAYERS}
        hooks = {
            "lindblad.evolve_at_times": self._count_points,
            "lindblad.evolve": self._count_points,
            "cli.records_to_csv": self._count_rows,
            "stochastic.ensemble_average": self._count_steps,
        }
        wrapped = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                own = isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__
                if own and (not name.startswith("_") or name in EXTRA.get(layer, ())):
                    key = f"{layer}.{name}"
                    wrapped[obj] = self.wrap(key, obj, hooks.get(key))
        # rebind every reference, including names imported into other modules
        for module in (spinnet, *modules.values()):
            for name, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    setattr(module, name, wrapped[obj])
        numpy.linalg.eig = self.wrap("lindblad.eig", numpy.linalg.eig, lindblad_only=True)
        scipy.linalg.expm = self.wrap("lindblad.expm", scipy.linalg.expm, lindblad_only=True)

    def metrics(self) -> dict[str, float]:
        def calls(key: str) -> int:
            return self.stats[key][0] if key in self.stats else 0

        def total(*keys: str) -> float:
            return sum(self.stats[k][1] for k in keys if k in self.stats)

        def own(*keys: str) -> float:
            return sum(self.stats[k][2] for k in keys if k in self.stats)

        def layer_self(layer: str) -> float:
            return own(*(k for k in self.stats if k.startswith(layer + ".")))

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        evolve_s = own("lindblad.evolve_at_times", "lindblad.evolve")
        ensemble_s = total("stochastic.ensemble_average")
        needed = sum(n_traj * taken[0] for (_, n_traj, _, _), taken in self.series.items())
        steps = sum(n_traj * taken[1] for (_, n_traj, _, _), taken in self.series.items())
        return {
            "lindblad.build_s": total("lindblad.build_liouvillian"),
            "lindblad.build_calls": calls("lindblad.build_liouvillian"),
            "network.build_s": layer_self("network"),
            "lindblad.eig_s": total("lindblad.eig"),
            "lindblad.eig_calls": calls("lindblad.eig"),
            "lindblad.validate_s": total("lindblad.state_defect"),
            "lindblad.validate_calls": calls("lindblad.state_defect"),
            "lindblad.validate_per_point": ratio(calls("lindblad.state_defect"), self.points),
            "lindblad.expm_s": total("lindblad.expm"),
            "lindblad.expm_calls": calls("lindblad.expm"),
            "lindblad.expm_per_point": ratio(calls("lindblad.expm"), self.points),
            "lindblad.evolve_s": evolve_s,
            "lindblad.points": self.points,
            "lindblad.us_per_point": ratio(evolve_s * 1e6, self.points),
            "lindblad.readout_s": total("lindblad.extract_channel"),
            "lindblad.readout_calls": calls("lindblad.extract_channel"),
            "propagator.fidelity_s": total("propagator.optimal_avg_fidelity"),
            "cli.csv_s": total("cli.records_to_csv", "cli._write_output"),
            "cli.rows": self.rows,
            "stochastic.ensemble_s": ensemble_s,
            "stochastic.ensemble_calls": calls("stochastic.ensemble_average"),
            "stochastic.traj_steps": steps,
            "stochastic.us_per_traj_step": ratio(ensemble_s * 1e6, steps),
            "stochastic.useful_step_ratio": ratio(needed, steps),
            "perturbation.first_order_s": total("perturbation.first_order_numeric"),
            "perturbation.first_order_calls": calls("perturbation.first_order_numeric"),
            "perturbation.b_coeff_s": total("perturbation.b_coefficients"),
            "propagator.unitary_s": own(
                "propagator.propagator_matrix",
                "propagator.transfer_amplitude",
                "propagator.complete_graph_transfer_prob",
            ),
            "analytics.report_s": total("analytics.consistency_report"),
            "analytics.self_s": layer_self("analytics"),
        }


def main() -> int:
    import spinnet.cli

    ready = time.monotonic()
    with open(os.environ["BENCH_READY_FILE"], "w", encoding="utf-8") as handle:
        json.dump({"ready": ready, "module": spinnet.cli.__file__}, handle)
    trace_path = os.environ.get("BENCH_TRACE_FILE")
    if not trace_path:
        return spinnet.cli.main(sys.argv[1:])
    tracer = Tracer()
    tracer.install()
    try:
        return spinnet.cli.main(sys.argv[1:])
    finally:
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.metrics(), handle)


if __name__ == "__main__":
    sys.exit(main())
