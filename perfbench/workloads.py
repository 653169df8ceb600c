"""The benchmark's workloads: each is a fixed list of CLI invocations, plus
the outputs recorded for it at DEFAULT_SEED.

Standard library only, so the parent process can import it without importing
the package under test.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 1
VARYING_CONFIG = "perfbench/varying.yaml"


@dataclass(frozen=True)
class Invocation:
    """One `ternary-consensus` command. kind is "run" (the ternary protocol),
    "baseline" (`run --baseline`) or "check-core"."""

    kind: str
    config: str
    t_max: int | None = None
    window: int | None = None

    def argv(self, seed: int, out_dir: str) -> list[str]:
        verb = "check-core" if self.kind == "check-core" else "run"
        argv = [verb, "--config", self.config, "--seed", str(seed)]
        if self.kind == "baseline":
            argv.append("--baseline")
        if self.t_max is not None:
            argv += ["--t-max", str(self.t_max)]
        if self.window is not None:
            argv += ["--window", str(self.window)]
        if self.kind != "check-core":
            argv += ["--out", out_dir]
        return argv


WORKLOADS: dict[str, tuple[Invocation, ...]] = {
    # Complete graph, n=20: 190 links and 380 messages a round, almost all
    # zero; per-message protocol/engine work dominates, graphs is idle (the
    # static snapshot is cached) and no checks run. The baseline puts
    # metropolis on a dense graph.
    "dense": (
        Invocation("run", "fig1-complete", t_max=4000),
        Invocation("baseline", "fig1-complete", t_max=4000),
    ),
    # Sparse core_synthetic sequence, n=30: a fresh snapshot every round,
    # ~28 links, ledger entries created and pruned every round. The run goes
    # to a stated accuracy (run.stop_err in the config).
    "varying": (
        Invocation("check-core", VARYING_CONFIG, window=1000),
        Invocation("run", VARYING_CONFIG),
    ),
    # Theorem variant (damped update) with the per-round invariant suite on,
    # complete-8, 5000 rounds each: the only workload that runs the checker.
    "checked": (
        Invocation("run", "theorem-a075-b0875"),
        Invocation("run", "theorem-a025-b050"),
    ),
}

# Outputs at DEFAULT_SEED, one entry per invocation in WORKLOADS order: exit
# code, sha256 of metrics.csv, rounds and stop round as the CLI reports them,
# and the sums of the CSV's nonzero_msgs and active_edges columns; for
# check-core, the verdict.
EXPECTED: dict[str, tuple[dict, ...]] = {
    "dense": (
        {"rc": 0, "sha256": "4a2b0aa41f1548592aa06941c2a0e93955a9b3df04521d43a01498fe53f017a5",
         "rounds": 4000, "stopped_at": None, "nonzero_sum": 3914, "active_sum": 748},
        {"rc": 0, "sha256": "f87ff634c547f544a7daf470e45c4861f154aa3c2a760981da8e20f5a228b983",
         "rounds": 4000, "stopped_at": None, "nonzero_sum": 0, "active_sum": 760000},
    ),
    "varying": (
        {"rc": 0, "verdict": "yes"},
        {"rc": 0, "sha256": "b67482bce9608a385c11bb13a15f358197051577e7a1b3fbfb94933e3905ed11",
         "rounds": 14133, "stopped_at": 14133, "nonzero_sum": 538765, "active_sum": 28811},
    ),
    "checked": (
        {"rc": 0, "sha256": "9931498cc0ef11acdb38799a3414a71c1fb229a8957ae50303113ab97db0be96",
         "rounds": 5000, "stopped_at": None, "nonzero_sum": 714, "active_sum": 34608},
        {"rc": 0, "sha256": "8bdb8dc98f492afa23ae9f16ea4509b182576cfbac63eb58318d72b2ce1b09eb",
         "rounds": 5000, "stopped_at": None, "nonzero_sum": 28, "active_sum": 1190},
    ),
}
