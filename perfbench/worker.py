"""Fresh-interpreter side of the benchmark; run.py starts it, one at a time.

    python3 perfbench/worker.py setup   <workload> <seed>
    python3 perfbench/worker.py measure <workload> <seed> <seconds> <trace>

Both run from the checkout root and import the package from its `src/`.
`setup` prints the seconds taken to import the package, load and validate the
workload's configs, build their sequences and materialise snapshot(1), and
the host's import speed measured right after (speed.import_work).
`measure` runs the workload's CLI invocations through `cli.main(argv)` for
the given seconds, checks every output, and prints one JSON report.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import sys
import traceback
from pathlib import Path
from statistics import mean, median
from time import perf_counter

_T0 = perf_counter()

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import DEFAULT_SEED, EXPECTED, WORKLOADS  # noqa: E402

ROOT = Path.cwd()
WORK_DIR = ROOT / ".perfbench_work"


def import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ternary_consensus
    import ternary_consensus.cli

    if Path(ternary_consensus.__file__).resolve().parent != src / "ternary_consensus":
        raise SystemExit(f"imported {ternary_consensus.__file__}, not the checkout's")


def load_config(inv, seed):
    """The invocation's config with the CLI's --seed/--t-max overrides."""
    from ternary_consensus.config import load_config_data, read_config_doc, resolve_config

    doc, base_dir = read_config_doc(resolve_config(inv.config))
    doc["graph"]["seed"] = seed
    doc["init"]["seed"] = seed
    if inv.t_max is not None:
        doc["run"]["t_max"] = inv.t_max
    return load_config_data(doc, base_dir=base_dir)


def cmd_setup(workload: str, seed: int) -> None:
    import_package()
    configs = {inv.config: inv for inv in WORKLOADS[workload]}
    for inv in configs.values():
        load_config(inv, seed).seq.snapshot(1)
    elapsed = perf_counter() - _T0
    from speed import IMPORT_REFERENCE_S, import_work

    print(json.dumps({"setup_s": elapsed, "speed": IMPORT_REFERENCE_S / import_work()}))


# -- one invocation ---------------------------------------------------------


def _parse_summary(text: str) -> dict:
    fields = dict(tok.split("=", 1) for tok in text.split() if "=" in tok)
    stop = fields.get("stop_round")
    return {
        "rounds": int(fields["rounds"]),
        "stopped_at": int(stop) if stop and stop.isdigit() else None,
    }


def _csv_facts(path: Path) -> dict:
    digest = hashlib.sha256()
    size = rows = active = nonzero = 0
    last_err = None
    with open(path, "rb") as fh:
        header = fh.readline()
        digest.update(header)
        size += len(header)
        for line in fh:
            digest.update(line)
            size += len(line)
            fields = line.split(b",")
            rows += 1
            active += int(fields[6])
            nonzero += int(fields[7])
            last_err = float(fields[5])
    return {
        "sha256": digest.hexdigest(),
        "csv_bytes": size,
        "rows": rows,
        "active_sum": active,
        "nonzero_sum": nonzero,
        "last_err": last_err,
    }


def invoke(main, inv, argv, out_dir: Path, probe=None) -> tuple[float, dict]:
    """Run one CLI invocation; return its wall time and its output facts.
    With a SpeedProbe, the host speed is sampled during the invocation and
    the samples' own time is left out of the wall time. Anything the
    invocation raises is reported as a failure, not re-raised."""
    buf = io.StringIO()
    n_samples = len(probe.samples) if probe else 0
    sampling = probe.sampling() if probe else contextlib.nullcontext()
    t0 = perf_counter()
    try:
        with sampling, contextlib.redirect_stdout(buf):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        traceback.print_exc()
        rc = "exception"
    dt = perf_counter() - t0
    if probe:
        dt -= sum(probe.samples[n_samples:])
    facts: dict = {"rc": rc}
    if rc != 0:
        return dt, facts
    try:
        if inv.kind == "check-core":
            facts["verdict"] = buf.getvalue().split("\n", 1)[0].split(": ", 1)[1]
        else:
            facts.update(_parse_summary(buf.getvalue()))
            facts.update(_csv_facts(out_dir / "metrics.csv"))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        facts["unreadable"] = repr(exc)
    return dt, facts


# -- output checks ----------------------------------------------------------

_RECORDED = ("rc", "sha256", "rounds", "stopped_at", "nonzero_sum", "active_sum", "verdict")


def recorded_facts(facts: dict) -> dict:
    return {k: facts[k] for k in _RECORDED if k in facts}


def check_facts(inv, facts: dict, cfg, want: dict | None) -> list[str]:
    """Problems with one invocation's outputs; empty when they are correct.
    `want` holds the outputs recorded for it, when there are any."""
    if want is not None:
        got = recorded_facts(facts)
        return [] if got == want else [f"expected {want}, got {got}"]
    if facts["rc"] != 0:
        return [f"exit code {facts['rc']}"]
    if "unreadable" in facts:
        return [f"unreadable output: {facts['unreadable']}"]
    if inv.kind == "check-core":
        return [] if facts["verdict"] == "yes" else [f"verdict {facts['verdict']}"]
    out = []
    if facts["rows"] != facts["rounds"]:
        out.append(f"{facts['rows']} CSV rows for {facts['rounds']} rounds")
    if cfg.stop_err is None:
        if facts["rounds"] != cfg.t_max:
            out.append(f"{facts['rounds']} rounds, t_max {cfg.t_max}")
    else:
        if facts["stopped_at"] != facts["rounds"]:
            out.append(f"stop_err {cfg.stop_err} not reached in {facts['rounds']} rounds")
        elif not facts["last_err"] <= cfg.stop_err:
            out.append(f"err_max {facts['last_err']} > stop_err {cfg.stop_err}")
    return out


def check_rerun(inv, facts: dict, cfg) -> list[str]:
    """Rerun through the library and check conservation of the mean and
    agreement with what the CLI reported."""
    from ternary_consensus.analysis import compute_metrics
    from ternary_consensus.engine import CONSERVATION_TOL, run
    from ternary_consensus.metropolis import run_metropolis

    x0 = cfg.init.build(cfg.seq.n)
    avg0 = sum(x0) / len(x0)
    if inv.kind == "baseline":
        _, final_x = run_metropolis(cfg.metropolis(), stop_err=cfg.stop_err, keep_metrics=False)
        rounds = None
    else:
        res = run(cfg.simulation(), stop_err=cfg.stop_err, keep_metrics=False, keep_records=False)
        final_x, rounds = res.final_x, res.rounds
    out = []
    if rounds is not None and rounds != facts["rounds"]:
        out.append(f"library run took {rounds} rounds, CLI {facts['rounds']}")
    drift = abs(sum(final_x) / len(final_x) - avg0)
    if drift > CONSERVATION_TOL * max(1.0, max(abs(v) for v in x0)):
        out.append(f"final mean drifted from the initial average by {drift:.3e}")
    if compute_metrics(final_x, avg0).err_max != facts["last_err"]:
        out.append("final err_max differs from the CSV's last row")
    return out


def link_rounds(cfg, rounds: int) -> int:
    snapshot = cfg.seq.snapshot
    return sum(len(snapshot(t).edges) for t in range(1, rounds + 1))


# -- measurement ------------------------------------------------------------

def run_pass(main, invs, seed: int, probe=None) -> dict:
    walls, all_facts = [], []
    for k, inv in enumerate(invs):
        out_dir = WORK_DIR / f"{k}-{inv.kind}"
        dt, facts = invoke(main, inv, inv.argv(seed, str(out_dir)), out_dir, probe)
        walls.append(dt)
        all_facts.append(facts)
    return {"walls": walls, "facts": all_facts}


def layer_metrics(tr, it, counts) -> dict:
    """Per-layer figures of one traced pass."""
    snap_calls = tr.calls("graphs.snapshot")
    rr_calls = tr.calls("engine.run_round")
    proto_self = sum(
        tr.self_s(f"protocol.{f}")
        for f in ("compute_message", "apply_messages", "active_set", "value_update")
    )
    msgs = counts["msgs"]
    m = {
        "graphs.snapshot.calls": snap_calls,
        "graphs.snapshot.self_s": tr.self_s("graphs.snapshot"),
        "graphs.snapshot.ns_per_call": (
            tr.self_s("graphs.snapshot") / snap_calls * 1e9 if snap_calls else 0.0
        ),
        "graphs.check_core_connected.self_s": tr.self_s("graphs.check_core_connected"),
        "graphs.edges_per_round": tr.snapshot_edges / snap_calls if snap_calls else 0.0,
    }
    for f in ("compute_message", "apply_messages", "active_set", "value_update"):
        m[f"protocol.{f}.calls"] = tr.calls(f"protocol.{f}")
        m[f"protocol.{f}.self_s"] = tr.self_s(f"protocol.{f}")
    m["protocol.ns_per_msg"] = proto_self / msgs * 1e9 if msgs else 0.0
    m.update({
        "engine.run_round.calls": rr_calls,
        "engine.run_round.self_s": tr.self_s("engine.run_round"),
        "engine.run_round.us_per_round": (
            tr.total_s("engine.run_round") / rr_calls * 1e6 if rr_calls else 0.0
        ),
        "engine.run.self_s": tr.self_s("engine.run"),
    })
    for name in ("validate_round", "reconstruct_matrix", "validate_matrix", "compute_metrics"):
        m[f"analysis.{name}.calls"] = tr.calls(f"analysis.{name}")
        m[f"analysis.{name}.self_s"] = tr.self_s(f"analysis.{name}")
    m.update({
        "metropolis.metropolis_round.calls": tr.calls("metropolis.metropolis_round"),
        "metropolis.metropolis_round.self_s": tr.self_s("metropolis.metropolis_round"),
        "metropolis.run_metropolis.self_s": tr.self_s("metropolis.run_metropolis"),
        "cli.main.self_s": tr.self_s("cli.main"),
        "cli.metrics_sink.calls": tr.calls("cli.metrics_sink"),
        "cli.metrics_sink.self_s": tr.self_s("cli.metrics_sink"),
        "cli.csv_bytes": sum(f.get("csv_bytes", 0) for f in it["facts"]),
        "config.load_config_data.self_s": tr.self_s("config.load_config_data"),
        "protocol.msgs": msgs,
        "protocol.nonzero_msgs": counts["nonzero"],
        "protocol.nonzero_frac": counts["nonzero"] / msgs if msgs else 0.0,
        "engine.active_pair_frac": (
            counts["active"] / counts["links"] if counts["links"] else 0.0
        ),
    })
    return m


def cmd_measure(workload: str, seed: int, seconds: float, trace: bool) -> None:
    import resource

    import_package()
    from ternary_consensus import cli
    from speed import REFERENCE_S, SpeedProbe
    from tracer import Tracer, traced

    invs = WORKLOADS[workload]
    recorded = EXPECTED.get(workload) if seed == DEFAULT_SEED else None
    shutil.rmtree(WORK_DIR, ignore_errors=True)

    untraced, traced_its, tracers = [], [], []
    probe = SpeedProbe()
    deadline = perf_counter() + seconds
    try:
        # Repeat passes while the next one is expected to end by the deadline.
        while True:
            t0 = perf_counter()
            untraced.append(run_pass(cli.main, invs, seed, probe))
            if trace:
                tr = Tracer()
                with traced(tr):
                    traced_its.append(run_pass(tr.wrap("cli.main", cli.main), invs, seed))
                tracers.append(tr)
            now = perf_counter()
            if now + (now - t0) > deadline:
                break
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        passes = untraced + traced_its

        # Check every invocation's outputs. Each is deterministic, so its
        # facts must repeat exactly across passes; the recorded and general
        # checks then run once per invocation.
        attempted = failed = 0
        problems: list[str] = []
        configs = [load_config(inv, seed) if inv.kind != "check-core" else None for inv in invs]
        for k, inv in enumerate(invs):
            runs = [it["facts"][k] for it in passes]
            bad = check_facts(inv, runs[0], configs[k], recorded[k] if recorded else None)
            if not bad and not recorded and inv.kind != "check-core":
                try:
                    bad = check_rerun(inv, runs[0], configs[k])
                except Exception as exc:
                    traceback.print_exc()
                    bad = [f"library rerun raised {exc!r}"]
            differing = sum(f != runs[0] for f in runs)
            attempted += len(runs)
            if bad:
                failed += len(runs)
            elif differing:
                failed += differing
                bad = ["outputs differ between repeats"]
            problems += [f"{' '.join(inv.argv(seed, '<out>'))}: {p}" for p in bad]

        first = passes[0]["facts"]
        counts = {"rounds": 0, "msgs": 0, "links": 0, "nonzero": 0, "active": 0}
        for inv, facts, cfg in zip(invs, first, configs):
            if inv.kind == "check-core" or facts.get("rc") != 0 or "rounds" not in facts:
                continue
            counts["rounds"] += facts["rounds"]
            if inv.kind == "run":
                links = link_rounds(cfg, facts["rounds"])
                counts["links"] += links
                counts["msgs"] += 2 * links
                counts["nonzero"] += facts["nonzero_sum"]
                counts["active"] += facts["active_sum"]

        # Means over passes: scaling by the mean probe sample is a ratio of
        # time integrals, so it pairs with the mean pass, not the median.
        wall = mean(sum(it["walls"]) for it in untraced)
        protocol_wall = mean(
            sum(w for w, inv in zip(it["walls"], invs) if inv.kind == "run") for it in untraced
        )
        report = {
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
            "nproc": os.cpu_count(),
            "passes": len(untraced),
            "traced_passes": len(traced_its),
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "counts": counts,
            "wall_s": wall,
            "protocol_wall_s": protocol_wall,
            "peak_rss_kb": peak_rss_kb,
            "speed": REFERENCE_S / mean(probe.samples),
            "recorded": [recorded_facts(f) for f in first],
        }
        if trace:
            per_it = [layer_metrics(tr, it, counts) for tr, it in zip(tracers, traced_its)]
            exact = {k for k, v in per_it[0].items() if isinstance(v, int)}
            if any({k: p[k] for k in exact} != {k: per_it[0][k] for k in exact} for p in per_it):
                report["problems"].append("traced call counts differ between repeats")
            layers = {
                k: (per_it[0][k] if k in exact else median(p[k] for p in per_it))
                for k in per_it[0]
            }
            traced_wall = mean(sum(it["walls"]) for it in traced_its)
            layers["trace.overhead_s"] = traced_wall - wall
            layers["trace.slowdown"] = traced_wall / wall
            report["layers"] = layers
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    print(json.dumps(report))


def main(argv: list[str]) -> None:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        cmd_setup(workload, seed)
    else:
        cmd_measure(workload, seed, float(argv[3]), argv[4] == "1")


if __name__ == "__main__":
    main(sys.argv[1:])
