"""Command-line front end.

Verbs: run (simulate and emit CSV), bound (evaluate the convergence-time
bound), check-core (test a generated window for a connected persistent core),
sweep (convergence-time vs node count). Exit codes: 0 ok, 1 config error
(including a fixed degree bound the graph violates), 2 invariant violation
or run failure, 3 core-connectivity check failed. ``main`` alone maps
exceptions to these codes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import BoundInputs, compute_metrics, theorem_bound_terms
from .config import (
    ExperimentConfig,
    load_config_data,
    read_config_doc,
    resolve_config,
)
from .engine import run
from .errors import (
    ConfigError,
    DivergenceError,
    InvariantViolationError,
    ProtocolError,
)
from .graphs import check_core_connected
from .metropolis import run_metropolis

METRICS_HEADER = "t,M,m,W,V2,err_max,active_edges,nonzero_msgs"
TRACE_HEADER = "t,node,x"
SWEEP_HEADER = "n,rounds_to_err,final_err"


def _fmt(v: float) -> str:
    return format(v, ".17g")


def _metrics_line(row) -> str:
    return (
        f"{row.t},{_fmt(row.M)},{_fmt(row.m)},{_fmt(row.W)},{_fmt(row.V2)},"
        f"{_fmt(row.err_max)},{row.active_edges},{row.nonzero_msgs}"
    )


def _read_with_overrides(args) -> tuple[dict, Path]:
    """Read the config document and patch the command-line overrides in."""
    doc, base_dir = read_config_doc(resolve_config(args.config))

    def patch(section: str, key: str, value) -> None:
        sec = doc.setdefault(section, {})
        if isinstance(sec, dict):  # validation names any other section value
            sec[key] = value

    if args.seed is not None:
        patch("graph", "seed", args.seed)
        patch("init", "seed", args.seed)
    if args.t_max is not None:
        patch("run", "t_max", args.t_max)
    if args.check:
        patch("run", "check", True)
    if args.out is not None:
        patch("output", "dir", args.out)
    return doc, base_dir


def _load_with_overrides(args) -> ExperimentConfig:
    doc, base_dir = _read_with_overrides(args)
    return load_config_data(doc, base_dir=base_dir)


class _OutputFiles:
    """Context manager that opens output files and, when the block raises
    anything (Ctrl-C included), deletes every file it created, so failures
    never leave partial CSVs behind. A file that cannot be created is a
    ConfigError naming its path."""

    def __init__(self):
        self.handles = []

    def __enter__(self):
        return self

    def open(self, path: Path):
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fh = open(path, "w", encoding="utf-8", newline="\n")
        except OSError as exc:
            raise ConfigError(f"output.dir: cannot create {path}: {exc}") from None
        self.handles.append(fh)
        return fh

    def __exit__(self, exc_type, exc, tb):
        for fh in self.handles:
            fh.close()
            if exc_type is not None:
                Path(fh.name).unlink(missing_ok=True)
        return False


def cmd_run(args) -> int:
    cfg = _load_with_overrides(args)
    out_dir = Path(cfg.out_dir)
    last_row = None

    def on_row(row):
        nonlocal last_row
        last_row = row
        metrics_fh.write(_metrics_line(row) + "\n")

    with _OutputFiles() as files:
        metrics_fh = files.open(out_dir / "metrics.csv")
        metrics_fh.write(METRICS_HEADER + "\n")
        if args.baseline:
            _, final_x = run_metropolis(
                cfg.metropolis(),
                stop_err=cfg.stop_err,
                metrics_sink=on_row,
                keep_metrics=False,
            )
        else:
            sim = cfg.simulation()
            record_sink = None
            if sim.record_level == "full_trace":
                trace_fh = files.open(out_dir / "trace.csv")
                trace_fh.write(TRACE_HEADER + "\n")

                def record_sink(rec):
                    for i, v in enumerate(rec.x_post):
                        trace_fh.write(f"{rec.t},{i},{_fmt(v)}\n")

            final_x = run(
                sim,
                stop_err=cfg.stop_err,
                metrics_sink=on_row,
                record_sink=record_sink,
                keep_metrics=False,
                keep_records=False,
            ).final_x

    if last_row is None:
        # stopped before round 1: report the initial condition
        last_row = compute_metrics(final_x, sum(final_x) / len(final_x), t=0)
    if not args.quiet:
        # both runners stop on the first row at or below stop_err
        if cfg.stop_err is None:
            stop_txt = "n/a"
        elif last_row.err_max <= cfg.stop_err:
            stop_txt = str(last_row.t)
        else:
            stop_txt = "not reached"
        print(
            f"rounds={last_row.t} err_max={_fmt(last_row.err_max)} "
            f"V2={_fmt(last_row.V2)} stop_round={stop_txt}"
        )
    return 0


def cmd_bound(args) -> int:
    try:
        inputs = BoundInputs(
            n=args.n,
            B=args.B,
            D=args.D,
            alpha=args.alpha,
            beta=args.beta,
            epsilon=args.eps,
            w0=args.w0,
            v20=args.v20,
            xinf0=args.xinf,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    terms = theorem_bound_terms(inputs)
    for key in (
        "transient-estimate",
        "transient-init",
        "transient-mix",
        "steady-log",
        "steady-power",
    ):
        print(f"{key:<19}= {_fmt(terms[key])}")
    print(f"{'T':<19}= {_fmt(terms['total'])}")
    return 0


def cmd_check_core(args) -> int:
    cfg = _load_with_overrides(args)
    window = args.window if args.window is not None else 10 * cfg.block_len
    if window < cfg.block_len:
        raise ConfigError(
            f"--window: must be >= graph.B ({cfg.block_len}), got {window}"
        )
    try:
        snaps = [cfg.seq.snapshot(t) for t in range(1, window + 1)]
    except ValueError as exc:
        raise ConfigError(f"graph: {exc}") from None
    result = check_core_connected(snaps, cfg.block_len)
    verdict = "yes" if result.is_core_connected else "no"
    edges = " ".join(f"{i}-{j}" for i, j in sorted(result.core_edges))
    if not args.quiet:
        print(f"core-connected: {verdict}")
        print(f"core edges: {edges}" if edges else "core edges: (none)")
    return 0 if result.is_core_connected else 3


def cmd_sweep(args) -> int:
    doc, base_dir = _read_with_overrides(args)
    try:
        n_list = sorted({int(tok) for tok in args.n_list.split(",") if tok.strip()})
    except ValueError:
        raise ConfigError(f"--n-list: expected comma-separated integers") from None
    if not n_list or min(n_list) < 2:
        raise ConfigError("--n-list: need node counts >= 2")

    base_cfg = load_config_data(doc, base_dir=base_dir)
    kind = base_cfg.seq.kind
    if kind not in ("static", "relabeled_line"):
        raise ConfigError(
            f"graph.kind: sweep needs a size-parameterized kind "
            f"(static base graph or relabeled_line), got {kind!r}"
        )
    if kind == "static" and "base" not in doc["graph"]:
        raise ConfigError("graph.base: sweep over n needs a named base graph")
    if base_cfg.init.kind == "explicit":
        raise ConfigError("init.kind: sweep over n cannot use an explicit vector")
    stop_err = args.stop_err if args.stop_err is not None else base_cfg.stop_err
    if stop_err is None:
        raise ConfigError("--stop-err: required when run.stop_err is null")

    with _OutputFiles() as files:
        sweep_fh = files.open(Path(base_cfg.out_dir) / "sweep.csv")
        sweep_fh.write(SWEEP_HEADER + "\n")
        for n in n_list:
            sub_doc = {k: dict(v) for k, v in doc.items()}
            sub_doc["graph"]["n"] = n
            cfg = load_config_data(sub_doc, base_dir=base_dir)
            result = run(cfg.simulation(), stop_err=stop_err, keep_metrics=False,
                         keep_records=False)
            x = result.final_x
            final_err = compute_metrics(x, sum(x) / len(x)).err_max
            reached = result.stopped_at
            rounds_txt = str(reached) if reached is not None else ""
            sweep_fh.write(f"{n},{rounds_txt},{_fmt(final_err)}\n")
            if not args.quiet:
                print(
                    f"n={n}: rounds_to_err="
                    f"{rounds_txt if rounds_txt else 'not reached'} "
                    f"final_err={_fmt(final_err)}"
                )
    return 0


def _add_common(p: argparse.ArgumentParser, config_required: bool = True):
    p.add_argument(
        "--config",
        required=config_required,
        help="config file path or shipped preset name",
    )
    p.add_argument("--out", help="override output.dir")
    p.add_argument("--seed", type=int, help="override graph and init seeds")
    p.add_argument("--t-max", dest="t_max", type=int, help="override run.t_max")
    p.add_argument(
        "--check", action="store_true", help="enable per-round invariant checks"
    )
    p.add_argument("--quiet", action="store_true", help="suppress the summary line")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ternary-consensus",
        description=(
            "Simulate average consensus with single ternary messages per link "
            "per round on time-varying graphs, and analyze the runs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment and write metrics.csv")
    _add_common(p_run)
    p_run.add_argument(
        "--baseline",
        action="store_true",
        help="run the real-valued averaging baseline instead of the protocol",
    )
    p_run.set_defaults(func=cmd_run)

    p_bound = sub.add_parser(
        "bound", help="evaluate the worst-case convergence-time bound"
    )
    p_bound.add_argument("--n", type=int, required=True)
    p_bound.add_argument("--B", type=int, required=True)
    p_bound.add_argument("--D", type=float, required=True)
    p_bound.add_argument("--alpha", type=float, required=True)
    p_bound.add_argument("--beta", type=float, required=True)
    p_bound.add_argument("--eps", type=float, required=True)
    p_bound.add_argument("--w0", type=float, required=True)
    p_bound.add_argument("--v20", type=float, required=True)
    p_bound.add_argument("--xinf", type=float, required=True)
    p_bound.set_defaults(func=cmd_bound)

    p_core = sub.add_parser(
        "check-core",
        help="generate a window of rounds and test for a connected persistent core",
    )
    _add_common(p_core)
    p_core.add_argument(
        "--window",
        type=int,
        help="rounds to generate (default 10 * graph.B)",
    )
    p_core.set_defaults(func=cmd_check_core)

    p_sweep = sub.add_parser(
        "sweep", help="convergence time vs node count, written to sweep.csv"
    )
    _add_common(p_sweep)
    p_sweep.add_argument(
        "--n-list", required=True, help="comma-separated node counts"
    )
    p_sweep.add_argument(
        "--stop-err",
        dest="stop_err",
        type=float,
        help="error threshold (default run.stop_err)",
    )
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except (DivergenceError, ProtocolError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
