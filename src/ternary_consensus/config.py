"""Experiment config documents: YAML loading, key-precise validation, and
construction of the runnable objects.

A config has five sections -- graph, protocol, init, run, output -- documented
in the README. Every validation error names the offending section.key so a
broken preset is diagnosable from the message alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from math import isfinite
from pathlib import Path

import yaml

from .engine import InitSpec, SimulationConfig, check_run_lengths
from .errors import ConfigError
from .graphs import SEQUENCE_KINDS, GraphSequence, make_sequence
from .metropolis import MetropolisConfig
from .protocol import ProtocolParams

_SECTIONS = ("graph", "protocol", "init", "run", "output")

_PROTOCOL_KEYS = {"alpha", "beta", "variant", "d_policy", "d_fixed", "prune_horizon"}
_INIT_KEYS = {"kind", "seed", "lo", "hi", "values"}
_RUN_KEYS = {"t_max", "stop_err", "record_level", "check"}
_OUTPUT_KEYS = {"dir"}


@dataclass(frozen=True)
class ExperimentConfig:
    seq: GraphSequence
    params: ProtocolParams
    init: InitSpec
    block_len: int
    t_max: int
    stop_err: float | None
    record_level: str
    check: bool
    out_dir: str

    def simulation(self) -> SimulationConfig:
        return SimulationConfig(
            seq=self.seq,
            params=self.params,
            init=self.init,
            t_max=self.t_max,
            record_level=self.record_level,
            check_invariants=self.check,
        )

    def metropolis(self) -> MetropolisConfig:
        return MetropolisConfig(
            seq=self.seq,
            init=self.init,
            t_max=self.t_max,
            d_policy=self.params.d_policy,
            d_fixed=self.params.d_fixed,
        )


def _section(doc: dict, name: str, allowed: set[str]) -> dict:
    if name not in doc or not isinstance(doc[name], dict):
        raise ConfigError(f"{name}: required section missing")
    sec = doc[name]
    unknown = set(sec) - allowed
    if unknown:
        raise ConfigError(f"{name}.{sorted(unknown)[0]}: unknown key")
    return sec


def _need(sec: dict, name: str, key: str):
    if key not in sec:
        raise ConfigError(f"{name}.{key}: required key missing")
    return sec[key]


def _as_int(v, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}: expected an integer, got {v!r}")
    return v


def _as_float(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {v!r}")
    return float(v)


def _as_finite(v, path: str) -> float:
    x = _as_float(v, path)
    if not isfinite(x):
        raise ConfigError(f"{path}: must be finite, got {x!r}")
    return x


def _as_bool(v, path: str) -> bool:
    if not isinstance(v, bool):
        raise ConfigError(f"{path}: expected true/false, got {v!r}")
    return v


def _as_str(v, path: str) -> str:
    if not isinstance(v, str):
        raise ConfigError(f"{path}: expected a string, got {v!r}")
    return v


def _parse_edge(tok, path: str) -> tuple[int, int]:
    if isinstance(tok, str):
        parts = tok.split("-")
        if len(parts) == 2:
            try:
                return int(parts[0]), int(parts[1])
            except ValueError:
                pass
    elif isinstance(tok, (list, tuple)) and len(tok) == 2:
        try:
            return int(tok[0]), int(tok[1])
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{path}: bad edge {tok!r}, expected 'i-j' or [i, j]")


def _parse_edges(v, path: str) -> list[tuple[int, int]]:
    if not isinstance(v, list):
        raise ConfigError(f"{path}: expected a list of edges")
    return [_parse_edge(tok, f"{path}[{k}]") for k, tok in enumerate(v)]


def _parse_rounds(v, path: str) -> list[list[tuple[int, int]]]:
    if not isinstance(v, list):
        raise ConfigError(f"{path}: expected a list of rounds")
    return [_parse_edges(r, f"{path}[{k}]") for k, r in enumerate(v)]


# parsers of the optional graph keys; make_sequence decides which a kind takes
_GRAPH_PARAMS = {
    "base": _as_str,
    "edges": _parse_edges,
    "rounds": _parse_rounds,
    "path": _as_str,
    "core_edges": _parse_edges,
    "extra_edge_prob": _as_float,
}
_GRAPH_KEYS = {"kind", "n", "seed", "B", *_GRAPH_PARAMS}


def _build_graph(sec: dict, base_dir: Path) -> tuple[GraphSequence, int]:
    kind = _as_str(_need(sec, "graph", "kind"), "graph.kind")
    n = _as_int(_need(sec, "graph", "n"), "graph.n")
    seed = _as_int(_need(sec, "graph", "seed"), "graph.seed")
    block_len = _as_int(_need(sec, "graph", "B"), "graph.B")
    if n < 1:
        raise ConfigError(f"graph.n: must be >= 1, got {n}")
    if block_len < 1:
        raise ConfigError(f"graph.B: must be >= 1, got {block_len}")

    if kind not in SEQUENCE_KINDS:
        raise ConfigError(f"graph.kind: unknown kind {kind!r}")

    kw = {
        k: parse(sec[k], f"graph.{k}") for k, parse in _GRAPH_PARAMS.items() if k in sec
    }
    if "path" in kw:  # relative to the config file
        kw["path"] = base_dir / kw["path"]
    if kind == "core_synthetic":
        kw["block_len"] = block_len
    try:
        return make_sequence(kind, n, seed, **kw), block_len
    except (ValueError, OSError) as exc:
        raise ConfigError(f"graph: {exc}") from None


def _build_protocol(sec: dict) -> ProtocolParams:
    alpha = _as_float(_need(sec, "protocol", "alpha"), "protocol.alpha")
    beta = _as_float(_need(sec, "protocol", "beta"), "protocol.beta")
    variant = _as_str(_need(sec, "protocol", "variant"), "protocol.variant")
    d_policy = _as_str(_need(sec, "protocol", "d_policy"), "protocol.d_policy")
    if "prune_horizon" not in sec:
        raise ConfigError("protocol.prune_horizon: required key missing (may be null)")
    prune = sec["prune_horizon"]
    if prune is not None:
        prune = _as_int(prune, "protocol.prune_horizon")
    d_fixed = None
    if sec.get("d_fixed") is not None:
        d_fixed = _as_float(sec["d_fixed"], "protocol.d_fixed")
    try:
        return ProtocolParams(
            alpha=alpha,
            beta=beta,
            variant=variant,
            d_policy=d_policy,
            d_fixed=d_fixed,
            prune_horizon=prune,
        )
    except ValueError as exc:
        raise ConfigError(f"protocol: {exc}") from None


def _build_init(sec: dict) -> InitSpec:
    kind = _as_str(_need(sec, "init", "kind"), "init.kind")
    seed = _as_int(sec.get("seed", 0), "init.seed") if "seed" in sec else 0
    lo = _as_finite(sec["lo"], "init.lo") if "lo" in sec else 0.0
    hi = _as_finite(sec["hi"], "init.hi") if "hi" in sec else 1.0
    values = None
    if sec.get("values") is not None:
        if not isinstance(sec["values"], list):
            raise ConfigError("init.values: expected a list of numbers")
        values = tuple(
            _as_finite(v, f"init.values[{k}]") for k, v in enumerate(sec["values"])
        )
    try:
        return InitSpec(kind=kind, seed=seed, lo=lo, hi=hi, values=values)
    except ValueError as exc:
        raise ConfigError(f"init: {exc}") from None


def load_config_data(doc, base_dir: Path = Path(".")) -> ExperimentConfig:
    """Validate a parsed config document and build the experiment objects."""
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be a mapping of sections")
    unknown = set(doc) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown section")

    seq, block_len = _build_graph(_section(doc, "graph", _GRAPH_KEYS), base_dir)
    params = _build_protocol(_section(doc, "protocol", _PROTOCOL_KEYS))
    init = _build_init(_section(doc, "init", _INIT_KEYS))

    run_sec = _section(doc, "run", _RUN_KEYS)
    t_max = _as_int(_need(run_sec, "run", "t_max"), "run.t_max")
    if t_max < 1:
        raise ConfigError(f"run.t_max: must be >= 1, got {t_max}")
    if "stop_err" not in run_sec:
        raise ConfigError("run.stop_err: required key missing (may be null)")
    stop_err = run_sec["stop_err"]
    if stop_err is not None:
        stop_err = _as_float(stop_err, "run.stop_err")
        if stop_err < 0:
            raise ConfigError(f"run.stop_err: must be >= 0, got {stop_err}")
    record_level = _as_str(
        _need(run_sec, "run", "record_level"), "run.record_level"
    )
    if record_level not in ("metrics_only", "full_trace"):
        raise ConfigError(
            f"run.record_level: expected metrics_only or full_trace, got "
            f"{record_level!r}"
        )
    check = _as_bool(_need(run_sec, "run", "check"), "run.check")

    out_sec = _section(doc, "output", _OUTPUT_KEYS)
    out_dir = _as_str(_need(out_sec, "output", "dir"), "output.dir")

    check_run_lengths(seq, init, t_max)

    return ExperimentConfig(
        seq=seq,
        params=params,
        init=init,
        block_len=block_len,
        t_max=t_max,
        stop_err=stop_err,
        record_level=record_level,
        check=check,
        out_dir=out_dir,
    )


def read_config_doc(path: str | Path) -> tuple[dict, Path]:
    """Read and parse a config file without validating it yet (the CLI patches
    override flags into the document before validation)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from None
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config: invalid YAML in {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be a mapping of sections")
    return doc, path.parent


def load_config(path: str | Path) -> ExperimentConfig:
    doc, base_dir = read_config_doc(path)
    return load_config_data(doc, base_dir=base_dir)


def preset_names() -> list[str]:
    files = resources.files("ternary_consensus") / "presets"
    return sorted(p.name[: -len(".yaml")] for p in files.iterdir() if p.name.endswith(".yaml"))


def resolve_config(name_or_path: str) -> Path:
    """Accept either a config file path or the name of a shipped preset."""
    p = Path(name_or_path)
    if p.is_file():
        return p
    stem = name_or_path[: -len(".yaml")] if name_or_path.endswith(".yaml") else name_or_path
    files = resources.files("ternary_consensus") / "presets"
    candidate = files / f"{stem}.yaml"
    if candidate.is_file():
        return Path(str(candidate))
    raise ConfigError(
        f"config: {name_or_path!r} is neither a file nor a preset "
        f"(presets: {', '.join(preset_names())})"
    )
