"""Property test of the CLI contract: on any config document or ``bound``
argv, ``cli.main`` returns an exit code in {0, 1, 2, 3} without raising; a
document holding a number beyond the float range anywhere, a ``sweep`` with
an invalid ``--stop-err``, or a malformed command line (a non-integer
``--seed``/``--t-max``, an unknown flag, a missing ``--config``) exits 1, the
last with the usage line and the error on stderr; a nonzero code leaves the
files and directories as they were; a successful ``run`` writes the header
plus one metrics row per reported round. Config errors that random
mutations seldom reach are pinned one by one: exit 1, their one stderr line,
no file touched.

Documents start from the suite's valid base config and take up to three random
mutations: a dropped key or section, a wrong type, a non-finite number, an
integer beyond the float range in a float key, a stray key in any section, an
out-of-range integer, another graph kind, or an output dir on or below a
regular file.
"""

import contextlib
import copy
import io
import os
import re
import sys
import tempfile
from math import isfinite
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_config_cli import BASE_YAML
from ternary_consensus import cli, engine, graphs
from ternary_consensus.cli import METRICS_HEADER, SWEEP_HEADER, main
from ternary_consensus.config import load_config_data
from ternary_consensus.errors import ConfigError

GRAPH_KINDS = ["static", "periodic", "explicit", "core_synthetic", "relabeled_line"]
# values that pass each key's own parsing, so a stray one reaches make_sequence
GRAPH_EXTRAS = {
    "base": "line",
    "edges": ["0-1"],
    "rounds": [["0-1"], ["1-2"]],
    "path": "rounds.txt",
    "core_edges": ["0-1", "1-2"],
    "extra_edge_prob": 0.1,
}
OTHER_KEYS = {
    "protocol": {"d_fixed": 3.0},
    "init": {"lo": -1.0, "hi": 2.0, "values": [1.0, 0.0, 0.0]},
    "run": {},
    "output": {},
}
NON_FINITE = [float("inf"), float("-inf"), float("nan")]
HUGE = 10**400
FLOAT_KEYS = {
    "graph": ["extra_edge_prob"],
    "protocol": ["alpha", "beta", "d_fixed"],
    "init": ["lo", "hi", "values"],
    "run": ["stop_err"],
}
VERBS = [
    ["run"],
    ["run", "--baseline"],
    ["check-core"],
    ["sweep", "--n-list", "3,4"],
]
SWEEP_STOP_ERRS = {"0.5": True, "-1": False, "nan": False, "inf": False, "-inf": False}
# argv faults argparse rejects; None leaves the command line well formed
USAGE_FAULTS = [None] * 12 + ["--seed=1.5", "--t-max=x", "--bogus", "no-config"]
# the (section, key, value) patches behind each override flag
FLAG_PATCHES = {
    "--t-max": [("run", "t_max", 7)],
    "--seed": [("graph", "seed", 3), ("init", "seed", 3)],
    "--check": [("run", "check", True)],
}


def base_doc(out: Path) -> dict:
    return yaml.safe_load(BASE_YAML.format(out=str(out)))


def wrong_types(value) -> list:
    """Values of some other type than ``value``."""
    pool = [None, "text", 7, 1.5, True, [1], {"a": 1}]
    if isinstance(value, bool):
        return [v for v in pool if not isinstance(v, bool)]
    if isinstance(value, int):
        return [v for v in pool if isinstance(v, bool) or not isinstance(v, int)]
    if isinstance(value, float):
        return [v for v in pool if isinstance(v, bool) or not isinstance(v, (int, float))]
    if isinstance(value, str):
        return [v for v in pool if not isinstance(v, str)]
    return [v for v in pool if v is not None]


@st.composite
def mutation(draw, doc: dict, blocker: Path):
    """Apply one random mutation to doc in place."""
    section = draw(st.sampled_from(sorted(doc)))
    sec = doc[section]
    op = draw(st.sampled_from([
        "drop", "wrong-type", "non-finite", "huge", "stray", "int-range", "kind",
        "out-on-file",
    ]))
    if not isinstance(sec, dict):
        op = "drop"
    if op == "drop":
        if isinstance(sec, dict) and sec and draw(st.booleans()):
            del sec[draw(st.sampled_from(sorted(sec)))]
        else:
            del doc[section]
    elif op == "wrong-type":
        if draw(st.integers(0, 9)) == 0:
            doc[section] = draw(st.sampled_from([None, "text", 5, [1]]))
        elif sec:
            key = draw(st.sampled_from(sorted(sec)))
            sec[key] = draw(st.sampled_from(wrong_types(sec[key])))
    elif op == "non-finite":
        key = draw(st.sampled_from(sorted(sec) + ["d_fixed", "stop_err", "lo", "hi"]))
        sec[key] = draw(st.sampled_from(NON_FINITE))
    elif op == "huge":
        if section in FLOAT_KEYS:
            key = draw(st.sampled_from(FLOAT_KEYS[section]))
            value = draw(st.sampled_from([HUGE, -HUGE]))
            sec[key] = [value, 0.0, 0.0] if key == "values" else value
    elif op == "stray":
        extras = dict(GRAPH_EXTRAS) if section == "graph" else dict(OTHER_KEYS[section])
        extras["bogus"] = 1
        key = draw(st.sampled_from(sorted(extras)))
        sec[key] = extras[key]
    elif op == "int-range":
        ints = {
            "graph": {"n": st.integers(-3, 1), "B": st.integers(-3, 0),
                      "seed": st.integers(-(2**70), 2**70)},
            "protocol": {"prune_horizon": st.integers(-3, 0)},
            "init": {"seed": st.integers(-(2**70), 2**70)},
            "run": {"t_max": st.integers(-3, 0)},
        }.get(section)
        if ints:
            key = draw(st.sampled_from(sorted(ints)))
            sec[key] = draw(ints[key])
    elif op == "kind":
        if isinstance(doc.get("graph"), dict):
            doc["graph"]["kind"] = draw(st.sampled_from(GRAPH_KINDS))
    else:
        out = blocker / "sub" if draw(st.booleans()) else blocker
        doc.setdefault("output", {})
        if isinstance(doc["output"], dict):
            doc["output"]["dir"] = str(out)


def with_overrides(doc: dict, patches: list) -> dict:
    """The document the loader sees once the CLI has patched the override
    flags in (a section that is not a mapping is left as it is)."""
    doc = copy.deepcopy(doc)
    for section, key, value in patches:
        sec = doc.setdefault(section, {})
        if isinstance(sec, dict):
            sec[key] = value
    return doc


def tree(root: Path) -> dict[Path, bytes | None]:
    """Every file under root with its bytes, and every directory (None)."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


def beyond_float_range(value) -> bool:
    """Whether a parsed document holds nan, +-inf or an integer no float can
    carry, at any depth."""
    if isinstance(value, dict):
        return any(beyond_float_range(v) for v in value.values())
    if isinstance(value, list):
        return any(beyond_float_range(v) for v in value)
    if isinstance(value, float):
        return not isfinite(value)
    return isinstance(value, int) and abs(value) > sys.float_info.max


def call(argv, cwd: Path | None = None) -> tuple[int, str, str]:
    """main(argv) with its stdout and stderr captured, run from cwd when given
    (a mutated output dir may be a relative path)."""
    stdout = io.StringIO()
    stderr = io.StringIO()
    old_cwd = os.getcwd()
    try:
        if cwd is not None:
            os.chdir(cwd)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        os.chdir(old_cwd)
    return code, stdout.getvalue(), stderr.getvalue()


@given(data=st.data())
@settings(max_examples=330, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_config_mutations_keep_the_exit_contract(data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        out = root / "out"
        blocker = root / "blocker"
        blocker.write_text("a regular file\n")
        (root / "rounds.txt").write_text("0-1\n1-2\n" * 25)
        doc = base_doc(out)
        for _ in range(data.draw(st.integers(0, 3))):
            data.draw(mutation(doc, blocker))
        config = root / "exp.yaml"
        config.write_text(yaml.safe_dump(doc))
        verb = data.draw(st.sampled_from(VERBS))
        flags = data.draw(st.lists(
            st.sampled_from([["--t-max", "7"], ["--seed", "3"], ["--check"]]),
            max_size=3, unique_by=tuple,
        ))
        argv = verb + ["--config", str(config)] + [f for pair in flags for f in pair]
        patches = [patch for pair in flags for patch in FLAG_PATCHES[pair[0]]]
        stop_err_valid = True
        if verb[0] == "sweep":
            stop_err = data.draw(st.sampled_from(sorted(SWEEP_STOP_ERRS)))
            stop_err_valid = SWEEP_STOP_ERRS[stop_err]
            argv.append(f"--stop-err={stop_err}")
            patches.append(("run", "stop_err", float(stop_err)))
        fault = data.draw(st.sampled_from(USAGE_FAULTS))
        if fault == "no-config":
            argv.remove("--config")
            argv.remove(str(config))
        elif fault is not None:
            argv.append(fault)

        before = tree(root)
        code, stdout, stderr = call(argv, cwd=root)

        assert code in (0, 1, 2, 3)
        if beyond_float_range(with_overrides(doc, patches)) or not stop_err_valid:
            assert code == 1
        if fault is not None:
            assert code == 1
            assert stderr.startswith("usage: ternary-consensus ")
            assert ": error: " in stderr
        if code != 0:
            assert tree(root) == before
            return
        out_dir = root / doc["output"]["dir"]
        if verb[0] == "run":
            lines = (out_dir / "metrics.csv").read_text().splitlines()
            rounds = int(re.match(r"rounds=(\d+) ", stdout).group(1))
            assert lines[0] == METRICS_HEADER
            assert [int(line.split(",")[0]) for line in lines[1:]] == list(
                range(1, rounds + 1)
            )
        elif verb[0] == "sweep":
            lines = (out_dir / "sweep.csv").read_text().splitlines()
            assert lines[0] == SWEEP_HEADER
            assert [line.split(",")[0] for line in lines[1:]] == ["3", "4"]


BOUND_INTS = st.one_of(st.integers(-3, 50), st.integers(-(10**400), 10**400))
BOUND_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=0.0, max_value=1.0),
)


@given(
    ints=st.tuples(BOUND_INTS, BOUND_INTS),
    floats=st.tuples(*[BOUND_FLOATS] * 7),
)
@settings(max_examples=300, deadline=None)
def test_bound_keeps_the_exit_contract(ints, floats):
    names = ["--n", "--B", "--D", "--alpha", "--beta", "--eps", "--w0", "--v20", "--xinf"]
    values = [str(v) for v in ints] + [repr(v) for v in floats]
    code, stdout, _ = call(["bound"] + [f"{k}={v}" for k, v in zip(names, values)])
    assert code in (0, 1)
    if code == 0:
        lines = stdout.splitlines()
        assert len(lines) == 6
        assert all(float(line.split("=")[1]) >= 0 for line in lines)


def _graph(**keys):
    """A patch that puts ``keys`` in place of the base config's graph kind
    and base."""

    def patch(doc):
        del doc["graph"]["kind"], doc["graph"]["base"]
        doc["graph"].update(keys)
        return doc

    return patch


def _set(section, **keys):
    """A patch that sets ``keys`` in ``section``, adding the section if the
    document lacks it."""

    def patch(doc):
        doc.setdefault(section, {}).update(keys)
        return doc

    return patch


SWEEP = ["sweep", "--n-list", "3,4", "--stop-err", "0.1"]


@pytest.mark.parametrize(
    "argv,patch,line",
    [
        (["sweep", "--n-list", "a,b"], None,
         "--n-list: expected comma-separated integers"),
        (["sweep", "--n-list", "1"], None, "--n-list: need node counts >= 2"),
        (SWEEP, _graph(kind="static", n=4, edges=["0-1", "1-2", "2-3"]),
         "graph.base: sweep over n needs a named base graph"),
        (SWEEP, _set("init", kind="explicit", values=[1.0, 0.0, 0.0]),
         "init.kind: sweep over n cannot use an explicit vector"),
        (["check-core", "--window", "3"],
         lambda doc: _set("run", t_max=2)(
             _graph(kind="explicit", rounds=[["0-1"], ["1-2"]])(doc)),
         "graph: round 3 beyond explicit sequence of length 2"),
        (["run"], lambda doc: [doc], "config: top level must be a mapping of sections"),
        (["run"], _set("extra"), "extra: unknown section"),
        (["run"], _set("graph", B=0), "graph.B: must be >= 1, got 0"),
        (["run"], _graph(kind="static", edges="0-1"),
         "graph.edges: expected a list of edges"),
        (["run"], _graph(kind="periodic", rounds=5),
         "graph.rounds: expected a list of rounds"),
        (["run"], _graph(kind="periodic", rounds=[]),
         "graph: periodic sequence needs at least one round"),
        (["run"], _set("graph", base="star"), "graph: unknown static base 'star'"),
        (["run"], _graph(kind="relabeled_line", n=1),
         "graph: relabeled line needs n >= 2"),
        (["run"], _set("init", kind="explicit", values=3),
         "init.values: expected a list of numbers"),
        (["run"], _set("protocol", alpha="abc"),
         "protocol.alpha: expected a number, got 'abc'"),
        (["run"], _set("protocol", variant="bogus"),
         "protocol: variant must be one of ('theorem', 'practical'), got 'bogus'"),
        (["run"], _set("protocol", d_policy="bogus"),
         "protocol: d_policy must be one of ('max_degree', 'global_n', 'fixed'), "
         "got 'bogus'"),
        # an edge key u*n + v beyond int64 would wrap: check-core printed the
        # core 0-5 1-2, as the wrapped key of 3000000000-3000000001 took the
        # row of 0-5 in round 1
        (["check-core", "--window", "3"],
         lambda doc: _set("graph", B=3)(_graph(
             kind="periodic", n=4_000_000_000,
             rounds=[["3000000000-3000000001"], ["1-2"], ["0-5"]])(doc)),
         "graph: node count must be <= 3037000499 for int64 edge keys, "
         "got 4000000000"),
    ],
)
def test_config_errors_exit_1_with_one_line(argv, patch, line, tmp_path):
    """Each of these documents or command lines exits 1 with exactly one
    stderr line, its config error, and leaves the files as they were."""
    doc = base_doc(tmp_path / "out")
    if patch is not None:
        doc = patch(doc)
    config = tmp_path / "exp.yaml"
    config.write_text(yaml.safe_dump(doc))
    before = tree(tmp_path)
    code, stdout, stderr = call(argv + ["--config", str(config)])
    assert (code, stdout, stderr) == (1, "", f"config error: {line}\n")
    assert tree(tmp_path) == before


@pytest.mark.parametrize("where", ["config", "run"])
def test_out_of_memory_exits_2_with_one_line(where, tmp_path, monkeypatch):
    """A MemoryError, raised while the config builds its graph or while the
    run has its metrics file open, exits 2 with one stderr line and leaves
    the files as they were."""
    out = tmp_path / "out"
    config = tmp_path / "exp.yaml"
    config.write_text(yaml.safe_dump(base_doc(out)))
    opened = []

    def out_of_memory(*args, **kwargs):
        opened.append(sorted(p.name for p in out.glob("*")))
        raise MemoryError

    if where == "config":
        monkeypatch.setattr(graphs, "complete_edges", out_of_memory)
    else:
        monkeypatch.setattr(engine, "run_round", out_of_memory)
    before = tree(tmp_path)
    code, stdout, stderr = call(["run", "--config", str(config)])
    assert (code, stdout, stderr) == (2, "", "run failed: out of memory\n")
    assert tree(tmp_path) == before
    # inside the run it raised with a partial metrics file, now removed
    assert opened == [[f".metrics.csv.{os.getpid()}.tmp"] if where == "run" else []]


def test_a_sweep_past_the_node_limit_exits_1_and_writes_no_csv(tmp_path):
    """A sweep whose --n-list holds an n past the int64 key limit exits 1
    with the limit's config error before its first run, and writes no
    sweep.csv; no complete graph on 10**12 nodes is started."""
    out = tmp_path / "out"
    code, stdout, stderr = call([
        "sweep", "--config", "fig2-sweep", "--n-list", "2,1000000000000",
        "--out", str(out), "--quiet",
    ])
    assert (code, stdout, stderr) == (1, "", (
        "config error: graph: node count must be <= 3037000499 for int64 edge "
        "keys, got 1000000000000\n"
    ))
    assert not (out / "sweep.csv").exists()


def test_a_sweep_checks_every_size_before_its_first_run(tmp_path, monkeypatch):
    """Without --quiet too, a size past the node limit after a size that
    runs stops the sweep before any run: one error line, no output line,
    no sweep.csv."""
    runs = []
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs: runs.append(args))
    out = tmp_path / "out"
    code, stdout, stderr = call([
        "sweep", "--config", "fig2-sweep", "--n-list", "400,1000000000000",
        "--out", str(out),
    ])
    assert (code, stdout, stderr) == (1, "", (
        "config error: graph: node count must be <= 3037000499 for int64 edge "
        "keys, got 1000000000000\n"
    ))
    assert len(runs) == 0
    assert not (out / "sweep.csv").exists()


def test_a_document_that_is_not_a_mapping_is_a_config_error():
    # the loader's own copy of read_config_doc's check
    with pytest.raises(ConfigError) as err:
        load_config_data([])
    assert str(err.value) == "config: top level must be a mapping of sections"
