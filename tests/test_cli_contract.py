"""Property test of the CLI contract: on any config document or ``bound``
argv, ``cli.main`` returns an exit code in {0, 1, 2, 3} without raising; a
nonzero code leaves behind no file the call created; a successful ``run``
writes the header plus one metrics row per reported round.

Documents start from the suite's valid base config and take up to three random
mutations: a dropped key or section, a wrong type, a non-finite number, a
stray key in any section, an out-of-range integer, another graph kind, or an
output dir on or below a regular file.
"""

import contextlib
import io
import os
import re
import tempfile
from pathlib import Path

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_config_cli import BASE_YAML
from ternary_consensus.cli import METRICS_HEADER, SWEEP_HEADER, main

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
VERBS = [
    ["run"],
    ["run", "--baseline"],
    ["check-core"],
    ["sweep", "--n-list", "3,4", "--stop-err", "0.5"],
]


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
        "drop", "wrong-type", "non-finite", "stray", "int-range", "kind", "out-on-file",
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


def files_under(root: Path) -> dict[Path, bytes]:
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


def call(argv, cwd: Path | None = None) -> tuple[int, str]:
    """main(argv) with its output captured, run from cwd when given (a
    mutated output dir may be a relative path)."""
    stdout = io.StringIO()
    old_cwd = os.getcwd()
    try:
        if cwd is not None:
            os.chdir(cwd)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(old_cwd)
    return code, stdout.getvalue()


@given(data=st.data())
@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
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

        before = files_under(root)
        code, stdout = call(argv, cwd=root)

        assert code in (0, 1, 2, 3)
        after = files_under(root)
        if code != 0:
            assert after == before
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
    code, stdout = call(["bound"] + [f"{k}={v}" for k, v in zip(names, values)])
    assert code in (0, 1)
    if code == 0:
        lines = stdout.splitlines()
        assert len(lines) == 6
        assert all(float(line.split("=")[1]) >= 0 for line in lines)
