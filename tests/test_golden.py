"""Bitwise output contract: metrics.csv for every shipped preset, protocol
and baseline, at seed 1 and 300 rounds, for the two fig1 presets' full
100,000-round runs, for a fig1-line baseline run past its fixed point, for
the two theorem presets' full 5,000-round runs, checked and unchecked, and
for a core_synthetic config, which no preset uses, with its check-core
output; the draws of the two generated sequence kinds; a sweep's
sweep.csv; the metrics.csv and trace.csv of two full-trace runs, one of
them computed mostly in blocks; the summary line of runs that stop at
round 0, stop mid-run, or never stop; and a static graph's metrics.csv
against the same graph's as a one-round periodic sequence. A refactor that
changes any byte of these outputs changes behaviour; regenerate the values
only for an intended behaviour change, and say so in the change log."""

import contextlib
import hashlib
import importlib
import io
import math
import pkgutil

import pytest
import yaml

import ternary_consensus
from oracles import edge_list
from ternary_consensus import engine
from ternary_consensus.cli import METRICS_HEADER, main
from ternary_consensus.config import resolve_config
from ternary_consensus.graphs import make_sequence

GOLDEN = {
    ("fig1-complete", False): "564218f4c8ef42193a518a96b4e79dcadaf72fba4471b141c2bbf39985d30178",
    ("fig1-complete", True): "aac92107ad87d9d01d7e8e4ebcd77a9967e62e49ce8f6c3c47878d895aa6980f",
    ("fig1-line", False): "23cf363efeffcf6fad1765787fe696a17a2ba39dc34497e15a4e15a7fdae3569",
    ("fig1-line", True): "eb7b37a3cadd2226295c281d96fa6ff9fe8fc9c3f61d682a0c1dba806dea5477",
    ("fig2-sweep", False): "b3299478531bb86ea8d0192fbb415f727cd0c57fc6d521b74e81b95c8ebe2377",
    ("fig2-sweep", True): "8c8543468e9cc6c4578c3b2cb98e134611c181d310bcadf16b80b5530d1a64f5",
    ("fig3-varying", False): "947ae17a375d42a52a6d9d26b4fadcfe009edc2ddeb3a29c6310b36463bc4ad3",
    ("fig3-varying", True): "f136f43431a9f8db7497b4844136deec8acad81c14f8ad0dba88b133d4172407",
    ("theorem-a025-b050", False): "4852d3062f6ff536bbb40d627779fde76acc81dd45fc4fe0bd06e247301967bb",
    ("theorem-a025-b050", True): "aaebbc4a4959717b933484f53332e49a530247139996a5071efe1c58bb6f878b",
    ("theorem-a075-b0875", False): "af4ef965159a52f3428da3fea6ac7803738f118a892808f7ae9b27b974133a45",
    ("theorem-a075-b0875", True): "aaebbc4a4959717b933484f53332e49a530247139996a5071efe1c58bb6f878b",
}


@pytest.mark.parametrize(
    "preset,baseline",
    sorted(GOLDEN),
    ids=[f"{p}{'-baseline' if b else ''}" for p, b in sorted(GOLDEN)],
)
def test_metrics_csv_bytes(preset, baseline, tmp_path):
    argv = [
        "run", "--config", preset, "--seed", "1", "--t-max", "300",
        "--out", str(tmp_path), "--quiet",
    ]
    assert main(argv + ["--baseline"] if baseline else argv) == 0
    digest = hashlib.sha256((tmp_path / "metrics.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN[preset, baseline]


# the presets' own t_max; on these static graphs most rounds are quiet
LONG_GOLDEN = {
    "fig1-complete": "ce486c6cdfc9234a977e199188e4c1bafb5beaaa610424315dd7719141d080c0",
    "fig1-line": "ff2af028d4af09dcb27f183304f9a3aea090fc12d9f1ae029b23f4502a452f45",
}


@pytest.mark.parametrize("preset", sorted(LONG_GOLDEN))
def test_full_length_metrics_csv_bytes(preset, tmp_path):
    argv = ["run", "--config", preset, "--seed", "1", "--out", str(tmp_path), "--quiet"]
    assert main(argv) == 0
    assert sha256(tmp_path / "metrics.csv") == LONG_GOLDEN[preset]


def test_baseline_past_its_fixed_point_csv_bytes(tmp_path):
    """The fig1-line baseline first returns its input bitwise at round 3,451
    and repeats that row to round 5,000. Recorded while the baseline still
    ran every round."""
    argv = [
        "run", "--config", "fig1-line", "--baseline", "--seed", "1",
        "--t-max", "5000", "--out", str(tmp_path), "--quiet",
    ]
    assert main(argv) == 0
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    tails = [line.split(",", 1)[1] for line in lines]
    assert tails[3449] != tails[3450] == tails[3451] == tails[5000]
    assert sha256(tmp_path / "metrics.csv") == (
        "2675128b20275771ba6d96da5c817bb15d5d4ffe057a66d0fa187d0db12f2ab3"
    )


# the theorem presets' full 5,000 rounds, recorded while checked runs still
# ran every round
CHECKED_GOLDEN = {
    "theorem-a025-b050": "8bdb8dc98f492afa23ae9f16ea4509b182576cfbac63eb58318d72b2ce1b09eb",
    "theorem-a075-b0875": "9931498cc0ef11acdb38799a3414a71c1fb229a8957ae50303113ab97db0be96",
}


@pytest.mark.parametrize("preset", sorted(CHECKED_GOLDEN))
def test_checked_run_writes_the_unchecked_bytes(preset, tmp_path):
    """The preset checked (the presets set run.check) and a copy with
    run.check off write the same bytes, quiet stretches included."""
    unchecked = preset_copy(tmp_path, preset, "check", False)
    for config, flags in ((preset, ["--check"]), (unchecked, [])):
        out = tmp_path / ("checked" if flags else "unchecked")
        argv = ["run", "--config", config, "--seed", "1", "--out", str(out), "--quiet"]
        assert main(argv + flags) == 0
        assert sha256(out / "metrics.csv") == CHECKED_GOLDEN[preset]


@pytest.mark.parametrize("baseline", [False, True], ids=["protocol", "baseline"])
@pytest.mark.parametrize("preset", ["fig1-line", "theorem-a025-b050"])
def test_static_graph_writes_the_bytes_of_a_one_round_periodic_one(
    preset, baseline, tmp_path
):
    """A static graph is the period-1 case of a periodic sequence: the same
    graph as one periodic round writes the same bytes, though only the static
    kind skips quiet stretches. theorem-a025-b050 sets run.check."""
    doc = yaml.safe_load(resolve_config(preset).read_text())
    graph = doc["graph"]
    base = make_sequence("static", graph["n"], base=graph.pop("base")).snapshot(1)
    graph.update(kind="periodic", rounds=[[f"{i}-{j}" for i, j in edge_list(base)]])
    periodic = tmp_path / "periodic.yaml"
    periodic.write_text(yaml.safe_dump(doc))
    outputs = []
    for config in (preset, str(periodic)):
        out = tmp_path / f"out{len(outputs)}"
        argv = ["run", "--config", config, "--seed", "1", "--t-max", "3000",
                "--out", str(out), "--quiet"]
        assert main(argv + ["--baseline"] if baseline else argv) == 0
        outputs.append((out / "metrics.csv").read_bytes())
    assert outputs[0] == outputs[1]


# n >= 12, B >= 3, extra edges and pruning on: a fresh snapshot every round
CORE_SYNTHETIC = {
    "graph": {
        "kind": "core_synthetic", "n": 14, "seed": 1, "B": 3,
        "core_edges": ["0-1", "1-2", "2-3", "3-4", "4-5", "5-6", "6-7", "7-8",
                       "8-9", "3-10", "5-11", "7-12", "12-13"],
        "extra_edge_prob": 0.15,
    },
    "protocol": {"alpha": 0.5, "beta": 0.75, "variant": "theorem",
                 "d_policy": "max_degree", "prune_horizon": 3},
    "init": {"kind": "uniform_random", "seed": 0, "lo": -1.0, "hi": 1.0},
    "run": {"t_max": 300, "stop_err": None, "record_level": "metrics_only",
            "check": False},
    "output": {"dir": "out/core-synthetic"},
}
CORE_SYNTHETIC_GOLDEN = {
    False: "6fcf2f5fa9627e0b684887de7d1f5d6767e776e9a113775c687cb51ff5d0a1ee",
    True: "b45d5f79715d8174f79a323ef84dd430dd12f5f51846600daec85baa7b6d9f3f",
}


def core_synthetic_config(tmp_path) -> str:
    path = tmp_path / "core-synthetic.yaml"
    path.write_text(yaml.safe_dump(CORE_SYNTHETIC))
    return str(path)


@pytest.mark.parametrize("baseline", [False, True], ids=["protocol", "baseline"])
def test_core_synthetic_csv_bytes(baseline, tmp_path):
    out = tmp_path / "out"
    argv = [
        "run", "--config", core_synthetic_config(tmp_path), "--seed", "1",
        "--t-max", "300", "--out", str(out), "--quiet",
    ]
    assert main(argv + ["--baseline"] if baseline else argv) == 0
    assert sha256(out / "metrics.csv") == CORE_SYNTHETIC_GOLDEN[baseline]


def test_core_synthetic_check_core_output(tmp_path):
    argv = ["check-core", "--config", core_synthetic_config(tmp_path), "--seed", "1"]
    assert summary(argv) == (
        "core-connected: yes\n"
        "core edges: 0-1 1-2 2-3 3-4 3-10 4-5 5-6 5-11 6-7 7-8 7-12 8-9 12-13\n"
    )


# each round's sorted edge list, rounds 1..200, as repr'd tuples
DRAWS_GOLDEN = {
    "relabeled_line": "11346b43006c80e2d645a5debda2a88b67eee21bd9b1f143fd58d0584de5e81d",
    "core_synthetic": "f5b38d72375c7ba5018a5bf5729936abcb944d0cc485ac6e569e509d3febb28e",
}


@pytest.mark.parametrize("kind", sorted(DRAWS_GOLDEN))
def test_generated_sequence_draws(kind):
    """The generators' draws, pinned before they moved from edge sets to
    universe rows."""
    if kind == "relabeled_line":
        seq = make_sequence(kind, 10, seed=3)
    else:
        core = [(i, i + 1) for i in range(11)]
        seq = make_sequence(kind, 12, core_edges=core, block_len=4, extra_edge_prob=0.1)
    rounds = repr([edge_list(seq.snapshot(t)) for t in range(1, 201)])
    assert hashlib.sha256(rounds.encode()).hexdigest() == DRAWS_GOLDEN[kind]


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def preset_copy(tmp_path, preset: str, key: str, value) -> str:
    """A copy of a shipped preset with one run-section key changed."""
    doc = yaml.safe_load(resolve_config(preset).read_text())
    doc["run"][key] = value
    path = tmp_path / f"{preset}-copy.yaml"
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def summary(argv) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    return stdout.getvalue()


def test_sweep_csv_bytes(tmp_path):
    argv = [
        "sweep", "--config", "fig2-sweep", "--n-list", "5,10,20", "--seed", "1",
        "--out", str(tmp_path), "--quiet",
    ]
    assert main(argv) == 0
    assert sha256(tmp_path / "sweep.csv") == (
        "36f39d816f053697dc56c55c0a13aa1f0dc01afd45ae0e882ca5aff01f0f0d4a"
    )


# trace.csv of a full-trace run at seed 1 and 300 rounds; its metrics.csv
# is the preset's GOLDEN one
TRACE_GOLDEN = {
    "fig1-line": "7274a59fec413686092010c021b1c7b0cf75426114e0f4c6983f146a413aa7bd",
    "theorem-a075-b0875": "82b4779067c9017189978dd622a620844face47440fa5b96c212758938a6cdbd",
}


def full_trace_run(tmp_path, monkeypatch, preset):
    def no_record(*args):
        raise AssertionError("a full-trace run built a RoundRecord")

    # the trace is written from each round's values; no record is built
    monkeypatch.setattr(engine, "_record", no_record)
    config = preset_copy(tmp_path, preset, "record_level", "full_trace")
    out = tmp_path / "out"
    argv = [
        "run", "--config", config, "--seed", "1", "--t-max", "300",
        "--out", str(out), "--quiet",
    ]
    assert main(argv) == 0
    assert sha256(out / "metrics.csv") == GOLDEN[preset, False]
    assert sha256(out / "trace.csv") == TRACE_GOLDEN[preset]


def test_full_trace_csv_bytes(tmp_path, monkeypatch):
    full_trace_run(tmp_path, monkeypatch, "fig1-line")


def test_block_taking_full_trace_csv_bytes(tmp_path, monkeypatch):
    """The checked preset computes 246 of its 300 rounds in 12 active
    blocks, so its trace is written from blocks. Recorded while the sink
    still got one call per block round."""
    full_trace_run(tmp_path, monkeypatch, "theorem-a075-b0875")


@pytest.mark.parametrize("baseline", [False, True], ids=["protocol", "baseline"])
def test_stop_at_round_0_summary(baseline, tmp_path):
    config = preset_copy(tmp_path, "fig1-line", "stop_err", 10)
    out = tmp_path / "out"
    argv = ["run", "--config", config, "--seed", "1", "--t-max", "300", "--out", str(out)]
    assert summary(argv + ["--baseline"] if baseline else argv) == (
        "rounds=0 err_max=0.48859329946388114 V2=1.4205258053496193 stop_round=0\n"
    )
    assert (out / "metrics.csv").read_text() == METRICS_HEADER + "\n"


@pytest.mark.parametrize(
    "baseline,t_max,line",
    [
        (False, "300", "rounds=102 err_max=0.041066670499358832 "
                       "V2=0.054760011516394577 stop_round=102"),
        (True, "300", "rounds=4 err_max=0.038271604938271607 "
                      "V2=0.064031123357481179 stop_round=4"),
        (False, "60", "rounds=60 err_max=0.1086140368023388 "
                      "V2=0.14610876968789008 stop_round=not reached"),
    ],
    ids=["protocol-stops", "baseline-stops", "protocol-not-reached"],
)
def test_stop_mid_run_summary(baseline, t_max, line, tmp_path):
    argv = [
        "run", "--config", "fig3-varying", "--seed", "1", "--t-max", t_max,
        "--out", str(tmp_path),
    ]
    assert summary(argv + ["--baseline"] if baseline else argv) == line + "\n"


def test_signed_zero_reaches_the_csv(tmp_path):
    """A zero extreme keeps the sign of the first value that attains it, as
    Python's max/min do (numpy's max/min would write 0 here)."""
    doc = yaml.safe_load(resolve_config("fig1-line").read_text())
    doc["graph"]["n"] = 3
    doc["init"] = {"kind": "explicit", "values": [-0.0, 0.0, 0.0]}
    doc["run"]["t_max"] = 2
    config = tmp_path / "zeros.yaml"
    config.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out), "--quiet"]) == 0
    assert (out / "metrics.csv").read_text() == (
        f"{METRICS_HEADER}\n1,-0,-0,0,0,0,0,0\n2,-0,-0,0,0,0,0,0\n"
    )


def compensated_sum(values, start=0):
    """The builtin sum of Python 3.12 and later over numbers: Neumaier
    compensated summation, whose correction is added once at the end (see
    "What's New in Python 3.12")."""
    total, comp = float(start), 0.0
    for v in values:
        s = total + v
        if abs(total) >= abs(v):
            comp += (total - s) + v
        else:
            comp += (v - s) + total
        total = s
    return total + comp if comp and math.isfinite(comp) else total


def test_goldens_hold_under_compensated_builtin_sum(monkeypatch, tmp_path):
    """Every float sum that reaches a CSV goes through analysis.fold_sum, so
    the outputs are the same whichever summation the builtin sum uses."""
    assert compensated_sum([1e16, 1.0, -1e16]) == 1.0
    for info in pkgutil.iter_modules(ternary_consensus.__path__):
        module = importlib.import_module(f"ternary_consensus.{info.name}")
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    for k, (preset, baseline) in enumerate(sorted(GOLDEN)):
        test_metrics_csv_bytes(preset, baseline, tmp_path / f"metrics{k}")
    for baseline in (False, True):
        (tmp_path / f"core{baseline}").mkdir()
        test_core_synthetic_csv_bytes(baseline, tmp_path / f"core{baseline}")
    test_sweep_csv_bytes(tmp_path / "sweep")
    for preset in sorted(TRACE_GOLDEN):
        (tmp_path / preset).mkdir()
        full_trace_run(tmp_path / preset, monkeypatch, preset)
