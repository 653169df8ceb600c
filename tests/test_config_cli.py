import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import edge_set, per_round_calls
from ternary_consensus import cli
from ternary_consensus.analysis import MetricsRow, compute_metrics
from ternary_consensus.cli import METRICS_HEADER, SWEEP_HEADER, TRACE_HEADER, main
from ternary_consensus.config import (
    _parse_yaml,
    load_config,
    load_config_data,
    preset_names,
    read_config_doc,
    resolve_config,
)
from ternary_consensus.errors import ConfigError
from ternary_consensus.metropolis import run_metropolis

BASE_YAML = """\
graph:
  kind: static
  base: complete
  n: 3
  seed: 1
  B: 1
protocol:
  alpha: 0.9
  beta: 0.0
  variant: practical
  d_policy: max_degree
  prune_horizon: null
init:
  kind: spike
  seed: 0
run:
  t_max: 5
  stop_err: null
  record_level: metrics_only
  check: false
output:
  dir: {out}
"""


def fresh_cli(argv, cwd, *flags):
    """``python [flags] -m ternary_consensus.cli argv`` in a fresh interpreter
    that imports the package from this checkout's src/."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))
    ))
    return subprocess.run(
        [sys.executable, *flags, "-m", "ternary_consensus.cli", *argv],
        capture_output=True, text=True, env=env, cwd=cwd,
    )


@pytest.fixture
def write_config(tmp_path):
    def _write(text=None, name="exp.yaml", **fmt):
        fmt.setdefault("out", str(tmp_path / "out"))
        path = tmp_path / name
        path.write_text((text or BASE_YAML).format(**fmt))
        return str(path)

    return _write


class TestConfigLoading:
    def test_round_trip(self, write_config):
        cfg = load_config(write_config())
        assert cfg.seq.kind == "static" and cfg.seq.n == 3
        assert cfg.params.variant == "practical"
        assert cfg.init.kind == "spike"
        assert cfg.t_max == 5 and cfg.stop_err is None

    @pytest.mark.parametrize(
        "mangle,needle",
        [
            (lambda d: d["graph"].pop("n"), "graph.n"),
            (lambda d: d["graph"].pop("B"), "graph.B"),
            (lambda d: d["protocol"].pop("alpha"), "protocol.alpha"),
            (lambda d: d["protocol"].pop("prune_horizon"), "protocol.prune_horizon"),
            (lambda d: d["run"].pop("stop_err"), "run.stop_err"),
            (lambda d: d["run"].pop("check"), "run.check"),
            (lambda d: d.pop("output"), "output"),
            (lambda d: d["graph"].update(kind="torus"), "graph.kind"),
            (lambda d: d["graph"].update(n="three"), "graph.n"),
            (lambda d: d["run"].update(record_level="verbose"), "run.record_level"),
            (lambda d: d["init"].update(kind="gaussian"), "init"),
            (lambda d: d["protocol"].update(alpha=1.5), "protocol"),
            (lambda d: d["graph"].update(bogus=1), "graph.bogus"),
        ],
    )
    def test_key_precise_errors(self, mangle, needle):
        doc = yaml.safe_load(BASE_YAML.format(out="out"))
        mangle(doc)
        with pytest.raises(ConfigError, match=needle.replace(".", r"\.")):
            load_config_data(doc)

    def test_explicit_graph_from_file(self, tmp_path, write_config):
        (tmp_path / "rounds.txt").write_text("0-1\n\n1-2\n")
        text = BASE_YAML.replace(
            "  kind: static\n  base: complete\n", "  kind: explicit\n  path: rounds.txt\n"
        ).replace("t_max: 5", "t_max: 3")
        cfg = load_config(write_config(text))
        assert edge_set(cfg.seq.snapshot(2).edges) == frozenset()
        assert edge_set(cfg.seq.snapshot(3).edges) == {(1, 2)}

    def test_explicit_shorter_than_budget_rejected(self, write_config):
        text = BASE_YAML.replace(
            "  kind: static\n  base: complete\n",
            '  kind: explicit\n  rounds: [["0-1"], ["1-2"]]\n',
        )
        with pytest.raises(ConfigError, match="run.t_max"):
            load_config(write_config(text))

    def test_periodic_graph_section(self, write_config):
        text = BASE_YAML.replace(
            "  kind: static\n  base: complete\n",
            '  kind: periodic\n  rounds: [["0-1"], ["1-2", "0-2"]]\n',
        )
        cfg = load_config(write_config(text))
        assert edge_set(cfg.seq.snapshot(1).edges) == {(0, 1)}
        assert edge_set(cfg.seq.snapshot(4).edges) == {(0, 2), (1, 2)}

    def test_presets_all_load(self):
        names = preset_names()
        assert {"fig1-complete", "fig1-line", "fig2-sweep", "fig3-varying"} <= set(
            names
        )
        for name in names:
            cfg = load_config(resolve_config(name))
            assert cfg.t_max >= 1

    def test_unknown_preset_errors(self):
        with pytest.raises(ConfigError, match="neither a file nor a preset"):
            resolve_config("no-such-preset")


SHIPPED_CONFIGS = [resolve_config(name) for name in preset_names()] + [
    Path(__file__).resolve().parents[1] / "perfbench" / "varying.yaml"
]


def _yaml_outcome(parse, text):
    try:
        return "ok", repr(parse(text))  # repr: a .nan scalar equals itself
    except (yaml.YAMLError, ValueError) as exc:
        return "error", str(exc)


# lines near the fast path's edge: plain `key: scalar` lines, and tabs, block
# scalars, flow lists and quotes, on which libyaml and safe_load disagree
_YAML_LINE = st.builds(
    lambda indent, key, value, comment: f"{' ' * indent}{key}:{value}{comment}",
    st.sampled_from([0, 0, 1, 2, 4]),
    st.sampled_from(["a", "b", "B", "t_max", "on", "null", "_x1"]),
    st.one_of(
        st.just(""),
        st.builds(
            "".join,
            st.tuples(
                st.sampled_from([" ", "  ", "\t"]),
                st.one_of(
                    st.sampled_from(
                        ["null", ".nan", "-.inf", "...", "0x1F", "1_000", "|#", ">", "[b :]", "'q'"]
                    ),
                    st.text("-._+/aZe019", min_size=1, max_size=6),
                ),
            ),
        ),
    ),
    st.sampled_from(["", " # c", "#c", "  #: y", " #\tc"]),
)


class TestYamlLoader:
    @pytest.fixture(params=["as-built", "without-libyaml"])
    def pyyaml_build(self, request, monkeypatch):
        """PyYAML as installed, or with its libyaml loaders taken out: a
        config must parse to the same document, or fail with the same
        message, on either build."""
        if request.param == "without-libyaml":
            for name in ("CBaseLoader", "CSafeLoader", "CFullLoader", "CUnsafeLoader", "CLoader"):
                monkeypatch.delattr(yaml, name, raising=False)
            monkeypatch.setattr(yaml, "__with_libyaml__", False)

    def test_shipped_configs_parse_as_under_safe_load(self, pyyaml_build):
        assert len(SHIPPED_CONFIGS) == len(preset_names()) + 1
        for path in SHIPPED_CONFIGS:
            doc, base_dir = read_config_doc(path)
            assert doc == yaml.safe_load(path.read_text())
            assert base_dir == path.parent

    @given(st.lists(st.one_of(_YAML_LINE, st.sampled_from(["", "# c", " "])), max_size=6))
    @settings(max_examples=400, deadline=None)
    def test_the_fast_path_parses_as_safe_load(self, lines):
        text = "\n".join(lines) + "\n"
        assert _yaml_outcome(_parse_yaml, text) == _yaml_outcome(yaml.safe_load, text)

    def test_a_flow_text_libyaml_refuses_parses(self, pyyaml_build, write_config):
        path = write_config(BASE_YAML.replace("  seed: 1\n", "  seed: [b :]\n", 1))
        doc, _ = read_config_doc(path)
        assert doc["graph"]["seed"] == [{"b": None}]

    @pytest.mark.parametrize(
        "text",
        [
            BASE_YAML.replace("alpha: 0.9", "alpha: 1" + "0" * 5000),
            BASE_YAML.replace("n: 3", "n: [3"),
            BASE_YAML.replace("  base: complete", " base: complete"),
            BASE_YAML.replace("  seed: 1", "\t seed: 1"),
            BASE_YAML.replace("alpha: 0.9", "alpha:\t0.9"),
            BASE_YAML.replace("beta: 0.0", "beta: |#\n    0.0"),
        ],
        ids=[
            "5000-digit-int",
            "unclosed-flow",
            "bad-indent",
            "tab-indent",
            "tab-after-colon",
            "block-scalar-hash",
        ],
    )
    def test_invalid_yaml_exits_1(self, pyyaml_build, write_config, tmp_path, capsys, text):
        path = write_config(text)
        _, message = _yaml_outcome(yaml.safe_load, Path(path).read_text())
        assert main(["run", "--config", path, "--quiet"]) == 1
        assert capsys.readouterr().err == (
            f"config error: config: invalid YAML in {path}: {message}\n"
        )
        assert not (tmp_path / "out").exists()


class TestCmdRun:
    def test_writes_metrics_csv(self, write_config, tmp_path):
        code = main(["run", "--config", write_config(), "--quiet"])
        assert code == 0
        lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
        assert lines[0] == METRICS_HEADER
        assert len(lines) == 6  # header + 5 rounds
        assert lines[1].split(",")[0] == "1"

    def test_t_max_override_single_row(self, write_config, tmp_path):
        code = main(["run", "--config", write_config(), "--t-max", "1", "--quiet"])
        assert code == 0
        lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_reruns_are_byte_identical(self, write_config, tmp_path):
        cfg_a = write_config(name="a.yaml", out=str(tmp_path / "out_a"))
        cfg_b = write_config(name="b.yaml", out=str(tmp_path / "out_b"))
        assert main(["run", "--config", cfg_a, "--quiet", "--t-max", "50"]) == 0
        assert main(["run", "--config", cfg_b, "--quiet", "--t-max", "50"]) == 0
        a = (tmp_path / "out_a" / "metrics.csv").read_bytes()
        b = (tmp_path / "out_b" / "metrics.csv").read_bytes()
        assert a == b

    def test_full_trace(self, write_config, tmp_path):
        text = BASE_YAML.replace("record_level: metrics_only", "record_level: full_trace")
        code = main(["run", "--config", write_config(text), "--quiet"])
        assert code == 0
        lines = (tmp_path / "out" / "trace.csv").read_text().splitlines()
        assert lines[0] == TRACE_HEADER
        assert len(lines) == 1 + 5 * 3  # n=3 nodes, 5 rounds
        assert lines[1] == "1,0,1"

    def test_baseline_full_trace(self, write_config, tmp_path):
        text = BASE_YAML.replace("record_level: metrics_only", "record_level: full_trace")
        config = write_config(text)
        assert main(["run", "--config", config, "--baseline", "--quiet"]) == 0
        lines = (tmp_path / "out" / "trace.csv").read_text().splitlines()
        assert lines[0] == TRACE_HEADER
        assert len(lines) == 1 + 5 * 3  # n=3 nodes, 5 rounds
        _, final_x = run_metropolis(load_config(config).metropolis())
        last = [line.split(",") for line in lines[-3:]]
        assert [(t, i) for t, i, _ in last] == [("5", "0"), ("5", "1"), ("5", "2")]
        assert [float(v).hex() for *_, v in last] == [v.hex() for v in final_x]

    def test_a_zero_of_another_sign_is_not_a_repeated_row(
        self, write_config, tmp_path, monkeypatch, capsys
    ):
        """cmd_run writes one sink call's row and values for every round the
        call stands for, rounds row.t..last, and formats each call afresh,
        so a row that differs only in the sign of a zero is written as its
        own; the summary names the last round of the last call."""
        calls = []

        def fake_run(config, *, metrics_sink, **kw):
            for t, zero, last in ((1, -0.0, 1), (2, 0.0, 2), (3, 0.0, 5)):
                x = (zero, zero, 0.0)
                row = MetricsRow(t, zero, zero, 0.0, 0.0, 0.0, 0, 0)
                calls.append((row, x, last))
                metrics_sink(row, x, last)
            return SimpleNamespace(final_x=x)

        monkeypatch.setattr(cli, "run", fake_run)
        text = BASE_YAML.replace("record_level: metrics_only", "record_level: full_trace")
        assert main(["run", "--config", write_config(text)]) == 0
        assert capsys.readouterr().out == "rounds=5 err_max=0 V2=0 stop_round=n/a\n"
        out = tmp_path / "out"
        assert out.joinpath("metrics.csv").read_text().splitlines()[1:] == [
            "1,-0,-0,0,0,0,0,0", "2,0,0,0,0,0,0,0", "3,0,0,0,0,0,0,0",
            "4,0,0,0,0,0,0,0", "5,0,0,0,0,0,0,0",
        ]
        assert out.joinpath("trace.csv").read_text().splitlines()[1:] == [
            f"{row.t},{i},{v:.17g}" for row, x in per_round_calls(calls)
            for i, v in enumerate(x)
        ]

    def test_a_block_call_writes_a_line_per_round(
        self, write_config, tmp_path, monkeypatch, capsys
    ):
        """cmd_run writes a block call, its row's fields columns and its
        values a (k, n) array, as the lines of its k rounds, each with its
        own row and values; the summary takes the block's last round."""
        block = np.array([[1e-300, -0.0, 0.5], [0.25, 0.0, -1.5], [1 / 3, 2.0, 0.0]])
        avg0 = 1 / 3
        rows = [compute_metrics(tuple(v), avg0, t=t, active_edges=2)
                for t, v in enumerate(block.tolist(), start=2)]
        columns = MetricsRow(
            np.arange(2, 5), *(np.array([getattr(r, f) for r in rows])
                               for f in ("M", "m", "W", "V2", "err_max")), 2, 0,
        )
        first = (1.0, 0.0, 0.0)
        calls = [(compute_metrics(first, avg0, t=1), first, 1), (columns, block, 4)]

        def fake_run(config, *, metrics_sink, **kw):
            for call in calls:
                metrics_sink(*call)
            return SimpleNamespace(final_x=tuple(block[-1].tolist()))

        monkeypatch.setattr(cli, "run", fake_run)
        text = BASE_YAML.replace("record_level: metrics_only", "record_level: full_trace")
        assert main(["run", "--config", write_config(text)]) == 0
        assert capsys.readouterr().out == (
            f"rounds=4 err_max={rows[-1].err_max:.17g} V2={rows[-1].V2:.17g} "
            "stop_round=n/a\n"
        )
        pairs = per_round_calls(calls)
        assert [row.t for row, _ in pairs] == [1, 2, 3, 4]
        out = tmp_path / "out"
        assert out.joinpath("metrics.csv").read_text().splitlines()[1:] == [
            f"{r.t},{r.M:.17g},{r.m:.17g},{r.W:.17g},{r.V2:.17g},{r.err_max:.17g},"
            f"{r.active_edges},{r.nonzero_msgs}" for r, _ in pairs
        ]
        assert out.joinpath("trace.csv").read_text().splitlines()[1:] == [
            f"{row.t},{i},{v:.17g}" for row, x in pairs for i, v in enumerate(x)
        ]

    def test_checked_run_passes(self, write_config):
        code = main(["run", "--config", write_config(), "--check", "--quiet"])
        assert code == 0

    def test_bad_config_exits_1(self, write_config, capsys):
        path = write_config(BASE_YAML.replace("alpha: 0.9", "alpha: 1.9"))
        assert main(["run", "--config", path]) == 1
        assert "config error" in capsys.readouterr().err

    def test_invariant_violation_exits_2_and_removes_partials(
        self, write_config, tmp_path, monkeypatch
    ):
        import numpy as np

        import ternary_consensus.engine as engine_mod

        def fake_validate(rec, prev, params, *, row, w0, xinf0, avg0):
            return [f"estimate-mirror: injected fault at t={rec.t}"]

        # the screen clears every round of this clean run: make it decline,
        # so the record checker is reached
        monkeypatch.setattr(
            engine_mod, "screen_block",
            lambda state, params, x_pre, x_post, *a, **k: np.zeros(len(x_post), dtype=bool),
        )
        monkeypatch.setattr(engine_mod, "validate_round", fake_validate)
        code = main(["run", "--config", write_config(), "--check", "--quiet"])
        assert code == 2
        assert not (tmp_path / "out" / "metrics.csv").exists()

    def test_stop_err_summary(self, write_config, capsys):
        text = BASE_YAML.replace("stop_err: null", "stop_err: 0.05").replace(
            "t_max: 5", "t_max: 10000"
        )
        code = main(["run", "--config", write_config(text)])
        assert code == 0
        out = capsys.readouterr().out
        assert "stop_round=" in out and "not reached" not in out

    def test_baseline_run(self, write_config, tmp_path):
        code = main(["run", "--config", write_config(), "--baseline", "--quiet"])
        assert code == 0
        lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
        assert lines[0] == METRICS_HEADER
        assert len(lines) == 6

    def test_preset_by_name(self, tmp_path):
        code = main([
            "run", "--config", "fig1-complete", "--t-max", "5",
            "--out", str(tmp_path / "p"), "--quiet",
        ])
        assert code == 0
        assert (tmp_path / "p" / "metrics.csv").exists()

    def test_fig1_preset_dispersion_never_rises(self, tmp_path):
        code = main([
            "run", "--config", "fig1-complete", "--t-max", "2000",
            "--out", str(tmp_path / "fig1"), "--quiet",
        ])
        assert code == 0
        lines = (tmp_path / "fig1" / "metrics.csv").read_text().splitlines()
        v2 = [float(l.split(",")[4]) for l in lines[1:]]
        assert all(b <= a + 1e-12 for a, b in zip(v2, v2[1:]))
        assert v2[-1] < v2[0]


EXTREMES = (0.0, -0.0, float("inf"), float("-inf"), float("nan"), 5e-324, -5e-324,
            2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308)


@given(st.lists(st.floats(), min_size=5, max_size=5), st.integers(0, 2**62),
       st.integers(0, 2**62))
@example(list(EXTREMES[:5]), 0, 0)
@example(list(EXTREMES[5:]), 1, 2**62)
def test_a_metrics_line_writes_each_float_as_fmt_does(values, active, nonzero):
    row = MetricsRow(1, *values, active, nonzero)
    expected = ",".join(map(cli._fmt, values)) + f",{active},{nonzero}\n"
    assert cli._metrics_tail(row) == expected


class TestCmdBound:
    REF_ARGS = [
        "bound", "--n", "3", "--B", "1", "--D", "3", "--alpha", "0.25",
        "--beta", "0.5", "--eps", "0.1", "--w0", "1", "--v20", "0.8660254",
        "--xinf", "1",
    ]

    def test_reference_value(self, capsys):
        assert main(self.REF_ARGS) == 0
        out = capsys.readouterr().out
        t_line = next(l for l in out.splitlines() if l.startswith("T "))
        value = float(t_line.split("=")[1])
        assert value == pytest.approx(32286861276.1815737754733170303, rel=1e-10)

    def test_all_terms_printed(self, capsys):
        assert main(self.REF_ARGS) == 0
        out = capsys.readouterr().out
        for label in (
            "transient-estimate", "transient-init", "transient-mix",
            "steady-log", "steady-power",
        ):
            assert label in out

    def test_log_clamped_when_eps_large(self, capsys):
        args = list(self.REF_ARGS)
        args[args.index("--eps") + 1] = "2.0"
        assert main(args) == 0
        out = capsys.readouterr().out
        log_line = next(l for l in out.splitlines() if l.startswith("steady-log"))
        assert float(log_line.split("=")[1]) == 0.0

    def test_smaller_eps_never_smaller_T(self, capsys):
        def t_for(eps):
            args = list(self.REF_ARGS)
            args[args.index("--eps") + 1] = str(eps)
            assert main(args) == 0
            out = capsys.readouterr().out
            line = next(l for l in out.splitlines() if l.startswith("T "))
            return float(line.split("=")[1])

        assert t_for(0.01) >= t_for(0.1) >= t_for(1.0)

    def test_domain_violation_exits_1(self, capsys):
        args = list(self.REF_ARGS)
        args[args.index("--alpha") + 1] = "0.8"  # above beta
        assert main(args) == 1
        assert "alpha" in capsys.readouterr().err


CORE_YAML = """\
graph:
  kind: core_synthetic
  n: 6
  seed: 3
  B: 3
  core_edges: ["0-1", "1-2", "2-3", "3-4", "4-5"]
  extra_edge_prob: 0.2
protocol:
  alpha: 0.25
  beta: 0.5
  variant: theorem
  d_policy: max_degree
  prune_horizon: null
init:
  kind: spike
  seed: 0
run:
  t_max: 100
  stop_err: null
  record_level: metrics_only
  check: false
output:
  dir: {out}
"""


class TestCmdCheckCore:
    def test_core_synthetic_passes(self, write_config, capsys):
        path = write_config(CORE_YAML)
        assert main(["check-core", "--config", path, "--window", "12"]) == 0
        out = capsys.readouterr().out
        assert "core-connected: yes" in out
        for tok in ("0-1", "1-2", "2-3", "3-4", "4-5"):
            assert tok in out

    def test_relabeled_line_fails(self, write_config):
        text = BASE_YAML.replace(
            "  kind: static\n  base: complete\n  n: 3\n",
            "  kind: relabeled_line\n  n: 10\n",
        )
        path = write_config(text)
        assert main(["check-core", "--config", path, "--window", "100", "--quiet"]) == 3

    def test_static_connected_passes(self, write_config):
        assert main(["check-core", "--config", write_config(), "--quiet"]) == 0

    def test_window_must_cover_block(self, write_config):
        path = write_config(CORE_YAML)
        assert main(["check-core", "--config", path, "--window", "2"]) == 1

    @pytest.mark.parametrize("B", [2**63, 2**100])
    @pytest.mark.parametrize("verb", ["run", "check-core"])
    def test_block_length_beyond_int64_exits_1(
        self, verb, B, write_config, tmp_path, capsys
    ):
        """A core_synthetic block length of 2**63 or more is one config
        error line, not a traceback from the int64 draw; 2**63 - 1 runs."""
        path = write_config(CORE_YAML.replace("B: 3", f"B: {B}"))
        assert main([verb, "--config", path, "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: graph: block length must be < 2**63, got {B}\n"
        assert not (tmp_path / "out").exists()
        path = write_config(CORE_YAML.replace("B: 3", f"B: {2**63 - 1}"))
        assert main(["run", "--config", path, "--quiet"]) == 0


class TestCmdSweep:
    def test_complete_sweep(self, write_config, tmp_path):
        text = BASE_YAML.replace("t_max: 5", "t_max: 100000")
        path = write_config(text)
        code = main([
            "sweep", "--config", path, "--n-list", "3,5,4",
            "--stop-err", "0.05", "--quiet",
        ])
        assert code == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        ns = [int(l.split(",")[0]) for l in lines[1:]]
        assert ns == [3, 4, 5]
        for line in lines[1:]:
            n, rounds, err = line.split(",")
            assert rounds != "" and float(err) <= 0.05

    def test_already_converged_reports_zero(self, write_config, tmp_path):
        path = write_config()
        code = main([
            "sweep", "--config", path, "--n-list", "3", "--stop-err", "10",
            "--quiet",
        ])
        assert code == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[1].split(",")[1] == "0"

    def test_rejects_unsizable_graph(self, write_config):
        path = write_config(CORE_YAML)
        assert main([
            "sweep", "--config", path, "--n-list", "3,4", "--stop-err", "0.1",
        ]) == 1

    def test_needs_stop_err(self, write_config):
        assert main(["sweep", "--config", write_config(), "--n-list", "3,4"]) == 1


def test_seed_override_changes_both_seeds(write_config, tmp_path):
    text = BASE_YAML.replace("kind: spike", "kind: uniform_random")
    a = write_config(text, name="a.yaml", out=str(tmp_path / "oa"))
    assert main(["run", "--config", a, "--seed", "5", "--t-max", "3", "--quiet"]) == 0
    assert main([
        "run", "--config", a, "--seed", "6", "--t-max", "3", "--quiet",
    ]) == 0  # same file, different seed: output must differ
    b = write_config(text, name="b.yaml", out=str(tmp_path / "ob"))
    assert main(["run", "--config", b, "--seed", "5", "--t-max", "3", "--quiet"]) == 0
    first = (tmp_path / "oa" / "metrics.csv").read_bytes()
    second = (tmp_path / "ob" / "metrics.csv").read_bytes()
    assert first != second  # the seed-6 rerun overwrote out_a
    assert main(["run", "--config", a, "--seed", "5", "--t-max", "3", "--quiet"]) == 0
    assert (tmp_path / "oa" / "metrics.csv").read_bytes() == second


FIXED_BOUND_YAML = BASE_YAML.replace("n: 3", "n: 6").replace(
    "alpha: 0.9\n  beta: 0.0\n  variant: practical\n  d_policy: max_degree\n",
    "alpha: 0.25\n  beta: 0.5\n  variant: theorem\n  d_policy: fixed\n"
    "  d_fixed: 2.0\n",
)


class TestFailurePath:
    @pytest.mark.parametrize(
        "verb",
        [["run"], ["run", "--baseline"], ["sweep", "--n-list", "4,6", "--stop-err", "0.1"]],
        ids=["run", "baseline", "sweep"],
    )
    def test_infeasible_fixed_bound_exits_1_without_files(
        self, verb, write_config, tmp_path, capsys
    ):
        # complete-6 has pair degree 6, so a fixed bound of 2 cannot run
        code = main(verb + ["--config", write_config(FIXED_BOUND_YAML)])
        assert code == 1
        assert "config error" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("*.csv"))

    def test_sweep_divergence_exits_2_without_files(
        self, write_config, tmp_path, monkeypatch, capsys
    ):
        import ternary_consensus.cli as cli_mod
        from ternary_consensus.errors import DivergenceError

        def diverge(*args, **kwargs):
            raise DivergenceError("node 0 became non-finite at round 1: nan")

        monkeypatch.setattr(cli_mod, "run", diverge)
        code = main([
            "sweep", "--config", write_config(), "--n-list", "3,4",
            "--stop-err", "0.1", "--quiet",
        ])
        assert code == 2
        assert "run failed" in capsys.readouterr().err
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_interrupt_removes_partial_csv(self, write_config, tmp_path, monkeypatch):
        import ternary_consensus.cli as cli_mod

        def interrupted(*args, metrics_sink, **kwargs):
            x = (1.0, 0.0, 0.0)
            metrics_sink(compute_metrics(x, 1 / 3, t=1), x, 1)
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_mod, "run", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["run", "--config", write_config(), "--quiet"])
        assert not (tmp_path / "out" / "metrics.csv").exists()


TWO_NODE_EXPLICIT_YAML = BASE_YAML.replace("base: complete", "base: line").replace(
    "n: 3", "n: 2"
).replace("  kind: spike\n  seed: 0\n", "  kind: explicit\n  values: VALUES\n")


class TestFloatRange:
    """Inputs the float arithmetic cannot carry exit cleanly and leave no file:
    non-finite values at load (1), overflow during a run (2)."""

    @pytest.mark.parametrize("values", ["[.inf, 0.0]", "[0.0, .nan]", "[-.inf, 1.0]"])
    @pytest.mark.parametrize("extra", [[], ["--baseline"]], ids=["run", "baseline"])
    def test_non_finite_init_value_is_a_config_error(
        self, values, extra, write_config, tmp_path, capsys
    ):
        path = write_config(TWO_NODE_EXPLICIT_YAML.replace("VALUES", values))
        assert main(["run", "--config", path, "--quiet"] + extra) == 1
        assert "config error: init.values[" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_uniform_bound_is_a_config_error(self, write_config, capsys):
        text = BASE_YAML.replace("kind: spike", "kind: uniform_random\n  hi: .inf")
        assert main(["run", "--config", write_config(text), "--quiet"]) == 1
        assert "config error: init.hi:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "values,extra",
        [
            ("[1.0e+308, -1.0e+308]", []),
            ("[1.0e+308, -1.0e+308]", ["--baseline"]),
            ("[1.7e+308, 1.7e+308]", []),
            ("[1.7e+308, 1.7e+308]", ["--baseline"]),
            ("[8.0e+307, 8.0e+307]", []),
        ],
    )
    def test_overflow_is_a_run_failure(self, values, extra, write_config, tmp_path, capsys):
        # the first two overflow the initial dispersion or average; the last
        # overflows the quantizer input t^alpha * (x - x_out) at round 3
        path = write_config(TWO_NODE_EXPLICIT_YAML.replace("VALUES", values))
        assert main(["run", "--config", path, "--quiet"] + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("run failed: ") and "np.float64" not in err
        assert not list((tmp_path / "out").glob("*.csv"))

    def test_overflow_warns_nothing_in_a_fresh_interpreter(self, write_config, tmp_path):
        # the module entry point, in an interpreter that turns a numpy
        # RuntimeWarning into an error: the overflow at round 3 is reported
        # by the quantizer check, with no traceback and no file left
        path = write_config(TWO_NODE_EXPLICIT_YAML.replace("VALUES", "[8.0e+307, 8.0e+307]"))
        proc = fresh_cli(
            ["run", "--config", path, "--quiet"], tmp_path, "-W", "error::RuntimeWarning"
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("run failed: ")
        assert "non-finite quantizer input inf" in proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""
        assert not (tmp_path / "out" / "metrics.csv").exists()


class TestGraphKeys:
    """make_sequence decides which graph keys a kind takes; the loader passes
    every key present and reports the ones the kind does not take."""

    @pytest.mark.parametrize(
        "graph,stray",
        [
            (
                "  kind: relabeled_line\n  base: complete\n"
                '  core_edges: ["0-1", "1-2"]\n  extra_edge_prob: 0.1\n',
                ["base", "core_edges", "extra_edge_prob"],
            ),
            ('  kind: static\n  base: line\n  rounds: [["0-1"]]\n', ["rounds"]),
            ('  kind: periodic\n  rounds: [["0-1"]]\n  path: rounds.txt\n', ["path"]),
            (
                '  kind: core_synthetic\n  core_edges: ["0-1", "1-2"]\n'
                "  edges: []\n",
                ["edges"],
            ),
        ],
        ids=["relabeled_line", "static", "periodic", "core_synthetic"],
    )
    @pytest.mark.parametrize("verb", [["run"], ["check-core"]], ids=["run", "check-core"])
    def test_stray_key_exits_1_naming_it(
        self, graph, stray, verb, write_config, tmp_path, capsys
    ):
        (tmp_path / "rounds.txt").write_text("0-1\n")
        text = BASE_YAML.replace("  kind: static\n  base: complete\n", graph)
        assert main(verb + ["--config", write_config(text), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: graph: unexpected parameters")
        assert err.rstrip().endswith(repr(stray))
        assert not (tmp_path / "out").exists()

    def test_explicit_with_rounds_and_path_exits_1(self, write_config, tmp_path, capsys):
        (tmp_path / "rounds.txt").write_text("0-1\n" * 5)
        text = BASE_YAML.replace(
            "  kind: static\n  base: complete\n",
            '  kind: explicit\n  rounds: [["0-1"], [], [], [], []]\n  path: rounds.txt\n',
        )
        assert main(["run", "--config", write_config(text), "--quiet"]) == 1
        assert "rounds or path, not both" in capsys.readouterr().err

    def test_missing_core_edges_is_named(self, write_config, capsys):
        text = BASE_YAML.replace(
            "  kind: static\n  base: complete\n", "  kind: core_synthetic\n"
        )
        assert main(["run", "--config", write_config(text), "--quiet"]) == 1
        assert "needs core_edges" in capsys.readouterr().err


class TestEdgeGrammar:
    """graphs.parse_edge is the one edge grammar: an "i-j" string or a 2-item
    list of ints. Any other token in edges, core_edges or rounds exits 1
    naming its key and index, and leaves no file."""

    GRAPHS = {
        "edges": ('  kind: static\n  edges: ["0-1", TOKEN]\n', "graph.edges[1]"),
        "core_edges": (
            '  kind: core_synthetic\n  core_edges: ["0-1", TOKEN, "1-2"]\n',
            "graph.core_edges[1]",
        ),
        "rounds": (
            '  kind: periodic\n  rounds: [["0-1"], ["1-2", TOKEN]]\n',
            "graph.rounds[1][1]",
        ),
    }

    @pytest.mark.parametrize(
        "token",
        ["[0.7, 1]", "[true, 2]", '["0", 1]', "[1]", "[0, 1, 2]", '"0-1-2"',
         '"a-b"', "5", '"1_0-2"', '"+0-1"', '"0 -1"', '"\\u0663-4"'],
        ids=["float", "bool", "string-in-list", "one-item", "three-items",
             "three-parts", "not-ints", "not-a-list", "underscore", "sign",
             "space", "non-ascii-digit"],
    )
    @pytest.mark.parametrize("key", sorted(GRAPHS))
    def test_bad_token_exits_1_naming_key_and_index(
        self, key, token, write_config, tmp_path, capsys
    ):
        graph, where = self.GRAPHS[key]
        text = BASE_YAML.replace(
            "  kind: static\n  base: complete\n", graph.replace("TOKEN", token)
        )
        assert main(["run", "--config", write_config(text), "--quiet"]) == 1
        assert capsys.readouterr().err == (
            f"config error: {where}: bad edge {yaml.safe_load(token)!r}, "
            "expected 'i-j' or [i, j]\n"
        )
        assert not (tmp_path / "out" / "metrics.csv").exists()

    @pytest.mark.parametrize("key", sorted(GRAPHS))
    def test_int_tokens_in_either_form_run(self, key, write_config, tmp_path):
        graph, _ = self.GRAPHS[key]
        text = BASE_YAML.replace(
            "  kind: static\n  base: complete\n", graph.replace("TOKEN", "[2, 0]")
        )
        assert main(["run", "--config", write_config(text), "--quiet"]) == 0
        assert (tmp_path / "out" / "metrics.csv").exists()


class TestConfigEncoding:
    """A config file is read as UTF-8; one that is not is a config error."""

    NON_UTF8 = b"graph:\n  kind: static\xff\xfe\n"

    @pytest.mark.parametrize(
        "verb", [["run"], ["check-core"], ["sweep", "--n-list", "3,4"]],
        ids=["run", "check-core", "sweep"],
    )
    def test_non_utf8_config_exits_1(self, verb, tmp_path, capsys):
        path = tmp_path / "exp.yaml"
        path.write_bytes(self.NON_UTF8)
        assert main(verb + ["--config", str(path), "--out", str(tmp_path / "out"),
                            "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config: cannot read {path}: ")
        assert "can't decode byte 0xff" in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_non_utf8_config_in_a_fresh_interpreter(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_bytes(self.NON_UTF8)
        proc = fresh_cli(["run", "--config", str(path), "--quiet"], tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith(f"config error: config: cannot read {path}: ")
        assert proc.stderr.count("\n") == 1 and proc.stdout == ""
        assert list(tmp_path.iterdir()) == [path]

    def test_non_utf8_rounds_file_is_a_graph_error(self, write_config, tmp_path, capsys):
        """The error names the rounds file and the line of the bad byte, as a
        missing rounds file's error names the file."""
        (tmp_path / "rounds.txt").write_bytes(b"0-1\n1-2\xff\n")
        text = BASE_YAML.replace(
            "  kind: static\n  base: complete\n", "  kind: explicit\n  path: rounds.txt\n"
        ).replace("t_max: 5", "t_max: 2")
        assert main(["run", "--config", write_config(text), "--quiet"]) == 1
        assert capsys.readouterr().err == (
            f"config error: graph: {tmp_path / 'rounds.txt'}: line 2: byte 0xff "
            "is not UTF-8 (invalid start byte)\n"
        )
        assert not (tmp_path / "out").exists()


class TestBoundRange:
    """bound keeps the exit codes on every input: non-finite inputs are config
    errors, and a term beyond the float range prints as inf."""

    @pytest.mark.parametrize(
        "changes",
        [
            {"--n": "1000", "--B": "100", "--D": "1000", "--alpha": "0.5",
             "--beta": "0.99", "--v20": "0.8"},
            {"--w0": "1e308", "--v20": "0.8"},
        ],
        ids=["power", "ceil"],
    )
    def test_overflowing_terms_print_inf(self, changes, capsys):
        args = list(TestCmdBound.REF_ARGS)
        for flag, value in changes.items():
            args[args.index(flag) + 1] = value
        assert main(args) == 0
        lines = dict(
            (k.strip(), float(v)) for k, v in
            (line.split("=") for line in capsys.readouterr().out.splitlines())
        )
        assert lines["T"] == float("inf")
        assert all(v == v for v in lines.values())  # no nan anywhere

    def test_huge_outer_factor_times_zero_init_is_zero(self, capsys):
        # 2^(1/(1-beta)) overflows for beta this close to 1; with xinf0 = 0 the
        # transient-init term is still 0, not inf * 0 = nan
        args = list(TestCmdBound.REF_ARGS)
        args[args.index("--beta") + 1] = "0.9995"
        args[args.index("--xinf") + 1] = "0"
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "transient-init     = 0\n" in out and "nan" not in out

    @pytest.mark.parametrize(
        "flag,value",
        [("--w0", "inf"), ("--w0", "nan"), ("--eps", "nan"), ("--D", "inf"),
         ("--v20", "inf"), ("--n", "1" + "0" * 400)],
    )
    def test_non_finite_input_exits_1(self, flag, value, capsys):
        args = list(TestCmdBound.REF_ARGS)
        args[args.index(flag) + 1] = value
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "must be finite" in err


class TestUncreatableOutput:
    @pytest.mark.parametrize(
        "verb",
        [["run"], ["run", "--baseline"], ["sweep", "--n-list", "3,4", "--stop-err", "0.1"]],
        ids=["run", "baseline", "sweep"],
    )
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    def test_output_dir_on_a_file_exits_1(self, verb, below, write_config, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("keep\n")
        out = blocker / "sub" if below else blocker
        code = main(verb + ["--config", write_config(out=str(out)), "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: output.dir: cannot create ")
        assert str(out) in err
        assert blocker.read_text() == "keep\n"

    def test_created_files_removed_when_a_later_one_fails(
        self, write_config, tmp_path, capsys
    ):
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "trace.csv").mkdir()  # cannot be opened for writing
        text = BASE_YAML.replace("record_level: metrics_only", "record_level: full_trace")
        assert main(["run", "--config", write_config(text), "--quiet"]) == 1
        assert "trace.csv" in capsys.readouterr().err
        assert not (tmp_path / "out" / "metrics.csv").exists()


OVERFLOW_YAML = TWO_NODE_EXPLICIT_YAML.replace("VALUES", "[1.0e+308, -1.0e+308]")
HUGE = "1" + "0" * 400  # an integer beyond the float range


class TestNumberRange:
    """Every number in a config is finite and within the float range, or the
    command exits 1 naming the key and leaves no file."""

    @pytest.mark.parametrize(
        "old,new,key",
        [
            ("d_policy: max_degree", "d_policy: fixed\n  d_fixed: .nan", "protocol.d_fixed"),
            ("d_policy: max_degree", "d_policy: fixed\n  d_fixed: .inf", "protocol.d_fixed"),
            ("stop_err: null", "stop_err: .nan", "run.stop_err"),
            ("stop_err: null", "stop_err: .inf", "run.stop_err"),
            ("stop_err: null", f"stop_err: {HUGE}", "run.stop_err"),
            ("alpha: 0.9", f"alpha: {HUGE}", "protocol.alpha"),
            ("kind: spike", f"kind: uniform_random\n  lo: -{HUGE}", "init.lo"),
        ],
        ids=[
            "d_fixed-nan", "d_fixed-inf", "stop_err-nan", "stop_err-inf",
            "stop_err-huge", "alpha-huge", "lo-huge",
        ],
    )
    @pytest.mark.parametrize("extra", [[], ["--baseline"]], ids=["run", "baseline"])
    def test_config_number_exits_1_naming_the_key(
        self, old, new, key, extra, write_config, tmp_path, capsys
    ):
        path = write_config(BASE_YAML.replace(old, new))
        assert main(["run", "--config", path, "--quiet"] + extra) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: must be finite, got ")
        assert not (tmp_path / "out").exists()

    def test_huge_init_value_exits_1(self, write_config, tmp_path, capsys):
        path = write_config(TWO_NODE_EXPLICIT_YAML.replace("VALUES", f"[{HUGE}, 0]"))
        assert main(["run", "--config", path, "--quiet"]) == 1
        assert "config error: init.values[0]: must be finite, got inf" in (
            capsys.readouterr().err
        )

    def test_integer_too_long_to_parse_exits_1(self, write_config, tmp_path, capsys):
        path = write_config(BASE_YAML.replace("alpha: 0.9", "alpha: 1" + "0" * 5000))
        assert main(["run", "--config", path, "--quiet"]) == 1
        assert capsys.readouterr().err.startswith("config error: config: invalid YAML in ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "value,message",
        [
            ("-1", "run.stop_err: must be >= 0, got -1.0"),
            ("nan", "run.stop_err: must be finite, got nan"),
            ("inf", "run.stop_err: must be finite, got inf"),
            ("-inf", "run.stop_err: must be finite, got -inf"),
        ],
    )
    def test_sweep_stop_err_obeys_the_config_rule(
        self, value, message, write_config, tmp_path, capsys
    ):
        code = main([
            "sweep", "--config", write_config(), "--n-list", "3,4",
            f"--stop-err={value}", "--quiet",
        ])
        assert code == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_sweep_stop_err_overrides_the_config(self, write_config, tmp_path):
        text = BASE_YAML.replace("stop_err: null", "stop_err: 1.0e-9")
        code = main([
            "sweep", "--config", write_config(text), "--n-list", "3",
            "--stop-err", "0.5", "--t-max", "50", "--quiet",
        ])
        assert code == 0
        rounds = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1].split(",")[1]
        assert 0 < int(rounds) < 50


class TestOutputKept:
    """Output files are written under temporary names and moved into place
    only on success, so a failed command leaves the output directory as it
    found it."""

    def test_failed_rerun_keeps_the_earlier_metrics(self, write_config, tmp_path):
        keep = tmp_path / "keep"
        argv = ["run", "--out", str(keep), "--quiet"]
        assert main(argv + ["--config", "fig1-line", "--t-max", "5"]) == 0
        before = (keep / "metrics.csv").read_bytes()
        assert main(argv + ["--config", write_config(OVERFLOW_YAML)]) == 2
        assert sorted(keep.iterdir()) == [keep / "metrics.csv"]
        assert (keep / "metrics.csv").read_bytes() == before

    @pytest.mark.parametrize("extra", [[], ["--baseline"]], ids=["run", "baseline"])
    def test_failed_run_removes_the_directories_it_made(
        self, extra, write_config, tmp_path
    ):
        out = tmp_path / "nd" / "sub"
        argv = ["run", "--config", write_config(OVERFLOW_YAML), "--out", str(out)]
        assert main(argv + ["--quiet"] + extra) == 2
        assert sorted(tmp_path.iterdir()) == [tmp_path / "exp.yaml"]

    def test_interrupt_keeps_the_earlier_metrics(
        self, write_config, tmp_path, monkeypatch
    ):
        import ternary_consensus.cli as cli_mod

        path = write_config()
        assert main(["run", "--config", path, "--quiet"]) == 0
        metrics = tmp_path / "out" / "metrics.csv"
        before = metrics.read_bytes()

        def interrupted(*args, metrics_sink, **kwargs):
            x = (1.0, 0.0, 0.0)
            metrics_sink(compute_metrics(x, 1 / 3, t=1), x, 1)
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_mod, "run", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["run", "--config", path, "--quiet"])
        assert sorted((tmp_path / "out").iterdir()) == [metrics]
        assert metrics.read_bytes() == before

    def test_success_leaves_only_the_outputs(self, write_config, tmp_path):
        text = BASE_YAML.replace("record_level: metrics_only", "record_level: full_trace")
        assert main(["run", "--config", write_config(text), "--quiet"]) == 0
        out = tmp_path / "out"
        assert sorted(out.iterdir()) == [out / "metrics.csv", out / "trace.csv"]
