import pytest

from ternary_consensus.analysis import compute_metrics
from ternary_consensus.cli import METRICS_HEADER, SWEEP_HEADER, TRACE_HEADER, main
from ternary_consensus.config import (
    load_config,
    load_config_data,
    preset_names,
    resolve_config,
)
from ternary_consensus.errors import ConfigError

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
        import yaml

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
        assert cfg.seq.snapshot(2).edges == frozenset()
        assert cfg.seq.snapshot(3).edges == {(1, 2)}

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
        assert cfg.seq.snapshot(1).edges == {(0, 1)}
        assert cfg.seq.snapshot(4).edges == {(0, 2), (1, 2)}

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
        import ternary_consensus.engine as engine_mod

        def fake_validate(rec, prev, params, *, w0, xinf0, avg0):
            return [f"estimate-mirror: injected fault at t={rec.t}"]

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
            metrics_sink(compute_metrics((1.0, 0.0, 0.0), 1 / 3, t=1))
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
