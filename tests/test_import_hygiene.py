"""Every name a module imports is used in that module. Package
``__init__.py`` files re-export names and are skipped; an import line marked
``# noqa: F401`` keeps a name importable from that module on purpose. And a
run leaves ``numpy.random`` unimported: importing it costs start-up time and
memory that no command needs."""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p
    for d in ("src", "tests")
    for p in (ROOT / d).rglob("*.py")
    if p.name != "__init__.py"
)


def imported_names(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Each name an import binds, with the line it is bound on."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                names[name] = alias.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used |= annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= annotation_names(node.returns)
    return used


def annotation_names(ann: ast.expr) -> set[str]:
    out = set()
    for node in ast.walk(ann):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            out |= used_names(ast.parse(node.value, mode="eval"))
    return out


def test_the_scan_finds_an_unused_import():
    src = "import os\nimport sys  # noqa: F401\nfrom a import b, c\nx: 'c' = os\n"
    tree = ast.parse(src)
    names = imported_names(tree, src.splitlines())
    assert sorted(set(names) - used_names(tree)) == ["b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    source = path.read_text()
    tree = ast.parse(source)
    names = imported_names(tree, source.splitlines())
    unused = sorted(
        f"{name} (line {line})"
        for name, line in names.items()
        if name not in used_names(tree)
    )
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


CORE_SYNTHETIC_YAML = """\
graph:
  kind: core_synthetic
  n: 8
  seed: 1
  B: 2
  core_edges: [0-1, 1-2, 2-3, 3-4, 4-5, 5-6, 6-7]
  extra_edge_prob: 0.2
protocol:
  alpha: 0.9
  beta: 0.0
  variant: practical
  d_policy: max_degree
  prune_horizon: 4
init:
  kind: spike
run:
  t_max: 200
  stop_err: null
  record_level: metrics_only
  check: false
output:
  dir: out
"""


def test_a_run_and_check_core_leave_numpy_random_unimported(tmp_path):
    # a fresh interpreter: the test runner's own imports reach numpy.random
    (tmp_path / "core.yaml").write_text(CORE_SYNTHETIC_YAML)
    code = textwrap.dedent("""
        import sys
        from ternary_consensus.cli import main
        assert main(["check-core", "--config", "core.yaml", "--quiet"]) == 0
        assert main(["run", "--config", "core.yaml", "--quiet"]) == 0
        print("numpy.random" in sys.modules)
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))
    ))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
    assert (tmp_path / "out" / "metrics.csv").exists()
