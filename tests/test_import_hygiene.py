"""Every name a module imports is used in that module. Package
``__init__.py`` files re-export names and are skipped; an import line marked
``# noqa: F401`` keeps a name importable from that module on purpose."""

import ast
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
