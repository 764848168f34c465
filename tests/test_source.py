"""Checks on the package source itself (no linter is installed)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ddkseg"


def test_no_unused_imports():
    unused = []
    paths = sorted(SRC.rglob("*.py"))
    assert paths, f"no sources under {SRC}"
    for path in paths:
        if path.name == "__init__.py":  # re-exports
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(SRC)}:{line}: {name}" for name, line in imported.items() if name not in used]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_no_environment_reads():
    # Tuning constants stay constants: no setting may come in through the
    # environment behind the CLI's back.
    names = ("environ", "environb", "getenv", "getenvb")
    reads = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and node.attr in names
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                reads.append(f"{path.relative_to(SRC)}:{node.lineno}: os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                reads += [f"{path.relative_to(SRC)}:{node.lineno}: from os import {alias.name}"
                          for alias in node.names if alias.name in names]
    assert not reads, "environment reads:\n" + "\n".join(reads)
