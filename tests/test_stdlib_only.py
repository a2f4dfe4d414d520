"""The package imports nothing outside the standard library at run time."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "hpgenus").glob("*.py"))


def _absolute_imports(path: Path) -> list[str]:
    """The top-level module name of every absolute import in the file."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.partition(".")[0])
    return names


def test_sources_found():
    assert len(SOURCES) > 1


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_are_stdlib(path):
    outside = [name for name in _absolute_imports(path) if name not in sys.stdlib_module_names]
    assert outside == [], f"{path.name} imports {outside} from outside the standard library"
