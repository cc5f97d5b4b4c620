"""The value kind of a universe is decided in `softsets` alone: no module of
the package imports a private name from `softsets` or `io`."""

import ast
from pathlib import Path

import neutrolab

GUARDED = ("softsets", "io")


def _private_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] in GUARDED:
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield "%s:%d imports %s from %s" % (path.name, node.lineno,
                                                        alias.name, node.module)


def test_no_module_imports_a_private_name_from_softsets_or_io():
    modules = sorted(Path(neutrolab.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    leaks = [line for path in modules for line in _private_imports(path)]
    assert leaks == []
