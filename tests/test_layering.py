"""Module boundaries inside the package.

A name with a leading underscore is private to the module that defines it.
The monomial layout of `polyblock` (packed exponent ints, the keys of
`MPoly.terms`) is such a detail: other modules read (variable, exponent)
pairs through `MPoly.items()` and its other public helpers, so a change of
layout stays inside one file.
"""

import ast
from pathlib import Path

import dynkin_coha

PACKAGE_DIR = Path(dynkin_coha.__file__).parent


def _private_imports(path: Path) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        inside = node.level > 0 or (node.module or "").split(".")[0] == "dynkin_coha"
        for alias in node.names:
            if inside and alias.name.startswith("_") and not alias.name.startswith("__"):
                out.append(f"{path.name}:{node.lineno} imports {alias.name} from {node.module}")
    return out


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    assert [hit for path in modules for hit in _private_imports(path)] == []


# `qalg.QAlgElement.terms` is qalg's own mapping, not the polynomial layout.
TERMS_OWNERS = {"polyblock.py", "qalg.py"}


def _terms_reads(path: Path) -> list[str]:
    return [
        f"{path.name}:{node.lineno} reads .terms"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "terms"
    ]


def test_only_polyblock_reads_the_monomial_layout():
    modules = [p for p in sorted(PACKAGE_DIR.glob("*.py")) if p.name not in TERMS_OWNERS]
    assert modules
    assert [hit for path in modules for hit in _terms_reads(path)] == []
