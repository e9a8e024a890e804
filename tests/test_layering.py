"""Static checks over the package source.

Nothing under ``src/`` imports the test suite: the frozen references
under ``tests/oracles`` pin the runtime bit for bit only while the
runtime cannot reach them, and a ``tests`` import in the package would
also break every installed copy, which ships without the test suite.

Every name an annotation uses is bound in its module: with
``from __future__ import annotations`` nothing evaluates annotations at
import, so a missing import shows only when something resolves them
(``typing.get_type_hints``, a type checker).
"""

import ast
import builtins
import pathlib

import repro

PACKAGE = pathlib.Path(repro.__file__).parent


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module or ""


def test_src_never_imports_tests():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) > 50
    offenders = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for module in _imported_modules(tree):
            if module == "tests" or module.startswith("tests."):
                offenders.append(f"{path.relative_to(PACKAGE)}: {module}")
    assert offenders == []


def _bound_names(tree):
    """Every name the module imports, defines or assigns, at any depth.

    Imports under ``if TYPE_CHECKING:`` count like any other.
    """
    names = set(dir(builtins))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            for arg in (
                arguments.posonlyargs
                + arguments.args
                + arguments.kwonlyargs
                + [arguments.vararg, arguments.kwarg]
            ):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _annotation_names(annotation):
    """``(name, line)`` of each name an annotation reads.

    Quoted forward references are parsed and read the same way.
    """
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            quoted = ast.parse(node.value, mode="eval").body
            for name, _ in _annotation_names(quoted):
                yield name, node.lineno


def test_every_annotation_names_something_its_module_binds():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        bound = _bound_names(tree)
        for annotation in _annotations(tree):
            for name, line in _annotation_names(annotation):
                if name not in bound:
                    offenders.append(
                        f"{path.relative_to(PACKAGE)}:{line}: {name}"
                    )
    assert offenders == []
