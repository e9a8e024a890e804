"""Nothing under ``src/`` imports the test suite.

The frozen references under ``tests/oracles`` pin the runtime bit for
bit only while the runtime cannot reach them; a ``tests`` import in the
package would also break every installed copy, which ships without the
test suite.
"""

import ast
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
