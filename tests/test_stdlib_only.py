"""The library core imports nothing outside the standard library."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "minkpi"


def test_library_imports_only_stdlib_and_itself():
    allowed = set(sys.stdlib_module_names) | {"minkpi"}
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {m}" for m in names if m.split(".")[0] not in allowed]
    assert list(SRC.glob("*.py"))
    assert not foreign, foreign
