"""The library core imports nothing outside the standard library, and no
process pool until it runs one."""

import ast
import os
import pathlib
import subprocess
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


def test_importing_the_package_loads_no_process_pool():
    # run_all imports the pool machinery when it runs; importing the package,
    # its command line or the verify module must not pay for it
    code = (
        "import sys, minkpi, minkpi.cli, minkpi.verify; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
