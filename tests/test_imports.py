"""Package layout rules, checked on the source text and in a fresh interpreter."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "loewnerqc"


def test_no_module_imports_another_modules_private_names():
    found = []
    modules = sorted(PACKAGE.glob("*.py"))
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").startswith("loewnerqc")):
                found += [f"{path.name}:{node.lineno} imports {a.name} from {node.module}"
                          for a in node.names if a.name.startswith("_")]
    assert modules
    assert found == []


def test_the_command_line_loads_no_scipy():
    code = ("import loewnerqc.cli, sys; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    assert out.stdout.strip() == "[]"
