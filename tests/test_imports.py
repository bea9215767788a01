"""Package layout rules, checked on the source text and in a fresh interpreter."""

import ast
import io
import os
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
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


def _top_level_names(tree):
    """(name, first line, last line) of every module-level def, class and assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for t in nodes for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in targets:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, node.lineno, node.end_lineno


def test_every_module_level_name_is_used():
    # a name no code reads outside its own definition is dead; identifiers
    # count in Python code, any mention counts in pyproject.toml
    uses = {}
    files = [p for d in ("src", "scripts", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")]
    for path in files:
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        for tok in tokens:
            if tok.type == tokenize.NAME:
                uses.setdefault(tok.string, []).append((path, tok.start[0]))
    pyproject = (ROOT / "pyproject.toml").read_text()
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, first, last in _top_level_names(ast.parse(path.read_text(), str(path))):
            outside = [u for u in uses.get(name, []) if not (u[0] == path and first <= u[1] <= last)]
            if not outside and name not in pyproject:
                dead.append(f"{path.name}:{first} {name}")
    assert files
    assert dead == []
