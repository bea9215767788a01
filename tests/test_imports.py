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


def _trees():
    for d in ("src", "scripts", "tests", "perfbench"):
        for path in sorted((ROOT / d).rglob("*.py")):
            yield ast.parse(path.read_text(), str(path))


def _package_trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), str(path))


def test_every_dataclass_field_is_read():
    # a read is an attribute load of the field's name or a string equal to it
    # (ConvergenceTable.column reads its columns through getattr)
    reads = set()
    for tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads.add(node.value)
    unread = []
    for module, tree in _package_trees():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and any(
                    isinstance(n, ast.Name) and n.id == "dataclass"
                    for d in cls.decorator_list for n in ast.walk(d)):
                unread += [f"{module}.{cls.name}.{n.target.id}" for n in cls.body
                           if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)
                           and n.target.id not in reads]
    assert reads
    assert not unread, "dataclass fields nothing reads: " + ", ".join(unread)


def _defaulted_parameters(tree):
    """(function name, parameter, positional index or None) of every defaulted parameter.

    The index counts from the first argument a call writes, so a method's
    self or cls is not counted.
    """
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body
               if isinstance(f, ast.FunctionDef) and not any(
                   isinstance(d, ast.Name) and d.id == "staticmethod" for d in f.decorator_list)}
    for f in ast.walk(tree):
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = f.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield f.name, arg.arg, i - (id(f) in methods)
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield f.name, arg.arg, None


def test_every_defaulted_parameter_is_passed():
    # a call passes a parameter by keyword or by position; a *args argument
    # passes every positional parameter from its place on, **kwargs all of them
    passed, star_from = set(), {}
    for tree in _trees():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            for i, arg in enumerate(call.args):
                if isinstance(arg, ast.Starred):
                    star_from[name] = min(i, star_from.get(name, i))
                passed.add((name, i))
            passed.update((name, k.arg) for k in call.keywords)
    unset = []
    for module, tree in _package_trees():
        for name, param, index in _defaulted_parameters(tree):
            by_position = index is not None and (
                (name, index) in passed or star_from.get(name, index + 1) <= index)
            if not (by_position or {(name, param), (name, None)} & passed):
                unset.append(f"{module}.{name}({param})")
    assert passed
    assert not unset, "defaulted parameters no call passes: " + ", ".join(unset)


def _own_scope(f):
    """The nodes of function f outside the functions, lambdas and classes nested in it."""
    stack = list(ast.iter_child_nodes(f))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_every_local_name_is_read():
    # a name a function assigns counts as read when the function, or one
    # nested in it, loads it; _ and nonlocal or global names are exempt
    unread, paths = [], sorted(PACKAGE.glob("*.py"))
    for path in paths:
        for f in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            own = list(_own_scope(f))
            stored = {}
            for n in own:
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                    stored.setdefault(n.id, n.lineno)
            read = {n.id for n in ast.walk(f) if isinstance(n, ast.Name)
                    and not isinstance(n.ctx, ast.Store)}
            read |= {"_"} | {name for n in own if isinstance(n, (ast.Nonlocal, ast.Global))
                             for name in n.names}
            unread += [f"{path.name}:{line} {f.name} {name}"
                       for name, line in stored.items() if name not in read]
    assert paths
    assert not unread, "local names nothing reads: " + ", ".join(unread)
