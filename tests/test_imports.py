"""Package layout rules checked on the source text."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "loewnerqc"


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
