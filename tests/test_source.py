"""src/qsv holds no test-only code: each function and class defined there
is used by code in src/qsv, is exported by `qsv.__all__`, or is bound by
the benchmark's tracer (perfbench/tracer.py)."""

import ast
from pathlib import Path

import qsv

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "qsv").glob("*.py"))

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def tracer_bindings():
    """The attribute, class and method names of the tracer's binding
    tables: the second field up to the span name of each row."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and node.targets[0].id in ("FUNCTIONS", "METHODS", "COUNTED_METHODS")):
            for row in ast.literal_eval(node.value):
                names.update(row[1:-1])
    return names


def test_every_function_and_class_in_src_is_used_there():
    defined, used = {}, set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, DEFINITIONS):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    exempt = used | set(qsv.__all__) | tracer_bindings()
    unused = sorted(f"{where} {name}" for name, where in defined.items()
                    if name not in exempt and not name.startswith("__"))
    assert not unused, "defined in src/qsv but used only outside it: " + ", ".join(unused)
