"""Every module-level name the package defines is used by the program: by the package
itself, its scripts or the benchmark harness. Tests alone do not keep a name alive."""

import ast
import importlib
import importlib.util
from pathlib import Path

import wavefield_anc

PACKAGE = Path(wavefield_anc.__file__).parent
ROOT = PACKAGE.parents[1]
USERS = [*ROOT.glob("src/**/*.py"), *ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/*.py")]
ALLOWED = {"load_params"}  # reads model.txt back; the planned --model option will call it


def defined(tree: ast.Module) -> list[str]:
    """Names bound by the module's top-level defs, classes and assignments, dunders aside."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def used(tree: ast.Module) -> set[str]:
    """Names read, attributes accessed, and identifiers named in strings (the harness
    looks functions up by name)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_module_level_name_is_used():
    references = set().union(*(used(ast.parse(p.read_text())) for p in USERS))
    unused = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in defined(ast.parse(path.read_text()))
        if name not in references | ALLOWED
    ]
    assert unused == []


def test_every_traced_function_exists():
    """perfbench/spans.py traces the functions in TRACED by name; one renamed or deleted
    would otherwise show only when a traced benchmark run stops on it."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # the standard library only
    missing = [
        f"{layer}.{name}"
        for layer, names in spans.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"wavefield_anc.{layer}"), name, None))
    ]
    assert spans.TRACED and missing == []
