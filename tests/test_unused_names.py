"""Every module-level name the package defines, and every field of its dataclasses, is
used by the program: by the package itself, its scripts or the benchmark harness. Tests
alone do not keep a name alive."""

import ast
import importlib
import importlib.util
from pathlib import Path

import wavefield_anc

PACKAGE = Path(wavefield_anc.__file__).parent
ROOT = PACKAGE.parents[1]
USERS = [*ROOT.glob("src/**/*.py"), *ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/*.py")]
ALLOWED = {"load_params"}  # reads model.txt back; the planned --model option will call it
UNREAD_FIELDS = {  # dataclass fields the program writes but does not read, and why they stay
    "AncRunReport.ear_residual": "the simulated ear pressure; the tests check the ear truth "
    "through it",
    "ScenarioConfig.rng_seed": "read by nothing but the config echo; kept only because the "
    "benchmark's frozen reference package loads every scenario key",
}


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


def dataclass_fields(tree: ast.Module) -> list[str]:
    """``Class.field`` for each annotated field of the module's top-level @dataclass classes."""
    return [
        f"{node.name}.{item.target.id}"
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and any(ast.unparse(d).partition("(")[0] == "dataclass" for d in node.decorator_list)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]


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


def test_every_dataclass_field_is_read():
    """A field is read by an attribute access or a string naming it (the config echo
    names its keys); a keyword argument or the field's own annotation is no read. A listed
    field that comes to be read fails too, so the list stays exact."""
    references = set().union(*(used(ast.parse(p.read_text())) for p in USERS))
    unread = [
        name
        for path in sorted(PACKAGE.glob("*.py"))
        for name in dataclass_fields(ast.parse(path.read_text()))
        if name.split(".")[1] not in references
    ]
    assert sorted(unread) == sorted(UNREAD_FIELDS)


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
