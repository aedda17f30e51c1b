"""Every module-level name the package defines, and every field of its dataclasses, is
used by the program: by the package itself, its scripts or the benchmark harness, and every
parameter default is both relied on and overridden there. Tests alone do not keep a name
or a default alive."""

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


def defaulted_parameters(tree: ast.Module) -> list[tuple[str, str, int | None]]:
    """``(function, parameter, position)`` for each parameter with a default of the module's
    top-level functions and class methods. ``position`` is the index of the positional
    argument that sets it, counting none for a method's self or cls; None if keyword-only."""
    found = []
    for node in tree.body:
        functions = [(node, 0)] if isinstance(node, ast.FunctionDef) else []
        if isinstance(node, ast.ClassDef):
            functions = [
                (f, 0 if "staticmethod" in map(ast.unparse, f.decorator_list) else 1)
                for f in node.body
                if isinstance(f, ast.FunctionDef)
            ]
        for f, skip in functions:
            a = f.args
            positional = [*a.posonlyargs, *a.args]
            first = len(positional) - len(a.defaults)
            found += [(f.name, p.arg, i - skip) for i, p in enumerate(positional) if i >= first]
            found += [(f.name, p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d]
    return found


def calls(tree: ast.Module) -> list[tuple[str, int, set[str]]]:
    """``(name, positional count, keyword names)`` of each call of a name or attribute;
    calls that unpack ``*args`` or ``**kwargs`` are left out, as their arguments are unknown."""
    return [
        (
            node.func.id if isinstance(node.func, ast.Name) else node.func.attr,
            len(node.args),
            {k.arg for k in node.keywords},
        )
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, (ast.Name, ast.Attribute))
        and not any(isinstance(a, ast.Starred) for a in node.args)
        and None not in {k.arg for k in node.keywords}
    ]


def test_every_default_is_both_set_and_left():
    """A default that no program call leaves in place should go, and a parameter that no
    program call sets should be a constant; calls are matched by the function's name."""
    program_calls = [c for p in USERS for c in calls(ast.parse(p.read_text()))]
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for function, name, position in defaulted_parameters(ast.parse(path.read_text())):
            sets = [
                name in keywords or (position is not None and count > position)
                for called, count, keywords in program_calls
                if called == function
            ]
            if not (any(sets) and not all(sets)):
                dead.append(f"{path.stem}.{function}.{name}")
    assert dead == []


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
