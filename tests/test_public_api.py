"""Every public name of the package has a caller outside the tests.

A public top-level function or class of ``src/nwtaut``, and a public method
or property of such a class, must be used by the package, ``scripts/`` or
``perfbench/`` somewhere outside its own definition, and no module-level
import of the package may go unused.  Code that only tests call is deleted,
or moved into the test that needs it.

Data an object keeps beside its fields is a ``functools.cached_property``
of its frozen owner, so no module reaches into an object's ``__dict__``.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "nwtaut").glob("*.py"))
CALLERS = [*PACKAGE, *sorted((ROOT / "scripts").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py"))]

ALLOWED = {
    # the formula constructors that tests build terms with
    "Var", "Not", "Or",
    # Cert's solution verifier, which defines the task
    "verify_cert",
}

# a string such as "nw_eval" or "ClauseSet.to_dimacs": perfbench's tracer
# reaches the functions it wraps through such names
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*\Z")


def _names(node: ast.AST) -> set[str]:
    """The names node reads: plain names, attributes and dotted strings."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and _DOTTED.match(n.value):
            out.update(n.value.split("."))
    return out


def _public(stmt: ast.stmt) -> bool:
    return (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and not stmt.name.startswith("_") and stmt.name not in ALLOWED)


def _unused_definitions() -> list[str]:
    """Public top-level functions and classes that no other top-level
    statement reads, and public methods and properties of public classes
    that neither another top-level statement nor a sibling in the class
    body reads."""
    statements = [(path, stmt) for path in CALLERS for stmt in ast.parse(path.read_text()).body]
    uses = [(stmt, _names(stmt)) for _, stmt in statements]

    def used(name: str, owner: ast.stmt, siblings=()) -> bool:
        return (any(name in names for other, names in uses if other is not owner)
                or any(name in _names(s) for s in siblings))

    unused = []
    for path, stmt in statements:
        if path not in PACKAGE or not _public(stmt):
            continue
        if not used(stmt.name, stmt):
            unused.append(f"{path.name}: {stmt.name}")
        if isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                siblings = [s for s in stmt.body if s is not item]
                if _public(item) and not used(item.name, stmt, siblings):
                    unused.append(f"{path.name}: {stmt.name}.{item.name}")
    return unused


def _unused_imports() -> list[str]:
    unused = []
    for path in PACKAGE:
        tree = ast.parse(path.read_text())
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                bound = [alias.asname or alias.name.split(".")[0] for alias in stmt.names]
                unused += [f"{path.name}: import {name}" for name in bound if name not in read]
    return unused


def test_no_test_only_public_code():
    unused = _unused_definitions() + _unused_imports()
    assert not unused, "nothing outside the tests uses " + ", ".join(unused)


def test_traced_names_resolve():
    """Every (module, "name" or "Class.member") that perfbench's tracer wraps
    is still defined in the package, as the tracer looks it up: a deleted
    name would crash a traced benchmark run.  TRACED is read from the
    tracer's source, so perfbench is not imported."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    [traced] = [ast.literal_eval(stmt.value) for stmt in tree.body
                if isinstance(stmt, ast.Assign)
                and [t.id for t in stmt.targets if isinstance(t, ast.Name)] == ["TRACED"]]
    assert traced
    missing = []
    for module, attr, _ in traced:
        home = importlib.import_module(f"nwtaut.{module}")
        owner_name, _, member = attr.rpartition(".")
        owner = getattr(home, owner_name) if owner_name else home
        if member not in vars(owner):
            missing.append(f"{module}.{attr}")
    assert not missing, "perfbench/tracer.py traces missing names: " + ", ".join(missing)


# the one kept value written by hand: the proof text, printed through a
# caller's memo (see frege._serialize)
DICT_USERS = {"frege._serialize"}


def _dict_users(path: Path) -> set[str]:
    """The functions of a module, as "module.Class.function", that read or
    write an object's __dict__, by attribute or through vars()."""
    users = set()

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}")
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "__dict__"
                    or isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "vars"):
                users.add(owner)
            visit(child, owner)

    visit(ast.parse(path.read_text()), path.stem)
    return users


def test_kept_data_is_a_cached_property():
    users = set().union(*map(_dict_users, PACKAGE))
    assert users <= DICT_USERS, "reaches into __dict__: " + ", ".join(sorted(users - DICT_USERS))
