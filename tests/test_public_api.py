"""Every public name of the package has a caller outside the tests.

A public top-level function or class of ``src/nwtaut``, and a public method
or property of such a class, must be used by the package, ``scripts/`` or
``perfbench/`` somewhere outside its own definition, and no module-level
import of the package may go unused.  Code that only tests call is deleted,
or moved into the test that needs it.

A defaulted parameter of such a function or method is a knob: some call
outside the tests passes it, or it is a constant of its module.

Data an object keeps beside its fields is a ``functools.cached_property``
of its frozen owner, so no module reaches into an object's ``__dict__``.
Only ``ClauseSet``'s own check and join call ``object.__setattr__`` or
``object.__new__``, so no clause set is built past its check.

The package is pure stdlib: a module imports only the standard library and
the package itself.
"""

import ast
import importlib
import re
import sys
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


# defaulted parameters that only tests pass, as "module.function.parameter"
TEST_ONLY_PARAMETERS = {
    # dpll_solve's fixings: the tests check that check_rup certifies the
    # refutations found under them, as ROADMAP item 11 will for every verdict
    "cnf.check_rup.fixed",
}


def _defaulted(fn: ast.FunctionDef, method: bool) -> list[tuple[int | None, str]]:
    """(position in a call, name) of fn's defaulted parameters; a
    keyword-only one has no position, and a method's self or a class
    method's cls is not counted (the package has no static methods)."""
    positional = [*fn.args.posonlyargs, *fn.args.args][method:]
    out = [(i, a.arg) for i, a in enumerate(positional)
           if i >= len(positional) - len(fn.args.defaults)]
    out += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d]
    return out


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether call passes the parameter, by keyword, at its position, or
    through * or **."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(
        isinstance(a, ast.Starred) for a in call.args[: position + 1])


def _test_only_parameters() -> set[str]:
    """Each defaulted parameter, as "module[.Class].function.parameter",
    that no call in CALLERS passes; calls are matched by the bare name."""
    calls: dict[str, list[ast.Call]] = {}
    for path in CALLERS:
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute)):
                name = n.func.id if isinstance(n.func, ast.Name) else n.func.attr
                calls.setdefault(name, []).append(n)
    found = set()
    for path in PACKAGE:
        for stmt in ast.parse(path.read_text()).body:
            owners = [(stmt, False, path.stem)]
            if isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
                owners = [(item, True, f"{path.stem}.{stmt.name}") for item in stmt.body]
            for fn, method, prefix in owners:
                if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                    continue
                for position, name in _defaulted(fn, method):
                    if not any(_passes(c, position, name) for c in calls.get(fn.name, ())):
                        found.add(f"{prefix}.{fn.name}.{name}")
    return found


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    found = _test_only_parameters()
    assert found == TEST_ONLY_PARAMETERS, (
        "only tests pass " + ", ".join(sorted(found - TEST_ONLY_PARAMETERS))
        + "; listed but passed outside the tests: "
        + ", ".join(sorted(TEST_ONLY_PARAMETERS - found)))


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


def _functions_where(path: Path, found) -> set[str]:
    """The functions of a module, as "module.Class.function", with a node
    in their body for which found is true."""
    users = set()

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}")
                continue
            if found(child):
                users.add(owner)
            visit(child, owner)

    visit(ast.parse(path.read_text()), path.stem)
    return users


def _reads_dict(node: ast.AST) -> bool:
    """An object's __dict__, by attribute or through vars()."""
    return (isinstance(node, ast.Attribute) and node.attr == "__dict__"
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "vars")


def test_kept_data_is_a_cached_property():
    users = set().union(*(_functions_where(path, _reads_dict) for path in PACKAGE))
    assert users <= DICT_USERS, "reaches into __dict__: " + ", ".join(sorted(users - DICT_USERS))


# the functions that may set a frozen field or build an object past its
# __init__: a clause set is checked when built, or joined from checked sets
BYPASS_USERS = {"cnf.ClauseSet.__post_init__", "cnf.ClauseSet.join"}


def _bypasses_init(node: ast.AST) -> bool:
    """object.__setattr__ or object.__new__."""
    return (isinstance(node, ast.Attribute) and node.attr in ("__setattr__", "__new__")
            and isinstance(node.value, ast.Name) and node.value.id == "object")


def test_only_the_clause_set_builds_past_its_check():
    """No other module can make a ClauseSet that skips its check."""
    users = set().union(*(_functions_where(path, _bypasses_init) for path in PACKAGE))
    assert users <= BYPASS_USERS, "sets or builds past __init__: " + ", ".join(
        sorted(users - BYPASS_USERS))


def test_the_package_imports_only_the_standard_library():
    foreign = []
    for path in PACKAGE:
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Import):
                names = [alias.name for alias in n.names]
            elif isinstance(n, ast.ImportFrom) and not n.level:
                names = [n.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in {*sys.stdlib_module_names, "nwtaut"}]
    assert not foreign, "imports outside the standard library: " + ", ".join(foreign)
