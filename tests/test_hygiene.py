"""Source hygiene: every name a package module imports is used in it, and
every function, class, method and module-level name it defines is referred
to somewhere in the package (or allowed, with a reason); every defaulted
parameter is set by some package call; every top-level helper in
``tests/_helpers.py`` is reached from some test module; no package code
writes into a built ``SparseRationalMatrix``; only a module block's
JSON makes dense rows of one; and a Dirac block caches no value but its
predicate.

No linter ships with the project, so these checks parse each module with
``ast``. A name counts as used when it appears as a name anywhere in the
module, including inside a string annotation such as ``"Weight"``.
"""

import ast
from pathlib import Path

import pytest

from superdirac.exactla import SparseRationalMatrix

SRC = Path(__file__).resolve().parent.parent / "src" / "superdirac"


def _imported(tree: ast.AST) -> list[tuple[str, int]]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
    return out


def _used(tree: ast.AST) -> set[str]:
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in annotations:
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            expr = ast.parse(ann.value, mode="eval")
            names |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_checker_flags_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Sequence\ndef f(x: 'Sequence'): pass\n")
    assert [n for n, _ in _imported(tree) if n not in _used(tree)] == ["os"]


# ----- definitions nothing in the package uses -------------------------------------------
# name -> why it stays although no code in the package refers to it
UNREFERENCED_ALLOWED = {
    **{
        f"cmd_{c}": "a CLI command, registered with click by its decorator"
        for c in ("root_data", "decompose", "dirac_cohomology", "certify", "character",
                  "index", "verify")
    },
    "vogan_consistency": "the infinitesimal character of H_D, to be folded into the "
    "`cohomology` suite (ROADMAP)",
    "dot_action": "the rho / rho0 dot action the `branching` fix straightens by (ROADMAP)",
    "same_infinitesimal_character": "the central-character test behind the Vogan "
    "check (ROADMAP)",
    "compact_simple_truncation": "F^mu on its own, kept by name: the perfbench tracer "
    "wraps it (tests/test_golden.py::test_every_traced_name_resolves)",
    "anti_selfadjoint_certificate": "the whole adjoint certificate of a Dirac block, "
    "kept by name: the perfbench `deep-sl21` payload calls it on every block and the "
    "tracer wraps it; it stays until a benchmark change moves `deep-sl21` off it",
}


def _definitions(tree: ast.AST) -> list[tuple[str, int]]:
    """Every function, class and method, and every name assigned at module
    top level (constants, type aliases); dunders aside (Python reads those
    itself)."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = [(n.name, n.lineno) for n in ast.walk(tree) if isinstance(n, kinds)]
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            found += [
                (n.id, n.lineno)
                for t in targets
                for n in ast.walk(t)
                if isinstance(n, ast.Name)
            ]
    found = [d for d in found if not (d[0].startswith("__") and d[0].endswith("__"))]
    return sorted(found, key=lambda d: d[1])


def _references(trees: list[ast.AST]) -> set[str]:
    """Names read anywhere: Name ids not being assigned to, attribute names,
    and string constants that are identifiers (annotations such as "Weight",
    getattr keys)."""
    refs = set()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                refs.add(n.id)
            elif isinstance(n, ast.Attribute):
                refs.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                if n.value.isidentifier():
                    refs.add(n.value)
    return refs


def _unreferenced(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(text, filename=name) for name, text in sources.items()}
    refs = _references(list(trees.values()))
    return [
        f"{name}:{line} {d}"
        for name, tree in trees.items()
        for d, line in _definitions(tree)
        if d not in refs and d not in UNREFERENCED_ALLOWED
    ]


def test_every_definition_is_referenced():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    dead = _unreferenced(sources)
    assert not dead, (
        "definitions nothing in the package refers to (move test-only code to "
        f"tests/, or allow the name with a reason): {', '.join(dead)}"
    )


def test_allowlist_names_only_unreferenced_definitions():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    trees = [ast.parse(text) for text in sources.values()]
    defined = {d for tree in trees for d, _ in _definitions(tree)}
    refs = _references(trees)
    assert set(UNREFERENCED_ALLOWED) <= defined - refs


def test_checker_flags_an_unreferenced_definition():
    src = (
        "class A:\n    def used(self): pass\n    def unused(self): pass\n"
        "    def __len__(self): return 0\n"
        "def f(a: 'A'): return a.used()\n"
        "def g(): pass\n"
        "HANDLERS = {'f': f}\n"
        "LIMIT: int = 3\n"
        "__all__ = ['A']\n"
        "def h(): return HANDLERS\n"
    )
    assert _unreferenced({"m.py": src}) == [
        "m.py:3 unused", "m.py:6 g", "m.py:8 LIMIT", "m.py:10 h"
    ]


# ----- test helpers no test reaches ---------------------------------------------------------
TESTS = Path(__file__).resolve().parent


def _unreached_helpers(helpers: str, tests: list[str]) -> list[str]:
    """The top-level functions and classes of the helper module that no test
    module refers to, directly or through the helpers it reaches, in line
    order."""
    body = ast.parse(helpers).body
    defs = {n.name: n for n in body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    reached = _references([ast.parse(t) for t in tests]) & set(defs)
    todo = list(reached)
    while todo:
        new = _references([defs[todo.pop()]]) & set(defs) - reached
        reached |= new
        todo += new
    return [name for name in defs if name not in reached]


def test_every_helper_is_reached_from_a_test():
    helpers = (TESTS / "_helpers.py").read_text()
    tests = [p.read_text() for p in sorted(TESTS.glob("test_*.py"))]
    unreached = _unreached_helpers(helpers, tests)
    assert not unreached, (
        f"tests/_helpers.py defines helpers no test reaches: {', '.join(unreached)}"
    )


def test_checker_flags_an_unreached_helper():
    helpers = (
        "def used(x): return inner(x)\n"
        "def inner(x): return x\n"
        "def unused(): return used(1)\n"
        "class Table: pass\n"
        "def recursive(n): return recursive(n - 1)\n"
    )
    tests = ["from _helpers import used\ndef test_a(): assert used(1)\n", "X = 1\n"]
    assert _unreached_helpers(helpers, tests) == ["unused", "Table", "recursive"]


# ----- one definition per top-level name ---------------------------------------------------
def _defined_twice(sources: dict[str, str]) -> list[str]:
    """`name (a.py, b.py)` for each top-level function, class or module-level
    name that more than one module defines."""
    where: dict[str, list[str]] = {}
    for module, text in sources.items():
        tree = ast.parse(text, filename=module)
        # a definition is top level iff it starts on a module-body statement's
        # line (nested definitions start on later lines)
        top = {stmt.lineno for stmt in tree.body}
        for d in sorted({d for d, line in _definitions(tree) if line in top}):
            where.setdefault(d, []).append(module)
    return [f"{d} ({', '.join(ms)})" for d, ms in sorted(where.items()) if len(ms) > 1]


def test_no_name_defined_in_two_modules():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    twice = _defined_twice(sources)
    assert not twice, f"top-level names defined in more than one module: {', '.join(twice)}"


def test_checker_flags_a_name_defined_in_two_modules():
    a = "def f(): pass\nclass C:\n    def to_json(self): pass\nLIMIT = 3\n"
    b = "class f: pass\nclass D:\n    def to_json(self): pass\nLIMIT: int = 4\n"
    c = "def g():\n    def f(): pass\n    return f\n"
    assert _defined_twice({"a.py": a, "b.py": b, "c.py": c}) == [
        "LIMIT (a.py, b.py)", "f (a.py, b.py)"
    ]


# ----- locals written and never read ----------------------------------------------------
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(func: ast.AST):
    """The nodes of a function body, nested functions and classes left out."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _stored_names(target: ast.AST) -> list[ast.Name]:
    """The locals a target writes: names, the base name of a subscript, and
    the names inside a tuple or list target."""
    while isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Name):
        return [target]
    if isinstance(target, ast.Starred):
        return _stored_names(target.value)
    if isinstance(target, (ast.Tuple, ast.List)):
        return [n for t in target.elts for n in _stored_names(t)]
    return []


def _write_only_locals(tree: ast.AST) -> list[str]:
    """`function.name` for each local that is assigned (directly or as a
    subscript target) and never read, nested functions included."""
    out = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        targets = []
        for node in _own_nodes(func):
            if isinstance(node, ast.Assign):
                targets += node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets.append(node.target)
        written = {}  # local name -> the Name nodes that write it
        for name in sorted(
            (n for t in targets for n in _stored_names(t)),
            key=lambda n: (n.lineno, n.col_offset),
        ):
            written.setdefault(name.id, []).append(name)
        declared = {
            n for node in _own_nodes(func) if isinstance(node, (ast.Global, ast.Nonlocal))
            for n in node.names
        }
        writes = {id(n) for nodes in written.values() for n in nodes}
        read = {
            n.id for n in ast.walk(func)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and id(n) not in writes
        }
        out += [f"{func.name}.{name}" for name in written if name not in read | declared]
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_write_only_locals(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = _write_only_locals(tree)
    assert not unread, f"{path.name} assigns locals it never reads: {', '.join(unread)}"


def test_checker_flags_a_write_only_local():
    src = (
        "def f(xs):\n"
        "    unused = 1\n"
        "    table = {}\n"
        "    table[0] = 2\n"
        "    seen = {}\n"
        "    seen[1] = 3\n"
        "    total = 0\n"
        "    total += 1\n"
        "    a, b = xs\n"
        "    def g():\n"
        "        return seen\n"
        "    return a, g\n"
    )
    assert _write_only_locals(ast.parse(src)) == ["f.unused", "f.table", "f.total", "f.b"]


# ----- nothing writes into a built matrix ---------------------------------------------
# every builder fills a plain dict and constructs its SparseRationalMatrix once
ENTRIES_MUTATORS = {"pop", "update", "setdefault", "clear"}


def _matrix_writes(tree: ast.AST) -> list[str]:
    """`line what` for each write into a built matrix, in line order: a
    subscript store (or delete) on an `.entries` attribute, a
    `.entries.pop/update/setdefault/clear` call, and an augmented assignment
    to a `.rows` or `.cols` attribute."""

    def is_entries(node):
        return isinstance(node, ast.Attribute) and node.attr == "entries"

    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, (ast.Store, ast.Del))
            and is_entries(node.value)
        ):
            found.append((node.lineno, "entries[...] store"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ENTRIES_MUTATORS
            and is_entries(node.func.value)
        ):
            found.append((node.lineno, f"entries.{node.func.attr}"))
        elif (
            isinstance(node, ast.AugAssign)
            and isinstance(node.target, ast.Attribute)
            and node.target.attr in ("rows", "cols")
        ):
            found.append((node.lineno, f"{node.target.attr} +="))
    return [f"{line} {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_write_into_a_built_matrix(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    writes = _matrix_writes(tree)
    assert not writes, (
        f"{path.name} writes into a built matrix (fill a dict, then construct): "
        f"{', '.join(writes)}"
    )


def test_checker_flags_a_write_into_a_built_matrix():
    src = (
        "def f(m, entries):\n"
        "    m.entries[0, 0] = 1\n"
        "    entries[0, 1] = 2\n"
        "    m.entries.pop((0, 0))\n"
        "    x = m.entries.get((0, 1), 0)\n"
        "    m.rows += 1\n"
        "    del m.entries[0, 1]\n"
        "    m.entries.update({})\n"
        "    rows = m.rows + 1\n"
        "    return x, rows, {k: v for k, v in m.entries.items()}\n"
    )
    assert _matrix_writes(ast.parse(src)) == [
        "2 entries[...] store", "4 entries.pop", "6 rows +=", "7 entries[...] store",
        "8 entries.update",
    ]


def test_sparse_matrix_has_no_mutator():
    """The public methods of SparseRationalMatrix, pinned: the name-based
    dead-code check cannot see a per-entry mutator come back, because
    `dict.get`, `set()` and `Weight.scale` share those names."""
    public = {name for name in vars(SparseRationalMatrix) if not name.startswith("_")}
    assert public == {
        "from_rows", "to_rows", "nonzero_rows", "submatrix", "transpose", "is_zero",
        "is_symmetric", "matmul", "add", "apply",
    }


# ----- a Dirac block caches its predicate alone -------------------------------------------
# G, G D, D^2 and d are formed where they are read, so no block keeps them, and
# no derived matrix is an attribute: `dim` is the one plain property
BLOCK_CACHES_ALLOWED = ["definite_anti_selfadjoint"]
BLOCK_PROPERTIES_ALLOWED = ["dim"]


def _decorated_methods(tree: ast.AST, cls: str, decorator: str) -> list[str]:
    """The methods of each class named `cls` decorated with `decorator`
    (plain or as an attribute, e.g. `functools.cached_property`), in line
    order."""

    def named(d):
        name = d.attr if isinstance(d, ast.Attribute) else getattr(d, "id", None)
        return name == decorator

    return [
        f.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == cls
        for f in node.body
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(map(named, f.decorator_list))
    ]


_BLOCK_CHECKER_CONTROL = (
    "import functools\n"
    "from functools import cached_property\n"
    "class DiracBlock:\n"
    "    @property\n"
    "    def dim(self): pass\n"
    "    @functools.cached_property\n"
    "    def gram(self): pass\n"
    "    @property\n"
    "    def d(self): pass\n"
    "    @cached_property\n"
    "    def D2(self): pass\n"
    "    @functools.cached_property\n"
    "    def definite_anti_selfadjoint(self): pass\n"
    "class Block:\n"
    "    @functools.cached_property\n"
    "    def definiteness(self): pass\n"
    "    @property\n"
    "    def size(self): pass\n"
)


def test_dirac_block_caches_only_its_predicate():
    tree = ast.parse((SRC / "dirac.py").read_text())
    assert _decorated_methods(tree, "DiracBlock", "cached_property") == BLOCK_CACHES_ALLOWED


def test_checker_flags_a_cached_matrix_on_a_dirac_block():
    assert _decorated_methods(
        ast.parse(_BLOCK_CHECKER_CONTROL), "DiracBlock", "cached_property"
    ) == ["gram", "D2", "definite_anti_selfadjoint"]


def test_dirac_block_has_no_property_but_dim():
    tree = ast.parse((SRC / "dirac.py").read_text())
    assert _decorated_methods(tree, "DiracBlock", "property") == BLOCK_PROPERTIES_ALLOWED


def test_checker_flags_a_derived_matrix_property_on_a_dirac_block():
    assert _decorated_methods(
        ast.parse(_BLOCK_CHECKER_CONTROL), "DiracBlock", "property"
    ) == ["dim", "d"]


# ----- dense rows only where dense rows are the output ------------------------------------
# the eliminations read sparse rows; a dense copy of a matrix is made only for
# the JSON of a module block
TO_ROWS_ALLOWED = {"modules.Block.to_json"}


def _to_rows_calls(tree: ast.AST, module: str) -> list[str]:
    """`module.scope:line` for each `.to_rows()` call, the scope being the
    enclosing classes and functions, in line order."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "to_rows"
            ):
                found.append((child.lineno, ".".join([module, *scope])))
            visit(child, scope)

    visit(tree, [])
    return [f"{name}:{line}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dense_rows_outside_the_allowed_readers(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = [
        c for c in _to_rows_calls(tree, path.stem) if c.split(":")[0] not in TO_ROWS_ALLOWED
    ]
    assert not calls, (
        f"{path.name} densifies a matrix with to_rows() (hand the elimination "
        f"`nonzero_rows()` instead): {', '.join(calls)}"
    )


def test_checker_flags_a_dense_rows_call():
    src = (
        "def definiteness(g):\n"
        "    return g.to_rows()\n"
        "class Block:\n"
        "    def to_json(self):\n"
        "        return self.gram.to_rows()\n"
        "    def other(self):\n"
        "        rows = [r for r in self.gram.to_rows()]\n"
        "        return rows\n"
        "def rank(a):\n"
        "    def inner():\n"
        "        return a.transpose().to_rows()\n"
        "    return inner, a.to_rows\n"
        "ROWS = M.to_rows()\n"
    )
    calls = _to_rows_calls(ast.parse(src), "exactla")
    assert calls == [
        "exactla.definiteness:2", "exactla.Block.to_json:5", "exactla.Block.other:7",
        "exactla.rank.inner:11", "exactla:13",
    ]


def test_dense_rows_allowlist_names_live_calls():
    calls = {
        c.split(":")[0]
        for path in SRC.glob("*.py")
        for c in _to_rows_calls(ast.parse(path.read_text()), path.stem)
    }
    assert calls == TO_ROWS_ALLOWED


# ----- imports inside functions -----------------------------------------------------------
def _function_imports(tree: ast.AST) -> list[str]:
    """`function:line` for each import statement in a function body, nested
    functions and methods included, in line order."""
    found = [
        (node.lineno, func.name)
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in _own_nodes(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    return [f"{name}:{line}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    inside = _function_imports(tree)
    assert not inside, (
        f"{path.name} imports inside functions (move them to the module imports): "
        f"{', '.join(inside)}"
    )


def test_checker_flags_an_import_inside_a_function():
    src = (
        "import os\n"
        "def f():\n"
        "    from os import path\n"
        "    def g():\n"
        "        import sys\n"
        "        return sys\n"
        "    return path, g\n"
        "class C:\n"
        "    import json\n"
        "    def m(self):\n"
        "        if self:\n"
        "            import re\n"
        "        return re\n"
    )
    assert _function_imports(ast.parse(src)) == ["f:3", "g:5", "m:12"]


# ----- defaulted parameters no caller sets ------------------------------------------------
def _unset_defaults(sources: dict[str, str]) -> list[str]:
    """`module:line function(parameter)` for each defaulted parameter of a
    function or method that no call in the sources sets, by position or by
    keyword, in module and line order. A call matches by the name it calls
    (a plain name or an attribute); a call through an attribute skips the
    `self` or `cls` of a method, and a `*` or `**` argument sets every
    positional or every keyword parameter."""
    trees = {name: ast.parse(text, filename=name) for name, text in sources.items()}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)

    def sets(call, i, name, method):
        if method and isinstance(call.func, ast.Attribute):
            i -= 1
        positional = [a for a in call.args if not isinstance(a, ast.Starred)]
        return (
            0 <= i < len(positional)
            or (i >= 0 and len(positional) < len(call.args))
            or any(k.arg in (name, None) for k in call.keywords)
        )

    out = []
    for module, tree in trees.items():
        methods = {
            id(f)
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for f in cls.body
            if isinstance(f, ast.FunctionDef)
            and not any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list)
        }
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            args = func.args
            params = args.posonlyargs + args.args
            first = len(params) - len(args.defaults)
            defaulted = [(i, a.arg) for i, a in enumerate(params[first:], first)] + [
                (-1, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            for i, name in defaulted:
                if not any(
                    sets(c, i, name, id(func) in methods)
                    for c in calls.get(func.name, [])
                ):
                    out.append((module, func.lineno, f"{func.name}({name})"))
    return [f"{m}:{line} {what}" for m, line, what in sorted(out)]


def test_every_defaulted_parameter_is_set_by_some_caller():
    """A default no call overrides is a knob nobody turns: fold it into the
    function."""
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    unset = _unset_defaults(sources)
    assert not unset, f"defaulted parameters no package call sets: {', '.join(unset)}"


def test_checker_flags_an_unset_default():
    src = (
        "def f(a, b=1, *, c=2, d=3):\n"
        "    return a + b + c + d\n"
        "def g(x=0, y=0):\n"
        "    return x + y\n"
        "class C:\n"
        "    def m(self, k=1, j=2):\n"
        "        return k + j\n"
        "    @staticmethod\n"
        "    def s(k=1):\n"
        "        return k\n"
        "def use(o, opts, xs):\n"
        "    return f(1, c=5), g(*xs), o.m(7), C.s(), h(**opts)\n"
        "def h(u=1):\n"
        "    return u\n"
    )
    assert _unset_defaults({"m.py": src}) == [
        "m.py:1 f(b)", "m.py:1 f(d)", "m.py:6 m(j)", "m.py:9 s(k)"
    ]
