"""Source hygiene: no module or test imports a name it never uses, and no
private module-level name in the package is left without a reference.

A stdlib-``ast`` stand-in for a linter's unused-import rule.  A name counts
as used when it appears as an identifier anywhere in the file (the root of
an attribute chain included) or is listed in ``__all__``; ``from __future__``
imports are directives, not names.  Package ``__init__`` files re-export by
design and are not scanned.

The dead-code rule: every module-level ``_private`` function, class or
constant in ``src/gabframes`` must be read somewhere in ``src/`` or
``tests/``, as a loaded name, an attribute or an imported name.

The export rule: every name in a package module's ``__all__`` is bound at
the module's top level (a def, a class, an assignment or an import).  The
unused-import rule counts ``__all__`` entries as uses, so without this a
stale entry left behind by a deletion would pass both.  A module with a
module-level ``__getattr__`` binds names on access, which no static rule can
see; the package ``__init__`` is such a module, and the lazy-table rule
checks its names instead.

The lazy-table rule: every entry of the package's ``_EXPORTS`` table names
an existing submodule and a name listed in that submodule's ``__all__``.
Both rules above skip ``__init__.py`` in effect, so without this a renamed
function would leave a stale lazy name that fails only on first access.

The caller rule: every name of ``_EXPORTS`` is read, as a loaded name or an
attribute, in a module of ``src/gabframes``, a demo, ``perfbench/`` or
``tests/test_acceptance.py``, outside the top-level def or class that
defines it.  The ``__all__`` and ``_EXPORTS`` lists hold strings, so they
never count, and neither does an import alone.  A public name that only unit
tests reach re-spells another or has no use.

The dead-method rule: every non-dunder method of a module-level class in
``src/gabframes`` is read somewhere in ``src/``, ``tests/``, ``demos/`` or
``perfbench/``, by the same test as the dead-code rule.  Matching is by name
only, so a method shares the fate of any attribute or name spelled alike.

The dead-local rule: no function in ``src/gabframes`` or ``tests/`` binds a
local name with a single-name ``=`` and never loads it.  Loads in nested
functions count as uses; a nested function's own assignments are checked
with it, and names declared ``global`` or ``nonlocal`` are not locals.

The full-grid rule: a function in ``src/gabframes`` reads the ``.values``
attribute, which builds a function's full-grid array anew on every read,
only when it is on an allow-list: the CSV writer, which writes every sample,
the direct form, the plain oracle, and the selftest.  Everything else works
on support boxes.  A ``.values()`` call is not such a read.

The loop rule: no function in ``src/gabframes`` reads ``.values`` where it
runs once per iteration: in the body or test of a ``for`` or ``while`` loop,
or in a comprehension anywhere but its first iterable.  Each such read
would build all N^d samples again; read once before the loop instead.

The one-reader rule: in ``cli.py`` only the config reader ``_config`` and
``norm``'s window read call ``_load_json``, so every config passes the same
schema, key and grid checks once, and the builders behind it only build.

The memory rule: only ``errors.py`` calls ``os.sysconf``, in the one
memory preflight ``_require_memory``, so every size check reads physical
memory the same way and a test patches one name to change it.

The number rule: ``_number``, ``_whole`` and ``_typed``, the one rule that
turns a caller's value into a float or an int, ``_at_least_one`` for a whole
number >= 1, and ``_per_axis``, which reads one number per grid axis, are
defined only in ``errors.py``, so
the CLI and every library entry point refuse the same values with the same
messages.

The coercion rule: outside ``errors.py``, no function in ``src/gabframes``
converts one of its own parameters with ``float``, ``int`` or an
``np.asarray`` / ``np.array`` of ``dtype`` float or int, which would take a
bool, a numeric string or a fraction the number rule refuses.  The one
exception, listed in ``PARSERS``, is ``Exponent.of``'s parse of a string
exponent such as ``"inf"``.

The front-end rule: the CLI's module-level imports are the stdlib,
``.errors`` and ``__version__`` only, so ``--version``, ``--help`` and
config errors load no numpy; the handlers import the rest.  The
``if TYPE_CHECKING:`` block is exempt, since it never runs.

The table-format rule: only ``grid.py`` holds a printf number code (``%d``,
``%.17g`` and the like) in a string, since its one CSV writer chooses each
column's format; and only ``cli.py``, for its record tables, imports or
reads ``_write_table``, so every other table goes through ``write_csv`` or
``_write_array``.

The index rule: only ``grid.py``, which owns the cell slot and the move of
a function by whole samples, and ``windows.py`` (support index ranges) read
a grid's ``half_extent_steps``; ``amalgam.py`` finds its partial cubes
through the cell slot of index 0; and
``walnut.py`` imports or reads none of the box moves ``_meet``, ``_moved``
and ``_read``, so the Walnut form reaches the grid only through its rules.

The one-spectrum rule: in ``janssen.py`` one function calls ``fftn``, the
per-member spectrum that the ``JanssenLattice`` constructor and
``wexler_raz_check`` both read, and ``wexler_raz_check`` names no lattice,
so the verdict reads every coefficient once and never through a radius box.

The one-pass rule: in ``janssen.py`` only ``JanssenLattice`` calls ``ifftn``
and ``fold_to_cell``, so the alias weight that makes the certificate and
the filtered cells is folded once, in the constructor, and ``janssen_apply``
sums the stored cells without a transform.
"""
import ast
import functools
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for p in (ROOT / "src" / "gabframes").glob("*.py") if p.name != "__init__.py")
FILES += sorted((ROOT / "tests").glob("*.py"))
PACKAGE = sorted((ROOT / "src" / "gabframes").glob("*.py"))
SCRIPTS = sorted(p for sub in ("demos", "perfbench") for p in (ROOT / sub).glob("*.py"))
CALLERS = PACKAGE + sorted((ROOT / "tests").glob("*.py")) + SCRIPTS


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("source,unused", [
    ("import math\n", ["line 1: math"]),
    ("import os.path\nos.sep\n", []),
    ("from a import b as c\nb = 1\n", ["line 1: c"]),
    ("from a import b\n__all__ = ['b']\n", []),
    ("from __future__ import annotations\n", []),
    ("def f():\n    from a import b\n    return b.x\n", []),
])
def test_checker_itself(source, unused):
    assert unused_imports(source) == unused


def private_definitions(source: str) -> list[str]:
    """Module-level ``_name`` functions, classes and assigned constants (no dunders)."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return [n for n in dict.fromkeys(names) if n.startswith("_") and not n.startswith("__")]


# cached: the dead-code and dead-method rules read every caller once per module
@functools.lru_cache(maxsize=None)
def references(source: str) -> frozenset[str]:
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return frozenset(refs)


def unreferenced_privates(source: str, others: list[str]) -> list[str]:
    refs = set().union(references(source), *map(references, others))
    return [n for n in private_definitions(source) if n not in refs]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"src/{p.name}")
def test_no_unreferenced_private_names(path):
    others = [p.read_text() for p in set(FILES + PACKAGE) - {path}]
    assert unreferenced_privates(path.read_text(), others) == []


@pytest.mark.parametrize("source,others,unreferenced", [
    ("def _f():\n    pass\n", [], ["_f"]),
    ("def _f():\n    pass\ndef g():\n    return _f()\n", [], []),
    ("_K = 1\n_K = 2\n", [], ["_K"]),
    ("_K = 1\n", ["from m import _K\n"], []),
    ("class _C:\n    pass\n", ["import m\nm._C()\n"], []),
    ("__all__ = []\ndef f():\n    def _inner():\n        pass\n", [], []),
])
def test_private_checker_itself(source, others, unreferenced):
    assert unreferenced_privates(source, others) == unreferenced


def unbound_exports(source: str) -> list[str]:
    """Names listed in ``__all__`` that the module's top level never binds.

    Empty for a module that defines ``__getattr__``, whose names are bound on
    access.
    """
    body = ast.parse(source).body
    if any(isinstance(node, ast.FunctionDef) and node.name == "__getattr__" for node in body):
        return []
    bound, exported = set(), []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                bound.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                exported = ast.literal_eval(node.value)
    return [name for name in exported if name not in bound]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"src/{p.name}")
def test_all_names_are_bound(path):
    assert unbound_exports(path.read_text()) == []


@pytest.mark.parametrize("source,unbound", [
    ("__all__ = ['f']\ndef f():\n    pass\n", []),
    ("__all__ = ['f', 'gone']\ndef f():\n    pass\n", ["gone"]),
    ("from m import x as y\n__all__ = ['x', 'y']\n", ["x"]),
    ("import os.path\nK, (L, M) = 1, (2, 3)\nclass C:\n    pass\n"
     "__all__ = ['os', 'K', 'M', 'C']\n", []),
    ("def f():\n    g = 1\n__all__ = ['g']\n", ["g"]),
    ("X: int = 1\n__all__ = ('X',)\n", []),
    ("def f():\n    pass\n", []),
    ("_T = {'f': 'm'}\n__all__ = [*_T]\ndef __getattr__(name):\n    pass\n", []),
])
def test_export_checker_itself(source, unbound):
    assert unbound_exports(source) == unbound


def module_all(source: str) -> list[str]:
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return list(ast.literal_eval(node.value))
    return []


def export_table(init_source: str) -> dict[str, str]:
    """The package's ``_EXPORTS`` table: public name -> submodule."""
    for node in ast.parse(init_source).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets)):
            return ast.literal_eval(node.value)
    return {}


def stale_lazy_names(init_source: str, modules: dict[str, str]) -> list[str]:
    """``_EXPORTS`` entries whose submodule is not in ``modules`` (name -> source)
    or whose name that submodule's ``__all__`` does not list."""
    table = export_table(init_source)
    return [f"{name} -> {sub}" for name, sub in table.items()
            if sub not in modules or name not in module_all(modules[sub])]


def test_lazy_table_names_exist():
    modules = {p.stem: p.read_text() for p in PACKAGE if p.name != "__init__.py"}
    init = (ROOT / "src" / "gabframes" / "__init__.py").read_text()
    assert "_EXPORTS" in init
    assert stale_lazy_names(init, modules) == []


@pytest.mark.parametrize("init_source,modules,stale", [
    ("_EXPORTS = {'f': 'm'}\n", {"m": "__all__ = ['f']\ndef f():\n    pass\n"}, []),
    ("_EXPORTS = {'f': 'm'}\n", {"n": "__all__ = ['f']\n"}, ["f -> m"]),
    ("_EXPORTS = {'f': 'm', 'g': 'm'}\n", {"m": "__all__ = ['f']\ndef g():\n    pass\n"},
     ["g -> m"]),
    ("_EXPORTS = {'old': 'm'}\n", {"m": "__all__ = ['new']\n"}, ["old -> m"]),
    ("_EXPORTS = {'f': 'm'}\n", {"m": "def f():\n    pass\n"}, ["f -> m"]),
    ("import m\n", {"m": "__all__ = []\n"}, []),
])
def test_lazy_table_checker_itself(init_source, modules, stale):
    assert stale_lazy_names(init_source, modules) == stale


def reads(source: str) -> frozenset[str]:
    """Names loaded or read as an attribute, each outside the top-level def or
    class of that name."""
    found = set()
    for top in ast.parse(source).body:
        here = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                here.add(node.id)
            elif isinstance(node, ast.Attribute):
                here.add(node.attr)
        here.discard(getattr(top, "name", None))  # a def or class reads not itself
        found |= here
    return frozenset(found)


def uncalled_exports(init_source: str, sources: list[str]) -> list[str]:
    """``_EXPORTS`` names that none of ``sources`` reads."""
    read = set().union(*map(reads, sources))
    return [name for name in export_table(init_source) if name not in read]


def test_every_export_has_a_caller():
    init = (ROOT / "src" / "gabframes" / "__init__.py").read_text()
    callers = PACKAGE + SCRIPTS + [ROOT / "tests" / "test_acceptance.py"]
    assert uncalled_exports(init, [p.read_text() for p in callers]) == []


@pytest.mark.parametrize("init_source,sources,uncalled", [
    ("_EXPORTS = {'f': 'm'}\n", ["def f():\n    pass\n"], ["f"]),
    ("_EXPORTS = {'f': 'm'}\n", ["def f():\n    pass\n", "def g():\n    return f()\n"], []),
    ("_EXPORTS = {'f': 'm'}\n", ["def g():\n    return f()\ndef f():\n    pass\n"], []),
    ("_EXPORTS = {'f': 'm'}\n", ["def f(n):\n    return f(n - 1)\n"], ["f"]),
    ("_EXPORTS = {'f': 'm'}\n", ["__all__ = ['f']\ndef f():\n    pass\n"], ["f"]),
    ("_EXPORTS = {'f': 'm'}\n", ["from m import f\n"], ["f"]),
    ("_EXPORTS = {'f': 'm'}\n", ["import gabframes as gf\ngf.f(1)\n"], []),
    ("_EXPORTS = {'C': 'm'}\n",
     ["class C:\n    @classmethod\n    def of(cls):\n        return C()\n"], ["C"]),
    ("_EXPORTS = {'R': 'm'}\n", ["class R:\n    pass\ndef run():\n    return R()\n"], []),
    ("_EXPORTS = {'f': 'm', 'g': 'm'}\n", ["x = [f]\n"], ["g"]),
])
def test_caller_checker_itself(init_source, sources, uncalled):
    assert uncalled_exports(init_source, sources) == uncalled


def method_definitions(source: str) -> list[str]:
    """Non-dunder methods (properties and class methods included) of top-level classes."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            names += [item.name for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [n for n in dict.fromkeys(names) if not (n.startswith("__") and n.endswith("__"))]


def unreferenced_methods(source: str, others: list[str]) -> list[str]:
    refs = set().union(references(source), *map(references, others))
    return [n for n in method_definitions(source) if n not in refs]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"src/{p.name}")
def test_no_unreferenced_methods(path):
    others = [p.read_text() for p in CALLERS if p != path]
    assert unreferenced_methods(path.read_text(), others) == []


@pytest.mark.parametrize("source,others,unreferenced", [
    ("class G:\n    def with_values(self, v):\n        return G()\n", [], ["with_values"]),
    ("class G:\n    def f(self):\n        pass\n    def g(self):\n        return self.f()\n",
     [], ["g"]),
    ("class G:\n    @property\n    def size(self):\n        return 1\n", ["def f(x):\n    return x.size\n"], []),
    ("class G:\n    @classmethod\n    def of(cls):\n        pass\n", ["G.of()\n"], []),
    ("class G:\n    def __init__(self):\n        pass\n    def __repr__(self):\n        return ''\n",
     [], []),
    ("def f():\n    class G:\n        def h(self):\n            pass\n", [], []),
])
def test_method_checker_itself(source, others, unreferenced):
    assert unreferenced_methods(source, others) == unreferenced


def _scope_nodes(fn):
    # the nodes of fn's own scope: nested functions, lambdas and classes are
    # yielded but not entered
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def dead_locals(source: str) -> list[str]:
    """Locals bound by ``name = ...`` in a function and never loaded in it."""
    dead = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        assigned, declared = {}, set()
        for node in _scope_nodes(fn):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                name = node.targets[0].id
                assigned[name] = min(node.lineno, assigned.get(name, node.lineno))
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
        loaded = {node.id for node in ast.walk(fn)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        dead += [(line, name) for name, line in assigned.items()
                 if name not in loaded and name not in declared]
    return [f"line {line}: {name}" for line, name in sorted(dead)]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_dead_locals(path):
    assert dead_locals(path.read_text()) == []


@pytest.mark.parametrize("source,dead", [
    ("def f():\n    x = 1\n", ["line 2: x"]),
    ("def f():\n    x = 1\n    return x\n", []),
    ("def t(sys):\n    fam = family(sys)\n    return apply(sys)\n", ["line 2: fam"]),
    ("def f():\n    x = 1\n    x = 2\n", ["line 2: x"]),
    ("def f():\n    x = 1\n    def g():\n        return x\n    return g\n", []),
    ("def f():\n    def g():\n        y = 1\n    return g\n", ["line 3: y"]),
    ("def f():\n    a, b = 1, 2\n    return a\n", []),
    ("def f():\n    global X\n    X = 1\n", []),
    ("def f():\n    x = 0\n    def g():\n        nonlocal x\n        x = 1\n    g()\n"
     "    return x\n", []),
    ("class C:\n    def m(self):\n        self.x = 1\n", []),
    ("def f():\n    class C:\n        k = 1\n    return C\n", []),
    ("x = 1\n", []),
])
def test_dead_local_checker_itself(source, dead):
    assert dead_locals(source) == dead


def values_reads(source: str) -> list[str]:
    """Dotted names of the functions (``<module>`` for the top level) that
    load the ``.values`` attribute other than to call it."""
    tree = ast.parse(source)
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    reads = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
            elif (isinstance(child, ast.Attribute) and child.attr == "values"
                  and isinstance(child.ctx, ast.Load) and id(child) not in called):
                reads.add(".".join(scope) or "<module>")
            visit(child, inner)

    visit(tree, [])
    return sorted(reads)


# module.function names allowed to read the full-grid values
VALUES_READERS = {"grid.write_csv", "operators.apply_frame_direct", "cli._cmd_selftest"}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"src/{p.name}")
def test_full_grid_values_read_only_where_allowed(path):
    reads = {f"{path.stem}.{name}" for name in values_reads(path.read_text())}
    assert sorted(reads - VALUES_READERS) == []


@pytest.mark.parametrize("source,reads", [
    ("def f(u):\n    return u.values\n", ["f"]),
    ("def f(table):\n    return sorted(table.values())\n", []),
    ("def f(u):\n    return u.values.sum()\n", ["f"]),
    ("class C:\n    def m(self):\n        return self.values[0]\n", ["C.m"]),
    ("def f(u):\n    def g():\n        return u.values\n    return g\n", ["f.g"]),
    ("class C:\n    @property\n    def values(self):\n        return self._values\n", []),
    ("def f(u):\n    u.values = None\n", []),
    ("x = u.values\n", ["<module>"]),
])
def test_values_checker_itself(source, reads):
    assert values_reads(source) == reads


def _per_iteration(node) -> list:
    # the child nodes of node that run once per iteration of its loop
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return node.body
    if isinstance(node, ast.While):
        return [node.test, *node.body]
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
        first, *rest = node.generators
        elts = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
        return [*elts, first.target, *first.ifs, *rest]
    return []


def values_reads_in_loops(source: str) -> list[str]:
    """Dotted names of the functions (``<module>`` for the top level) that
    load the ``.values`` attribute, other than to call it, in a part of a
    loop or comprehension that runs once per iteration.  A def or class
    starts afresh: its body is checked as its own function."""
    tree = ast.parse(source)
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    repeated = set()
    reads = set()

    def visit(node, scope, looping):
        repeated.update(map(id, _per_iteration(node)))
        for child in ast.iter_child_nodes(node):
            inner, loop = scope, looping or id(child) in repeated
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner, loop = scope + [child.name], False
            elif (loop and isinstance(child, ast.Attribute) and child.attr == "values"
                  and isinstance(child.ctx, ast.Load) and id(child) not in called):
                reads.add(".".join(scope) or "<module>")
            visit(child, inner, loop)

    visit(tree, [], False)
    return sorted(reads)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"src/{p.name}")
def test_no_full_grid_values_read_in_a_loop(path):
    assert values_reads_in_loops(path.read_text()) == []


@pytest.mark.parametrize("source,reads", [
    # the direct form's loop as it read the windows before they were hoisted
    ("def apply_frame_direct(f, sys):\n    for n in product(sys.time_indices, repeat=d):\n"
     "        gs = shift_array(sys.g.values, steps)\n", ["apply_frame_direct"]),
    ("def f(u):\n    v = u.values\n    for _ in range(3):\n        v.sum()\n", []),
    ("def f(u):\n    for x in u.values:\n        pass\n", []),
    ("def f(u):\n    while u.values.any():\n        pass\n", ["f"]),
    ("def f(us):\n    for u in us:\n        pass\n    else:\n        return us.values\n", []),
    ("def f(us):\n    return [u.values for u in us]\n", ["f"]),
    ("def f(u):\n    return [x for x in u.values]\n", []),
    ("def f(u, vs):\n    return [x for v in vs for x in u.values]\n", ["f"]),
    ("def f(us):\n    return [u for u in us if u.values.any()]\n", ["f"]),
    ("def f(us):\n    return {k: u.values for k, u in us}\n", ["f"]),
    ("def f(tables):\n    for t in tables:\n        t.values()\n", []),
    ("class C:\n    def m(self, us):\n        for u in us:\n            u.values\n", ["C.m"]),
    ("for u in us:\n    u.values\n", ["<module>"]),
])
def test_loop_values_checker_itself(source, reads):
    assert values_reads_in_loops(source) == reads


def callers(source: str, name: str) -> list[str]:
    """The top-level defs (``<module>`` for other statements) that call
    ``name``, as a bare name or an attribute, each once, in sorted order."""
    found = set()
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                       getattr(node.func, "attr", None)):
                found.add(getattr(top, "name", "<module>"))
    return sorted(found)


def test_configs_have_one_reader():
    source = (ROOT / "src" / "gabframes" / "cli.py").read_text()
    assert callers(source, "_load_json") == ["_cmd_norm", "_config"]


@pytest.mark.parametrize("name", ["GaborSystem", "diagonal_deviation", "tail_sum",
                                  "operator_norm_upper_bound", "_map_ordered"])
def test_sweeps_measure_each_pair_in_one_loop(name):
    # convergence_sweep and opnorm_sweep keep only their own columns; the
    # system, the numbers every sweep reports and the pool live in one driver
    source = (ROOT / "src" / "gabframes" / "experiments.py").read_text()
    assert callers(source, name) == ["_sweep"]


@pytest.mark.parametrize("source,found", [
    ("def _config(path):\n    return _load_json(path)\n", ["_config"]),
    # two readers: the system configs' and an inline one in the sweep command
    ("def _system_config(path):\n    cfg = _load_json(path)\n    return cfg\n"
     "def _cmd_sweep(args):\n    cfg = _load_json(args.config)\n    return cfg\n",
     ["_cmd_sweep", "_system_config"]),
    ("def f():\n    def g():\n        return _load_json('x')\n    return g\n", ["f"]),
    ("def f():\n    return cli._load_json('x')\n", ["f"]),
    ("def f():\n    return _load_json\n", []),
    ("def f():\n    return json.load(fp)\n", []),
    ("cfg = _load_json('x')\n", ["<module>"]),
    ("class C:\n    def m(self):\n        return _load_json('x')\n", ["C"]),
])
def test_callers_checker_itself(source, found):
    assert callers(source, "_load_json") == found


def front_end_imports(source: str) -> list[str]:
    """Modules imported when the module loads, other than the stdlib, ``.errors``
    and ``__version__``.  Function bodies and ``if TYPE_CHECKING:`` are not entered."""
    found = []
    stack = list(ast.parse(source).body)
    while stack:
        node = stack.pop(0)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) \
                and node.test.id == "TYPE_CHECKING":
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names
                      if a.name.split(".")[0] not in sys.stdlib_module_names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] not in sys.stdlib_module_names:
                found.append(node.module)
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            found += ["." * node.level + a.name for a in node.names
                      if a.name not in ("__version__", "errors")]
        elif isinstance(node, ast.ImportFrom) and node.module != "errors":
            found.append("." * node.level + node.module)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_cli_front_end_imports_no_library():
    assert front_end_imports((ROOT / "src" / "gabframes" / "cli.py").read_text()) == []


@pytest.mark.parametrize("source,found", [
    ("from __future__ import annotations\nimport os.path\nimport json\n"
     "from . import __version__\nfrom .errors import ConfigError\n", []),
    ("import numpy as np\n", ["numpy"]),
    ("from numpy import pi\n", ["numpy"]),
    ("from .grid import Grid\n", [".grid"]),
    ("from . import __version__, errors, walnut\n", [".walnut"]),
    ("from .errors.sub import X\n", [".errors.sub"]),
    ("if TYPE_CHECKING:\n    from .grid import Grid\n", []),
    ("if TYPE_CHECKING:\n    pass\nelse:\n    import numpy\n", ["numpy"]),
    ("try:\n    import numpy\nexcept ImportError:\n    pass\n", ["numpy"]),
    ("class C:\n    from .grid import Grid\n", [".grid"]),
    ("def f():\n    import numpy\n    from .grid import Grid\n", []),
])
def test_front_end_checker_itself(source, found):
    assert front_end_imports(source) == found


def sysconf_calls(source: str) -> list[int]:
    """Lines that call ``os.sysconf``, through ``os`` or a name imported from it."""
    tree = ast.parse(source)
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "os"
               for alias in node.names if alias.name == "sysconf"}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if (isinstance(fn, ast.Attribute) and fn.attr == "sysconf"
                and isinstance(fn.value, ast.Name) and fn.value.id == "os") \
                or (isinstance(fn, ast.Name) and fn.id in aliases):
            lines.append(node.lineno)
    return sorted(lines)


def test_physical_memory_is_read_only_in_errors():
    callers = {p.name for p in PACKAGE if sysconf_calls(p.read_text())}
    assert callers == {"errors.py"}


@pytest.mark.parametrize("source,lines", [
    ("import os\nos.sysconf('SC_PAGE_SIZE')\n", [2]),
    ("import os\ndef f():\n    return os.sysconf('a') * os.sysconf('b')\n", [3, 3]),
    ("from os import sysconf\nsysconf('SC_PAGE_SIZE')\n", [2]),
    ("from os import sysconf as pages\npages('SC_PHYS_PAGES')\n", [2]),
    ("import os\nos.cpu_count()\n", []),
    ("def sysconf(name):\n    pass\nsysconf('x')\n", []),
])
def test_sysconf_checker_itself(source, lines):
    assert sysconf_calls(source) == lines


NUMBER_RULE = frozenset({"_number", "_whole", "_typed", "_per_axis", "_at_least_one"})


def number_rule_definitions(source: str) -> list[str]:
    """The names of NUMBER_RULE that a def, a class or an assignment binds,
    at any depth, once per binding, in sorted order; an import binds none."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                found += [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]
    return sorted(name for name in found if name in NUMBER_RULE)


def test_number_rule_is_defined_only_in_errors():
    found = {p.name: number_rule_definitions(p.read_text()) for p in CALLERS}
    assert {name: defs for name, defs in found.items() if defs} == {
        "errors.py": ["_at_least_one", "_number", "_per_axis", "_typed", "_whole"]}


@pytest.mark.parametrize("source,names", [
    ("def _number(value):\n    return float(value)\n", ["_number"]),
    ("def _cmd(args):\n    def _whole(v):\n        return int(v)\n", ["_whole"]),
    ("_typed = lambda key, convert, value: convert(value)\n", ["_typed"]),
    ("_number: object = float\n", ["_number"]),
    ("class _whole:\n    pass\n", ["_whole"]),
    ("a, (_number, b) = 1, (2, 3)\n", ["_number"]),
    ("from .errors import _number, _typed, _whole\nx = _typed('a', _number, 1)\n", []),
    ("def _numbers(v):\n    pass\nnumber = 1\n", []),
    ("def _per_axis(key, convert, value, dim):\n    return convert(value)\n", ["_per_axis"]),
])
def test_number_rule_checker_itself(source, names):
    assert number_rule_definitions(source) == names


# (module, function) pairs that may parse a parameter: Exponent.of reads a
# string exponent ("2", "inf") with float
PARSERS = frozenset({("amalgam.py", "of")})


def coerced_parameters(source: str) -> list[str]:
    """Lines where a function or lambda converts one of its own parameters
    with ``float(x)``, ``int(x)`` or ``np.asarray`` / ``np.array(x,
    dtype=float or int)``, as ``line N: name``; nested scopes are checked
    with their own parameters."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        spec = fn.args
        params = {a.arg for a in spec.posonlyargs + spec.args + spec.kwonlyargs
                  + [spec.vararg, spec.kwarg] if a is not None}
        scope = _scope_nodes(fn) if isinstance(fn.body, list) else ast.walk(fn.body)
        for node in scope:
            if not (isinstance(node, ast.Call) and node.args
                    and isinstance(node.args[0], ast.Name) and node.args[0].id in params):
                continue
            func = node.func
            cast = isinstance(func, ast.Name) and func.id in ("float", "int")
            array = (isinstance(func, ast.Attribute) and func.attr in ("asarray", "array")
                     and isinstance(func.value, ast.Name) and func.value.id == "np"
                     and any(k.arg == "dtype" and isinstance(k.value, ast.Name)
                             and k.value.id in ("float", "int") for k in node.keywords))
            if cast or array:
                found.append((node.lineno, getattr(fn, "name", "<lambda>")))
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "errors.py"],
                         ids=lambda p: p.name)
def test_parameters_are_read_by_the_number_rule(path):
    found = [site for site in coerced_parameters(path.read_text())
             if (path.name, site.rsplit(": ", 1)[1]) not in PARSERS]
    assert found == []


@pytest.mark.parametrize("source,found", [
    ("def f(t):\n    return float(t)\n", ["line 2: f"]),
    ("def f(self, l, n):\n    return int(l), int(n)\n", ["line 2: f", "line 2: f"]),
    ("def f(omega):\n    return np.asarray(omega, dtype=float)\n", ["line 2: f"]),
    ("def f(steps):\n    return np.atleast_1d(np.array(steps, dtype=int))\n", ["line 2: f"]),
    ("g = lambda v: float(v)\n", ["line 1: <lambda>"]),
    ("def f(*ts, **kw):\n    return int(ts), float(kw)\n", ["line 2: f", "line 2: f"]),
    ("def f(t):\n    s = t.strip()\n    return float(s)\n", []),
    ("def f(t):\n    return float(t * 2), float(t[0])\n", []),
    ("def f(data):\n    return np.asarray(data, dtype=complex), np.asarray(data)\n", []),
    ("def f(x):\n    return _typed('x', _number, x)\n", []),
    ("def f(x):\n    def g(y):\n        return float(x)\n    return g\n", []),
    ("x = 1\nfloat(x)\n", []),
])
def test_coercion_checker_itself(source, found):
    assert coerced_parameters(source) == found


# a printf conversion that formats a number; "%%" is a literal percent sign
PRINTF_NUMBER = re.compile(r"(?<!%)%[-+ #0]*(?:\d+|\*)?(?:\.(?:\d+|\*))?[diouxXeEfFgG]")


def table_format_sites(source: str) -> list[str]:
    """Lines that hold a printf number code in a string, as ``line N: code``,
    and lines that import or read ``_write_table``, as ``line N: _write_table``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            found += [(node.lineno, code) for code in PRINTF_NUMBER.findall(node.value)]
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, "_write_table") for alias in node.names
                      if alias.name == "_write_table"]
        elif isinstance(node, (ast.Name, ast.Attribute)) \
                and getattr(node, "id", getattr(node, "attr", None)) == "_write_table":
            found.append((node.lineno, "_write_table"))
    return [f"line {line}: {item}" for line, item in sorted(found)]


def test_table_format_lives_in_grid():
    found = {p.name: [site.split(": ", 1)[1] for site in table_format_sites(p.read_text())]
             for p in PACKAGE if p.name != "grid.py"}
    # cli._records_csv imports the writer and calls it once, with no code
    assert {name: items for name, items in found.items() if items} == {
        "cli.py": ["_write_table", "_write_table"]}


@pytest.mark.parametrize("source,found", [
    ("codes = ['%d'] * 2 + ['%.17g']\n", ["line 1: %.17g", "line 1: %d"]),
    ("row = '%-8.3e,%+i,%x'\n", ["line 1: %+i", "line 1: %-8.3e", "line 1: %x"]),
    ("def f():\n    \"\"\"Totals as %g.\"\"\"\n", ["line 2: %g"]),
    ("x = f'%d{y}'\n", ["line 1: %d"]),
    ("from .grid import _write_table\n", ["line 1: _write_table"]),
    ("from . import grid\ngrid._write_table(fp, names, cols)\n", ["line 2: _write_table"]),
    ("write = _write_table\n", ["line 1: _write_table"]),
    ("s = '%s,%s' % (a, b)\n", []),
    ("s = '50%% done'\n", []),
    ("s = f'{x:.17g}'\n", []),
    ("from .grid import _write_array, write_csv\n", []),
])
def test_table_format_checker_itself(source, found):
    assert table_format_sites(source) == found


# the modules that read the grid origin, and the box moves walnut.py leaves to the grid
HALF_EXTENT_READERS = frozenset({"grid.py", "windows.py"})
BOX_MOVES = frozenset({"_meet", "_moved", "_read"})


def grid_index_sites(source: str) -> list[str]:
    """Lines that read the attribute ``half_extent_steps`` or import or read
    one of BOX_MOVES as an attribute, as ``line N: name``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in BOX_MOVES | {"half_extent_steps"}:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names if alias.name in BOX_MOVES]
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_index_rules_live_in_grid():
    found = {p.name: grid_index_sites(p.read_text()) for p in PACKAGE}
    readers = {name for name, sites in found.items()
               if any(site.endswith(": half_extent_steps") for site in sites)}
    assert readers <= HALF_EXTENT_READERS
    assert found["walnut.py"] == []


@pytest.mark.parametrize("source,found", [
    ("th = grid.half_extent_steps\n", ["line 1: half_extent_steps"]),
    ("from .grid import _meet, _moved, _read, _within\n",
     ["line 1: _meet", "line 1: _moved", "line 1: _read"]),
    ("from . import grid\nbox = grid._moved(box, steps)\n", ["line 2: _moved"]),
    ("half_extent_steps = 3\n", []),
    ("s = 'half_extent_steps'\n", []),
    ("from .grid import _ext_box, _shifted\n", []),
])
def test_index_rule_checker_itself(source, found):
    assert grid_index_sites(source) == found


def spectrum_sites(source: str) -> tuple[list[str], list[str]]:
    """The top-level defs that call ``fftn``, and the names of the radius box
    that ``wexler_raz_check`` reads: ``janssen_coefficients`` and
    ``JanssenLattice``, as a name or an attribute, in sorted order."""
    box = set()
    for top in ast.parse(source).body:
        if getattr(top, "name", None) == "wexler_raz_check":
            box = {getattr(node, "id", None) or getattr(node, "attr", None)
                   for node in ast.walk(top) if isinstance(node, (ast.Name, ast.Attribute))}
    return callers(source, "fftn"), sorted(box & {"janssen_coefficients", "JanssenLattice"})


def test_one_spectrum_per_member_in_janssen():
    """``_member_spectra`` alone calls ``fftn``: the lattice constructor,
    ``JanssenLattice.__post_init__``, and ``wexler_raz_check`` iterate it,
    and the verdict builds no ``JanssenLattice``."""
    source = (ROOT / "src" / "gabframes" / "janssen.py").read_text()
    assert spectrum_sites(source) == (["_member_spectra"], [])


@pytest.mark.parametrize("source,found", [
    ("def _member_spectra(s):\n    yield np.fft.fftn(s)\n"
     "def wexler_raz_check(s):\n    return list(_member_spectra(s))\n",
     (["_member_spectra"], [])),
    # two transforms, and the verdict read through a lattice
    ("def janssen_coefficients(s, l, n):\n    c = np.fft.fftn(s)\n"
     "    return JanssenLattice._own(c)\n"
     "def wexler_raz_check(s, l, n):\n    lattice = janssen_coefficients(s, l, n)\n",
     (["janssen_coefficients"], ["janssen_coefficients"])),
    ("def wexler_raz_check(s):\n    return JanssenLattice(s).entries, fftn(s)\n",
     (["wexler_raz_check"], ["JanssenLattice"])),
    ("def wexler_raz_check(s):\n    return janssen.janssen_coefficients\n",
     ([], ["janssen_coefficients"])),
    ("def f(s):\n    return np.fft.ifftn(s)\nx = 'fftn'\n", ([], [])),
])
def test_spectrum_checker_itself(source, found):
    assert spectrum_sites(source) == found


def filter_sites(source: str) -> tuple[list[str], list[str]]:
    """The top-level defs that call ``ifftn``, and those that call ``fold_to_cell``."""
    return callers(source, "ifftn"), callers(source, "fold_to_cell")


def test_lattice_filters_its_cells_in_one_pass():
    source = (ROOT / "src" / "gabframes" / "janssen.py").read_text()
    assert filter_sites(source) == (["JanssenLattice"], ["JanssenLattice"])


@pytest.mark.parametrize("source,found", [
    ("class JanssenLattice:\n    def __post_init__(self):\n"
     "        w = fold_to_cell(ones, p, L)\n        c = np.fft.ifftn(w * s)\n",
     (["JanssenLattice"], ["JanssenLattice"])),
    # the cells rebuilt at every apply, from a second fold of the entries
    ("class JanssenLattice:\n    def __post_init__(self):\n        w = fold_to_cell(ones, p, L)\n"
     "def _janssen_form(lattice):\n    return np.fft.ifftn(fold_to_cell(lattice.entries, p, L))\n",
     (["_janssen_form"], ["JanssenLattice", "_janssen_form"])),
    ("def janssen_apply(f, lattice):\n    return ifftn(f)\n", (["janssen_apply"], [])),
    ("def f(s):\n    return np.fft.fftn(s), grid.fold_to_cell\nx = 'ifftn'\n", ([], [])),
])
def test_filter_checker_itself(source, found):
    assert filter_sites(source) == found
