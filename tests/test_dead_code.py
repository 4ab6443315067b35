"""Every function and method in src/starbundle is reachable.

The roots are all code in tests/ and bench/, the module-level code of src/
(imports, constants, class bodies) and the bodies of dunder methods, which
Python calls itself.  A reference made in a live body makes its target live:
``self.x`` (``cls.x``) inside a method and ``ClassName.x`` resolve to the
class that defines ``x``, searching its bases, when that class is defined in
src/starbundle; any other name, attribute or imported name marks every
definition of that name.  Reachability is iterated to a fixpoint, so a
function that only unreachable functions call is flagged too.  Dunders are
not checked.

The scan resolves names, not receivers, so a method that shares its name
with a live method of another class passes it unseen.  A call profile finds
those.  Profile the test suite and one smoke run of each workload, traced
and untraced (``bench/check_bench.py`` runs the same smoke runs in
subprocesses, which a profile of pytest does not see):

    PYTHONPATH=src python -m cProfile -o t1.prof -m pytest -q tests
    python -m cProfile -o t2-0.prof bench/run.py --workload t2-pipeline \\
        --seed 5 --seconds 0 --trace 0 --smoke    # and so on, per workload

Then list every ``def`` under src/starbundle whose (file, line) no
profile's ``pstats.Stats(path).stats`` key names; a decorated def is keyed
by its first decorator's line.  Grep each name left in src, tests and
bench: one with no caller there is dead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "starbundle").glob("*.py"))
SEARCHED = [ROOT / "src", ROOT / "tests", ROOT / "bench"]


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


class _Scan(ast.NodeVisitor):
    """Collects definitions, classes and the references each body makes.

    A definition is keyed ``(file, class or "", name)``.  A reference is
    ``("name", x)`` or ``("attr", class name, x)``.  References made in a
    tree that defines nothing, or outside every non-dunder function, are
    filed under the key ``None``: they are the roots."""

    def __init__(self, file: str, defines: bool):
        self.file, self.defines = file, defines
        self.defs: dict[tuple, int] = {}
        self.classes: dict[str, tuple[set, list]] = {}
        self.refs: dict[tuple | None, set] = {None: set()}
        self._cls: str | None = None  # the class whose body is being read
        self._bound: tuple[str, str] | None = None  # (self name, its class)
        self._owner: tuple | None = None

    def visit_ClassDef(self, node):
        for part in node.decorator_list + node.bases + node.keywords:
            self.visit(part)
        if self.defines:
            methods = {n.name for n in node.body if isinstance(n, _DEFS)}
            bases = [b.id for b in node.bases if isinstance(b, ast.Name)]
            self.classes[node.name] = (methods, bases)
        outer, self._cls = self._cls, node.name
        for stmt in node.body:
            self.visit(stmt)
        self._cls = outer

    def visit_FunctionDef(self, node):
        for part in node.decorator_list + node.args.defaults + node.args.kw_defaults:
            if part is not None:
                self.visit(part)
        key = (self.file, self._cls or "", node.name)
        if self.defines:
            self.defs[key] = node.lineno
        saved = self._cls, self._bound, self._owner
        if self._cls is not None:  # a method binds its first argument
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            args = node.args.posonlyargs + node.args.args
            self._bound = None if static or not args else (args[0].arg, self._cls)
        self._cls = None  # a def nested in it is no method, but keeps the binding
        self._owner = key if self.defines and not _is_dunder(node.name) else None
        self.refs.setdefault(self._owner, set())
        for stmt in node.body:
            self.visit(stmt)
        self._cls, self._bound, self._owner = saved

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Name(self, node):
        self.refs[self._owner].add(("name", node.id))

    def visit_Attribute(self, node):
        value = node.value
        if isinstance(value, ast.Name):
            bound = self._bound is not None and value.id == self._bound[0]
            self.refs[self._owner].add(("attr", self._bound[1] if bound else value.id, node.attr))
        else:
            self.refs[self._owner].add(("name", node.attr))
        self.visit(value)

    def visit_Import(self, node):
        for alias in node.names:
            for part in alias.name.split("."):
                self.refs[self._owner].add(("name", part))

    visit_ImportFrom = visit_Import


def _unreachable(trees: list[tuple[str, ast.Module, bool]]) -> list[str]:
    """``trees`` holds (file, tree, defines); definitions are taken only
    from trees that define, roots from every tree."""
    defs, classes, refs = {}, {}, {}
    for file, tree, defines in trees:
        scan = _Scan(file, defines)
        scan.visit(tree)
        defs.update(scan.defs)
        for name, info in scan.classes.items():
            classes[name] = None if name in classes else info  # ambiguous: None
        for owner, found in scan.refs.items():
            refs.setdefault(owner, set()).update(found)
    by_name: dict[str, set] = {}
    by_owner: dict[tuple[str, str], tuple] = {}
    for key in defs:
        by_name.setdefault(key[2], set()).add(key)
        if key[1]:
            by_owner[key[1], key[2]] = key

    def resolve(ref) -> set:
        if ref[0] == "attr":
            _, cls, attr = ref
            seen = set()
            while cls in classes and classes[cls] is not None and cls not in seen:
                seen.add(cls)
                methods, bases = classes[cls]
                if attr in methods:
                    return {by_owner[cls, attr]}
                cls = bases[0] if len(bases) == 1 else None
        return by_name.get(ref[-1], set())

    live: set = set()
    frontier = [key for ref in refs[None] for key in resolve(ref)]
    while frontier:
        key = frontier.pop()
        if key not in live:
            live.add(key)
            frontier.extend(k for ref in refs.get(key, ()) for k in resolve(ref))
    return [
        f"{file}:{line} {'.'.join(filter(None, (cls, name)))}"
        for (file, cls, name), line in sorted(defs.items(), key=lambda kv: (kv[0][0], kv[1]))
        if (file, cls, name) not in live and not _is_dunder(name)
    ]


def test_every_function_is_referenced():
    modules = set(MODULES)
    trees = [
        (path.name, ast.parse(path.read_text(), filename=str(path)), path in modules)
        for root in SEARCHED
        for path in sorted(root.rglob("*.py"))
    ]
    unreachable = _unreachable(trees)
    assert not unreachable, f"functions no root reaches: {unreachable}"


def test_detects_an_unreferenced_function():
    src = ast.parse(
        "import os.path\n"
        "from math import comb\n"
        "class A:\n"
        "    def __init__(self):\n"
        "        self.used()\n"
        "        self.step()\n"
        "    def used(self):\n"
        "        return comb(2, 1)\n"
        "    def dead(self):\n"
        "        pass\n"
        "    def step(self):\n"
        "        return A.make()\n"
        "    @staticmethod\n"
        "    def make():\n"
        "        pass\n"
        "class B:\n"
        "    def step(self):\n"  # shares its name with the live A.step
        "        pass\n"
        "    @staticmethod\n"
        "    def make():\n"  # shares its name with A.make, called as A.make
        "        pass\n"
        "class M:\n"
        "    def bands(self):\n"  # called only by the unreachable is_diagonal
        "        pass\n"
        "    def is_diagonal(self):\n"
        "        return not self.bands()\n"
        "def helper():\n"
        "    return os.path\n"
        "def imported():\n"
        "    pass\n"
        "def recursive(n):\n"
        "    return recursive(n - 1)\n"
        "helper()\n"
    )
    test = ast.parse("from pkg import imported\nA()\n")
    found = _unreachable([("mod.py", src, True), ("test.py", test, False)])
    assert [line.split(" ")[1] for line in found] == [
        "A.dead", "B.step", "B.make", "M.bands", "M.is_diagonal", "recursive"
    ]
