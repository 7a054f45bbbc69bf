"""The module graph and the memo policy of geodd, read from its source with
`ast` (nothing is imported): every import of a geodd module sits at module
top, the graph of those imports has no cycle, the solve path never reaches
the audit or the plant generator, and `verify` reads only the subspace
layer. Each derived value is one `@_kept` function: only `subspaces`
touches a memo, only the record constructors and the memo's freeze helper
make arrays read-only, and only a record that freezes its own arrays tells
the memo so."""

import ast
import importlib.util
from pathlib import Path

import pytest

PACKAGE = Path(importlib.util.find_spec("geodd").origin).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
SOLVE_PATH = ("subspaces", "geometry", "lattice", "synthesis", "verify", "exact", "cli")


def _geodd_imports(node) -> set:
    """The geodd modules one import statement names: `from . import exact`,
    `from .errors import X` and `import geodd.exact` alike."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 0 and node.module != "geodd" and not (
                node.module or "").startswith("geodd."):
            return set()
        base = (node.module or "").removeprefix("geodd").lstrip(".")
        if base:
            return {base.split(".")[0]}
        return {alias.name for alias in node.names if alias.name in MODULES}
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("geodd.")}
    return set()


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def _top_imports(module: str) -> set:
    return set().union(*(_geodd_imports(node) for node in _tree(module).body))


GRAPH = {module: _top_imports(module) for module in MODULES}


@pytest.mark.parametrize("module", MODULES)
def test_no_geodd_import_below_module_top(module):
    tree = _tree(module)
    top = set(map(id, tree.body))
    nested = [f"{module}.py:{node.lineno}" for node in ast.walk(tree)
              if _geodd_imports(node) and id(node) not in top]
    assert nested == []


def test_module_graph_is_acyclic():
    # depth-first search; a module met again while on the stack closes a cycle
    state, stack = {}, []

    def visit(module):
        state[module] = "open"
        stack.append(module)
        for dep in sorted(GRAPH[module]):
            if state.get(dep) == "open":
                cycle = stack[stack.index(dep):] + [dep]
                pytest.fail("import cycle: " + " -> ".join(cycle))
            if dep not in state:
                visit(dep)
        stack.pop()
        state[module] = "done"

    for module in MODULES:
        if module not in state:
            visit(module)


@pytest.mark.parametrize("module", SOLVE_PATH)
def test_solve_path_never_reaches_audit_or_generator(module):
    reached, todo = set(), [module]
    while todo:
        for dep in GRAPH[todo.pop()] - reached:
            reached.add(dep)
            todo.append(dep)
    assert not reached & {"audit", "generate"}


def test_verify_reads_only_errors_and_subspaces():
    assert GRAPH["verify"] == {"errors", "subspaces"}


# The records that freeze the arrays they adopt, and the memo's freeze
# helper, which freezes what every `@_kept` function returns.
FREEZERS = {"subspaces.Subspace._freeze", "geometry.Quadruple.__post_init__",
            "geometry.Quadruple._checked", "lattice.PlantSystem._adopt",
            "synthesis.Compensator._adopt", "subspaces._frozen"}

# The class attribute by which a record tells the memo's freeze helper that
# it froze its arrays when it was built, so that the helper skips it.
MARKER = "_frozen_by_construction"


def _named(node) -> str | None:
    """The name a Name or Attribute node reads, or None for other nodes."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _scoped(module: str):
    """(qualified name of the enclosing class or function, node) for every
    node of the module."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{scope}.{child.name}"
            yield inner, child
            yield from walk(child, inner)

    yield from walk(_tree(module), module)


def test_only_subspaces_touches_a_memo():
    touching = [f"{scope}:{node.lineno}" for module in MODULES if module != "subspaces"
                for scope, node in _scoped(module)
                if _named(node) == "_memo"
                or isinstance(node, ast.Constant) and node.value == "_memo"]
    assert touching == []


def test_no_second_cache():
    found = [f"{scope}:{node.lineno}" for module in MODULES
             for scope, node in _scoped(module)
             if _named(node) == "cached_property"
             or isinstance(node, ast.alias) and node.name == "cached_property"]
    assert found == []


def test_arrays_are_frozen_only_by_records_and_the_memo():
    freezing = {scope for module in MODULES for scope, node in _scoped(module)
                if isinstance(node, ast.Attribute)
                and (node.attr == "setflags"
                     or node.attr == "writeable" and _named(node.value) == "flags")}
    assert freezing == FREEZERS


def test_kept_is_only_a_decorator():
    decorators, used = set(), []
    for module in MODULES:
        nodes = list(_scoped(module))
        decorators |= {id(d) for _, node in nodes
                       if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                       for d in node.decorator_list}
        used += [(f"{scope}:{node.lineno}", node) for scope, node in nodes
                 if _named(node) == "_kept"]
    assert used
    assert [where for where, node in used if id(node) not in decorators] == []


def test_only_a_record_that_freezes_itself_says_so():
    # a record that declares the marker but leaves an array writable would
    # hand that array, writable, to every reader of the memo
    declared, targets, named = set(), set(), []
    for module in MODULES:
        for scope, node in _scoped(module):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if (isinstance(stmt, ast.Assign)
                            and [_named(t) for t in stmt.targets] == [MARKER]):
                        declared.add(scope)
                        targets.add(id(stmt.targets[0]))
            if _named(node) == MARKER or isinstance(node, ast.Constant) and node.value == MARKER:
                named.append((module, f"{scope}:{node.lineno}", node))
    assert declared == {name.rsplit(".", 1)[0] for name in FREEZERS - {"subspaces._frozen"}}
    # elsewhere the marker is only declared; `subspaces._frozen` reads it
    assert [where for module, where, node in named
            if module != "subspaces" and id(node) not in targets] == []
