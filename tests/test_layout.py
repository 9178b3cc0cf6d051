"""The package layout that keeps the five counting columns independent.

The source of ``tancone`` is read with ``ast`` into a graph of
references between module-level names: a function, class or assignment
references every module-level name, local or imported from a sibling
module, that its body names.  A class is one node, so everything named
in any of its methods is reached along with it.  Names are resolved by
spelling, so a local variable that shadows a module-level name adds an
edge; the graph can only over-approximate what runs.

  R1  every module-level function and class outside ``definitions`` is
      reachable from ``cli.main``: the CLI path holds only code that some
      command runs.
  R2  no module except ``definitions`` imports ``definitions``.
  R3  from each column's table entry no other column's entry is
      reachable, and none is reachable from the Groebner side
      (``reduced_groebner``, ``generator_set``, ``good_subset``).
  R4  the definitions reach none of the fast paths they are the oracles
      of: the three count tables, the one-sign support tables, the bitableau
      enumeration and its end reader, or the row memo.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tancone"
DEFINITIONS = "definitions"

ROOT = ("cli", "main")
COLUMN_ENTRIES = (
    ("verify", "_special_profiles"),
    ("verify", "_bitableau_profiles"),
    ("verify", "_standard_chains"),
    ("ring", "monomials_outside"),
)
GROEBNER_ENTRIES = (
    ("ring", "reduced_groebner"),
    ("patch", "generator_set"),
    ("patch", "good_subset"),
)
FAST_PATHS = (
    ("verify", "_special_profiles"),
    ("verify", "_bitableau_profiles"),
    ("verify", "_standard_chains"),
    ("verify", "_sign_supports"),
    ("brsk", "enumerate_on_starred"),
    ("brsk", "_row_fact"),
)


def _parse(src):
    return {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}


def _imports_of(tree):
    """Local name -> (module, name) for every relative ``from . import``."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                aliases[alias.asname or alias.name] = (node.module, alias.name)
    return aliases


def _definitions_of(tree):
    """Module-level name -> (kind, statement) of each def, class and
    assignment to a plain name."""
    out = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out[stmt.name] = ("function", stmt)
        elif isinstance(stmt, ast.ClassDef):
            out[stmt.name] = ("class", stmt)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    out[target.id] = ("other", stmt)
    return out


def build_graph(src=SRC):
    """(kinds, edges): the kind of every module-level (module, name), and
    the nodes each one references directly."""
    trees = _parse(src)
    imports = {module: _imports_of(tree) for module, tree in trees.items()}
    defined = {module: _definitions_of(tree) for module, tree in trees.items()}

    def resolve(module, name, seen=()):
        if name in defined[module]:
            return (module, name)
        target = imports[module].get(name)
        if target is None or target[0] not in defined or target in seen:
            return None
        return resolve(*target, seen + (target,))

    kinds, edges = {}, {}
    for module, names in defined.items():
        for name, (kind, stmt) in names.items():
            node = (module, name)
            kinds[node] = kind
            refs = set()
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Name):
                    target = resolve(module, sub.id)
                    if target is not None and target != node:
                        refs.add(target)
            edges[node] = refs
    return kinds, edges


def reachable(edges, starts):
    seen = set(starts)
    stack = list(starts)
    while stack:
        for nxt in edges.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def unreachable_from_cli(src=SRC):
    """R1's offenders: functions and classes outside ``definitions`` that
    ``cli.main`` cannot reach, dunder names exempt."""
    kinds, edges = build_graph(src)
    live = reachable(edges, [ROOT])
    return sorted(
        node
        for node, kind in kinds.items()
        if kind in ("function", "class")
        and node[0] != DEFINITIONS
        and not (node[1].startswith("__") and node[1].endswith("__"))
        and node not in live
    )


def importers_of_definitions(src=SRC):
    """R2's offenders: modules other than ``definitions`` importing it."""
    out = []
    for module, tree in _parse(src).items():
        if module == DEFINITIONS:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                relative = node.level >= 1 and (
                    node.module == DEFINITIONS or (node.module is None and DEFINITIONS in names)
                )
                absolute = node.module == f"tancone.{DEFINITIONS}" or (
                    node.module == "tancone" and DEFINITIONS in names
                )
                if relative or absolute:
                    out.append(module)
            elif isinstance(node, ast.Import):
                if any(a.name == f"tancone.{DEFINITIONS}" for a in node.names):
                    out.append(module)
    return sorted(set(out))


def crossed_columns(src=SRC):
    """R3's offenders: (start, column entry it reaches) pairs."""
    _, edges = build_graph(src)
    out = []
    for start in COLUMN_ENTRIES + GROEBNER_ENTRIES:
        others = set(COLUMN_ENTRIES) - {start}
        out += [(start, hit) for hit in sorted(reachable(edges, [start]) & others)]
    return out


def fast_paths_in_definitions(src=SRC):
    """R4's offenders: fast paths reachable from ``definitions``."""
    kinds, edges = build_graph(src)
    starts = [node for node in kinds if node[0] == DEFINITIONS]
    return sorted(reachable(edges, starts) & set(FAST_PATHS))


def test_every_entry_named_here_exists():
    kinds, _ = build_graph()
    named = {ROOT, *COLUMN_ENTRIES, *GROEBNER_ENTRIES, *FAST_PATHS}
    assert sorted(node for node in named if node not in kinds) == []
    assert any(module == DEFINITIONS for module, _ in kinds)


def test_cli_path_holds_only_code_the_cli_runs():
    assert unreachable_from_cli() == []


def test_only_definitions_imports_definitions():
    assert importers_of_definitions() == []


def test_no_column_reaches_another():
    assert crossed_columns() == []


def test_definitions_reach_no_fast_path():
    assert fast_paths_in_definitions() == []
