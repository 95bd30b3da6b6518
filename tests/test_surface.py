"""The package's surface and layering, read off the source's AST.

It ships no public name without a caller: every name in a module's
`__all__` is used in `src/corrmatch` or `perfbench/` beyond its own
definition and its `__all__` entry, or the README lists it among the paper
features that wait for a caller.  `harness` is the one layer that draws
replicates and writes CSV: no other module builds a `CsvReport` or calls
`parallel_map`, and the compute modules draw no random stream of their own.
And the integer rule is written once, in `graphs.check_int` (with the ids'
own copy in `graphs._int_ids` and `rng.stream`'s below `graphs`), and so is
the real rule, in `graphs.check_real` (with the sweep's alpha, a config
error, apart).  No function calls itself by name: every enumeration keeps
its own stack, so a deep search never meets the interpreter's recursion
limit."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WAITING_HEADING = "## Paper features that wait for a caller"


def _all_node(tree: ast.Module) -> ast.Assign | None:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return node
    return None


def _uses(tree: ast.Module) -> Counter:
    """Identifiers read, imported or named in a string (perfbench's tracer
    wraps bindings by name) outside the module's `__all__`; a definition's
    own name is not a use."""
    listed = _all_node(tree)
    skip = {id(node) for node in ast.walk(listed)} if listed else set()
    found = Counter()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def _waiting_names() -> set[str]:
    """The names in backticks in the bullets of the README's waiting list,
    module prefixes dropped."""
    text = (ROOT / "README.md").read_text()
    section = text.split(WAITING_HEADING, 1)[1].split("\n## ", 1)[0]
    bullets = section.split("\n- ", 1)[1]
    return set(re.findall(r"`(?:\w+\.)*(\w+)`", bullets))


def test_every_public_name_has_a_caller_or_waits_in_the_readme():
    trees = {
        path: ast.parse(path.read_text())
        for path in sorted((ROOT / "src" / "corrmatch").glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    }
    used = sum((_uses(tree) for tree in trees.values()), Counter())
    public = {
        name: path.stem
        for path, tree in trees.items()
        if path.parent.name == "corrmatch" and (listed := _all_node(tree))
        for name in ast.literal_eval(listed.value)
    }
    uncalled = {name for name in public if not used[name]}
    waiting = _waiting_names()
    assert not uncalled - waiting, f"public with no caller: {sorted(f'{public[n]}.{n}' for n in uncalled - waiting)}"
    # the list stays exact: a name that gained a caller or left the package leaves it
    assert waiting <= uncalled, f"listed but called or gone: {sorted(waiting - uncalled)}"


# Modules that only compute: their randomness, if any, is a generator
# handed in by a caller.
COMPUTE_ONLY = ("density", "orbits", "moments", "admissibility")


def _layering_breaches(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    breaches = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and path.stem != "harness":
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in ("CsvReport", "parallel_map"):
                breaches.append(f"{path.stem}:{node.lineno} calls {name}")
        if path.stem in COMPUTE_ONLY:
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            else:
                continue
            if any(m.split(".")[-1] == "rng" for m in modules):
                breaches.append(f"{path.stem}:{node.lineno} imports from rng")
    return breaches


def test_only_harness_draws_replicates_and_writes_csv():
    breaches = [b for path in sorted((ROOT / "src" / "corrmatch").glob("*.py")) for b in _layering_breaches(path)]
    assert not breaches, breaches


def _scopes(path: Path, hit) -> set[str]:
    """module.function of each node of the module for which hit(node) holds."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if hit(child):
                found.add(f"{path.stem}.{scope}")
            visit(child, scope)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def _names_integral(node) -> bool:
    name = getattr(node, "attr", None) or getattr(node, "id", None) or getattr(node, "name", None)
    return isinstance(node, (ast.Attribute, ast.Name, ast.alias)) and name == "Integral"


def _says_must_lie_in(node) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, str) and "must lie in" in node.value


# The only places that may test numbers.Integral: the integer rule itself,
# the vertex-id arrays, and rng.stream, which graphs imports.
INTEGER_RULE = {"graphs.check_int", "graphs._int_ids", "rng.stream"}
# The only places that may word a range "must lie in": the real rule
# itself, and the sweep's alpha, which a config refuses as a ConfigError.
REAL_RULE = {"graphs.check_real", "harness._sweep_alpha"}


def _package_scopes(hit) -> set[str]:
    return {use for path in sorted((ROOT / "src" / "corrmatch").glob("*.py")) for use in _scopes(path, hit)}


def test_the_integer_rule_is_written_once():
    uses = _package_scopes(_names_integral)
    assert uses <= INTEGER_RULE, f"numbers.Integral outside graphs.check_int: {sorted(uses - INTEGER_RULE)}"


def test_the_real_rule_is_written_once():
    uses = _package_scopes(_says_must_lie_in)
    assert uses <= REAL_RULE, f"a range worded outside graphs.check_real: {sorted(uses - REAL_RULE)}"


def _self_calls(path: Path) -> set[str]:
    """module.function of each function, nested ones included, whose body
    calls it by its bare name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
            isinstance(call, ast.Call) and getattr(call.func, "id", None) == node.name for call in ast.walk(node)
        ):
            found.add(f"{path.stem}.{node.name}")
    return found


def test_no_function_recurses():
    calls = {name for path in sorted((ROOT / "src" / "corrmatch").glob("*.py")) for name in _self_calls(path)}
    assert not calls, f"functions that call themselves: {sorted(calls)}"
