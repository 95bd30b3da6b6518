"""The package's surface and layering, read off the source's AST.

It ships no public name without a caller: every name in a module's
`__all__` is used in `src/corrmatch` or `perfbench/` beyond its own
definition and its `__all__` entry, or the README lists it among the paper
features that wait for a caller.  And `harness` is the one layer that draws
replicates and writes CSV: no other module builds a `CsvReport` or calls
`parallel_map`, and the compute modules draw no random stream of their own."""

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
