"""The package ships no public name without a caller: every name in a
module's `__all__` is used in `src/corrmatch` or `perfbench/` beyond its
own definition and its `__all__` entry, or the README lists it among the
paper features that wait for a caller."""

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
