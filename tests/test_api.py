"""The public names the benchmark and the README use must stay importable.

perfbench drives rdiv from outside the package and traces functions by
module and name, and the README's library example imports from the
package. A name removed or renamed there would otherwise fail only a
benchmark run.
"""

import ast
import re
from pathlib import Path

import rdiv
import rdiv.cli

ROOT = Path(__file__).resolve().parents[1]


def workload_names() -> set[tuple[str, str]]:
    """Every (module, name) that perfbench/workloads.py reads off `rdiv`,
    `rdiv.rng` or `rdiv.cli`; module "" is the package itself."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id == "rdiv":
            names.add(("", node.attr))
        elif (isinstance(owner, ast.Attribute) and owner.attr in ("rng", "cli")
              and isinstance(owner.value, ast.Name) and owner.value.id == "rdiv"):
            names.add((owner.attr, node.attr))
    return names


def traced_names() -> set[tuple[str, str]]:
    """The (module, function) pair of every entry in perfbench/layers.py's TRACED."""
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [target.id for target in node.targets] == ["TRACED"])
    return {(entry.elts[0].value, entry.elts[1].value) for entry in table.elts}


def readme_example() -> ast.Module:
    """The README's "Library use" example, the block CI runs as it stands."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"^## Library use\n\n```python\n(.*?)^```$", text, re.M | re.S).group(1)
    return ast.parse(block)


def readme_names() -> set[tuple[str, str]]:
    """The names the README's "Library use" example imports from rdiv."""
    return {("", alias.name) for node in ast.walk(readme_example())
            if isinstance(node, ast.ImportFrom) and node.module == "rdiv"
            for alias in node.names}


def test_the_names_perfbench_and_the_readme_use_resolve():
    used = workload_names() | traced_names() | readme_names()
    # The walkers found what they look for.
    assert {("", "derive_subkey"), ("rng", "TAG_INIT"), ("cli", "main"),
            ("nn", "_keyed_order"), ("serialize", "save_params"),
            ("", "transfer_eval")} <= used
    missing = sorted(f"rdiv.{module}.{name}" if module else f"rdiv.{name}"
                     for module, name in used
                     if not hasattr(getattr(rdiv, module) if module else rdiv, name))
    assert missing == []


def test_the_readme_example_uses_every_name_it_imports():
    tree = readme_example()
    imported = {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported and sorted(imported - used) == []
