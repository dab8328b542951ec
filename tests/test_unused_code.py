"""Every public module-level function and class of the package has a caller.

A name counts as used when code under src/ refers to it outside its own
definition, or when the acceptance suite or the benchmark under perfbench/
refers to it (the benchmark's tracer names the functions it wraps as
strings). Unit tests alone do not keep a name alive: code that only they
call is a second implementation of something the pipeline already does.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "wafersense"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _references(node: ast.AST, imports: bool = False, strings: bool = False) -> Counter:
    """Names a node refers to: bare names and attributes, plus imported names
    when ``imports`` is set and identifier-like strings when ``strings`` is."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif imports and isinstance(sub, ast.alias):
            refs[sub.name.rpartition(".")[2]] += 1
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            refs[sub.value] += 1
    return refs


def _public_definitions(trees: dict[Path, ast.Module]):
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                yield path, node


def test_every_public_name_is_used_outside_unit_tests():
    trees = {path: _parse(path) for path in sorted(SRC.glob("*.py"))}
    # an import inside src/ is no use: the name must be called or read somewhere
    in_src = sum((_references(tree) for tree in trees.values()), Counter())
    outside = _references(_parse(ROOT / "tests" / "test_acceptance.py"), imports=True)
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        outside += _references(_parse(path), imports=True, strings=True)

    unused = []
    for path, node in _public_definitions(trees):
        own = _references(node)[node.name]
        if in_src[node.name] - own <= 0 and not outside[node.name]:
            unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, "referenced only by unit tests, or nowhere: " + ", ".join(unused)
