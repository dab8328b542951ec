"""Every public function, class, method, property and module-level constant of
the package has a caller or reader.

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


def _references(node: ast.AST, imports: bool = False, strings: bool = False,
                names: bool = True) -> Counter:
    """Names a node refers to: attributes, and bare names unless ``names`` is
    unset, plus imported names when ``imports`` is set and identifier-like
    strings when ``strings`` is."""
    refs = Counter()
    for sub in ast.walk(node):
        if names and isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif imports and isinstance(sub, ast.alias):
            refs[sub.name.rpartition(".")[2]] += 1
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            refs[sub.value] += 1
    return refs


def _assigned_names(node: ast.AST) -> list[str]:
    """The names a module-level assignment binds, tuple targets included."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [sub.id for target in targets for sub in ast.walk(target)
            if isinstance(sub, ast.Name)]


def _public_definitions(trees: dict[Path, ast.Module]):
    """(file, qualified name, node) of each public module-level function, class
    and assigned name (its node the assignment), and of each public method and
    property of those classes."""
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                for name in _assigned_names(node):
                    if not name.startswith("_"):
                        yield path, name, node
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                yield path, node.name, node
                if isinstance(node, ast.ClassDef):
                    for member in node.body:
                        if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                            yield path, f"{node.name}.{member.name}", member


def test_every_public_name_is_used_outside_unit_tests():
    trees = {path: _parse(path) for path in sorted(SRC.glob("*.py"))}
    acceptance = _parse(ROOT / "tests" / "test_acceptance.py")
    benchmark = [_parse(path) for path in sorted((ROOT / "perfbench").rglob("*.py"))]
    # a method or property is reached as an attribute: a bare name of the same
    # spelling (a local variable, say) does not use it
    uses = {}
    for names in (True, False):
        # an import inside src/ is no use: the name must be called or read somewhere
        in_src = sum((_references(tree, names=names) for tree in trees.values()), Counter())
        outside = _references(acceptance, imports=True, names=names)
        for tree in benchmark:
            outside += _references(tree, imports=True, strings=True, names=names)
        uses[names] = in_src, outside

    unused = []
    for path, qualified, node in _public_definitions(trees):
        names = "." not in qualified
        in_src, outside = uses[names]
        name = qualified.rpartition(".")[2]
        own = _references(node, names=names)[name]
        if in_src[name] - own <= 0 and not outside[name]:
            unused.append(f"{path.name}:{node.lineno} {qualified}")
    assert not unused, "referenced only by unit tests, or nowhere: " + ", ".join(unused)


def _defaulted_parameters(node: ast.FunctionDef, method: bool):
    """(position or None, name) of each parameter of ``node`` that has a default;
    the position counts the call's own arguments, past a method's self or cls."""
    positional = node.args.posonlyargs + node.args.args
    skip = method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                              for d in node.decorator_list)
    for k, arg in enumerate(positional[len(positional) - len(node.args.defaults):],
                            start=len(positional) - len(node.args.defaults)):
        yield k - skip, arg.arg
    for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether ``call`` may give the parameter ``name`` at ``position`` a value."""
    if any(kw.arg in (name, None) for kw in call.keywords):  # None: a **mapping
        return True
    return position is not None and (len(call.args) > position or any(
        isinstance(arg, ast.Starred) for arg in call.args))


def test_every_defaulted_parameter_is_passed_outside_unit_tests():
    # a parameter that every caller leaves at its default is a constant dressed as an
    # option; calls are matched by the function's name, so a same-named call counts too
    trees = {path: _parse(path) for path in sorted(SRC.glob("*.py"))}
    callers = [*trees.values(), _parse(ROOT / "tests" / "test_acceptance.py"),
               *(_parse(path) for path in sorted((ROOT / "perfbench").rglob("*.py")))]
    calls = {}
    for tree in callers:
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Call):
                func = sub.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(sub)

    unpassed = []
    for path, qualified, node in _public_definitions(trees):
        if not isinstance(node, ast.FunctionDef):
            continue
        for position, name in _defaulted_parameters(node, "." in qualified):
            if not any(_passes(call, position, name) for call in calls.get(node.name, ())):
                unpassed.append(f"{path.name}:{node.lineno} {qualified}({name})")
    assert not unpassed, "defaulted parameters no caller passes: " + ", ".join(unpassed)
