"""Only host.py forks a process, ends one or reaps one. Every other module forks through
``host.forked``, which reaps its process however the caller's block ends and hands the
caller the process's own error."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "wafersense"
PROCESS_CALLS = ("fork", "_exit", "waitpid")


def _process_calls(path: Path) -> list[str]:
    """Each use of os.fork, os._exit and os.waitpid in ``path``, imports from os included."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr in PROCESS_CALLS \
                and isinstance(node.value, ast.Name) and node.value.id == "os":
            found.append(f"{path.name}:{node.lineno} os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"{path.name}:{node.lineno} from os import {alias.name}"
                      for alias in node.names if alias.name in PROCESS_CALLS + ("*",)]
    return found


def test_only_host_forks_ends_and_reaps_processes():
    host = _process_calls(SRC / "host.py")
    assert all(any(use.endswith(f"os.{name}") for use in host) for name in PROCESS_CALLS)
    elsewhere = [use for path in sorted(SRC.glob("*.py")) if path.name != "host.py"
                 for use in _process_calls(path)]
    assert not elsewhere, "fork, exit or reap outside host.forked: " + ", ".join(elsewhere)
