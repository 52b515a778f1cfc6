"""Every third-party package ``src/repro`` imports is a declared dependency.

A clean environment gets only what ``pyproject.toml`` declares, so an
import of anything else (at module level or inside a function) fails
there even when this machine happens to have the package installed.
"""

import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"


def third_party_imports() -> dict[str, set[str]]:
    """Top-level name of every absolute import outside the stdlib and
    ``repro``, mapped to the files that import it."""
    found: dict[str, set[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(top, set()).add(path.relative_to(ROOT).as_posix())
    return found


def declared_dependencies() -> set[str]:
    """Distribution names in ``[project].dependencies``, version specs cut."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    return {re.split(r"[\s<>=!~;\[]", spec, maxsplit=1)[0].lower()
            for spec in project["dependencies"]}


def test_scan_sees_the_known_imports():
    assert {"numpy", "scipy", "networkx"} <= set(third_party_imports())


def test_every_third_party_import_is_declared():
    # The import names used here equal their distribution names.
    declared = declared_dependencies()
    undeclared = {name: sorted(files) for name, files in third_party_imports().items()
                  if name.lower() not in declared}
    assert not undeclared, f"imported but not in pyproject.toml: {undeclared}"
