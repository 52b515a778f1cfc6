"""Every third-party package ``src/repro`` imports is a declared dependency.

A clean environment gets only what ``pyproject.toml`` declares, so an
import of anything else (at module level or inside a function) fails
there even when this machine happens to have the package installed.
"""

import ast
import os
import re
import subprocess
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
    found = third_party_imports()
    # networkx, SciPy and numpy are test oracles only; the runtime
    # computes the poset width, solves ρ and draws its task-sets in-repo.
    assert "networkx" not in found
    assert "scipy" not in found
    assert "numpy" not in found


def test_every_third_party_import_is_declared():
    # The import names used here equal their distribution names.
    declared = declared_dependencies()
    undeclared = {name: sorted(files) for name, files in third_party_imports().items()
                  if name.lower() not in declared}
    assert not undeclared, f"imported but not in pyproject.toml: {undeclared}"


#: A tiny figure2 sweep and the split-sweep example job, as CLI argv.
RUNS = (
    ["figure2", "--m", "2", "--tasksets", "2"],
    ["sweep-run", "--job", "examples/jobs/splitsweep-small.json"],
)


def run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def run_with_unimportable(name: str) -> None:
    # ``sys.modules[name] = None`` makes every import of it fail, as in an
    # environment that has only the declared dependencies.
    code = ("import sys\n"
            f"sys.modules[{name!r}] = None\n"
            "from repro.cli import main\n"
            f"for argv in {RUNS!r}:\n"
            "    assert main(argv) == 0, argv\n")
    done = run_python(code)
    assert done.returncode == 0, done.stderr


def run_checking_unloaded(name: str) -> None:
    code = ("import sys\n"
            "from repro.cli import main\n"
            f"assert {name!r} not in sys.modules, 'import repro.cli'\n"
            f"for argv in {RUNS!r}:\n"
            "    assert main(argv) == 0, argv\n"
            f"    assert {name!r} not in sys.modules, argv\n")
    done = run_python(code)
    assert done.returncode == 0, done.stderr


def test_runs_with_scipy_unimportable():
    run_with_unimportable("scipy")


def test_scipy_stays_unloaded():
    run_checking_unloaded("scipy")


def test_runs_with_numpy_unimportable():
    run_with_unimportable("numpy")


def test_numpy_stays_unloaded():
    run_checking_unloaded("numpy")
