"""Every example in a ``src/repro`` docstring runs and prints what it shows."""

import doctest
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"


def modules_with_examples() -> list[str]:
    """Dotted names of the package's modules whose source holds ``>>>``."""
    names = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if ">>>" in path.read_text(encoding="utf-8"):
            parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
            names.append(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    return names


MODULES = modules_with_examples()


def test_the_scan_finds_the_examples():
    assert {"repro", "repro.core.analyzer", "repro.model.builder"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_examples_run(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.attempted, f"{name} has '>>>' but doctest found no example"
    assert not result.failed, f"{result.failed} of {result.attempted} examples failed"
