"""Every import is declared: the package's in ``setup.py``, the rest in
``requirements.txt``.

The package imports only NumPy.  Each entry module is imported in a fresh
interpreter of its own, so modules that the test session or another entry
module has already loaded cannot hide an undeclared dependency, and a
failure names the module that pulls it in.

The tests, benchmarks and perfbench import only the standard library,
this repository's own packages and what ``requirements.txt`` lists, which
is all CI's test job installs.  Their sources are read, not imported.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: Modules a program, the daemon, a fleet replay or the runner starts from.
ENTRY_MODULES = ("repro", "repro.service", "repro.fleet", "repro.analysis.runner")

#: Prints the top-level names of the modules the import loaded.
PROBE = """
import sys
before = set(sys.modules)
import {module}
print("\\n".join(sorted({{name.split(".")[0] for name in set(sys.modules) - before}})))
"""


@pytest.mark.skipif(
    sys.version_info < (3, 10), reason="sys.stdlib_module_names is new in 3.10"
)
@pytest.mark.parametrize("module", ENTRY_MODULES)
def test_entry_modules_load_only_numpy_and_the_standard_library(module):
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    probe = subprocess.run(
        [sys.executable, "-c", PROBE.format(module=module)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert probe.returncode == 0, probe.stderr
    allowed = {"numpy", "repro", *sys.stdlib_module_names}
    # Dunder names (``__mp_main__``) are aliases of the main module.
    loaded = [name for name in probe.stdout.split() if not name.startswith("__")]
    assert sorted(set(loaded) - allowed) == []


#: The repository's checkout.
ROOT = Path(__file__).resolve().parents[1]

#: Directories of code that runs under the test job, scanned for imports.
SCANNED_DIRS = ("tests", "benchmarks", "perfbench")

#: This repository's top-level packages.
LOCAL_PACKAGES = {"repro", "tests", "benchmarks", "perfbench"}


def requirement_modules(path):
    """Module names of the distributions ``path`` lists.

    A distribution is taken to install the module of its own name,
    lower-cased with ``-`` read as ``_`` (``pytest-benchmark`` installs
    ``pytest_benchmark``).
    """
    names = set()
    for line in path.read_text().splitlines():
        requirement = line.split("#", 1)[0].strip()
        if requirement:
            name = re.match(r"[A-Za-z0-9._-]+", requirement).group(0)
            names.add(name.lower().replace("-", "_"))
    return names


def imported_modules(path):
    """Top-level names of the absolute imports anywhere in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.skipif(
    sys.version_info < (3, 10), reason="sys.stdlib_module_names is new in 3.10"
)
def test_test_and_benchmark_imports_are_in_requirements():
    allowed = (
        requirement_modules(ROOT / "requirements.txt")
        | LOCAL_PACKAGES
        | set(sys.stdlib_module_names)
    )
    undeclared = {}
    for directory in SCANNED_DIRS:
        files = sorted((ROOT / directory).rglob("*.py"))
        assert files, f"no Python files under {directory}/"
        for path in files:
            for module in set(imported_modules(path)) - allowed:
                undeclared.setdefault(module, []).append(str(path.relative_to(ROOT)))
    assert undeclared == {}
