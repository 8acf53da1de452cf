"""The package imports only what ``setup.py`` declares: NumPy.

Each entry module is imported in a fresh interpreter of its own, so
modules that the test session or another entry module has already loaded
cannot hide an undeclared dependency, and a failure names the module that
pulls it in.
"""

import os
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
