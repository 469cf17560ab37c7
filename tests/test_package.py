"""The package root exports nothing, and each module imports on its own."""
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import parkcp

SRC = Path(parkcp.__file__).resolve().parents[1]


def _python(code: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(parkcp.__path__)))
def test_each_module_imports_on_its_own(name):
    done = _python(f"import parkcp.{name}")
    assert done.returncode == 0, done.stderr


def test_the_package_root_exports_nothing():
    done = _python("import parkcp; print(sorted(n for n in vars(parkcp) if n[0] != '_'))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
