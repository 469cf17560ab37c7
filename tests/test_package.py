"""The package root exports nothing, each module imports on its own, and
every source file parses as the oldest Python that pyproject.toml allows."""
import ast
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


def test_every_source_file_parses_as_python_3_10():
    # requires-python >= 3.10, though the suite may run on a later Python only
    root = Path(__file__).resolve().parents[1]
    files = [p for d in ("src", "tests", "scripts") for p in sorted((root / d).rglob("*.py"))]
    assert files
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
