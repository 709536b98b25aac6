import os
import subprocess
import sys
from pathlib import Path

import goldencalc


def test_every_exported_name_resolves():
    assert [name for name in goldencalc.__all__ if not hasattr(goldencalc, name)] == []
    assert len(set(goldencalc.__all__)) == len(goldencalc.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from goldencalc import *", namespace)
    assert set(goldencalc.__all__) <= namespace.keys()


def test_importing_the_cli_loads_no_stdlib_module_that_no_command_needs():
    # -S skips site, whose .pth hooks may import these on the package's behalf
    src = Path(goldencalc.__file__).resolve().parent.parent
    unneeded = ["dataclasses", "inspect", "typing", "random", "importlib.resources"]
    code = f"import sys, goldencalc.cli; print([m for m in {unneeded!r} if m in sys.modules])"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_the_readme_library_example_runs():
    # so a removed or renamed public name cannot leave the example broken
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    assert "bf_polynomial" in code
    exec(compile(code, f"{readme}:Library example", "exec"), {})
