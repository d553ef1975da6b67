"""The package's lazily loaded names and submodules."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import evidential_weight as ew

SRC = Path(ew.__file__).parents[1]
README = SRC.parent / "README.md"


def run_python(*args: str) -> subprocess.CompletedProcess:
    # a fresh interpreter, so that nothing this suite imported is loaded yet
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )


def test_every_exported_name_is_its_home_modules_object():
    for name in ew.__all__:
        value = getattr(ew, name)
        if name == "__version__":
            assert value == "0.1.0"
            continue
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("evidential_weight.")
        assert getattr(home, name) is value


def test_dir_lists_the_exported_names_and_submodules():
    listed = set(dir(ew))
    assert set(ew.__all__) <= listed
    assert {"categorical", "cli", "mc", "interval_opinion"} <= listed


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ew.no_such_name
    assert not hasattr(ew, "student_t_logpdf")  # a submodule's name, not exported
    with pytest.raises(ImportError):
        from evidential_weight import no_such_name  # noqa: F401


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from evidential_weight import *", namespace)
    assert set(ew.__all__) <= set(namespace)
    assert namespace["Scenario"] is ew.Scenario


def test_readme_library_example_runs():
    example = re.search(r"## Library example\s+```python\n(.*?)```", README.read_text(), re.S)[1]
    proc = run_python("-c", example)
    assert proc.returncode == 0, proc.stderr
    lr, se = map(float, proc.stdout.split())
    assert lr == pytest.approx(358.0, rel=0.01)
    assert 0 < se < 5


def test_module_run_emits_no_runpy_warning(tmp_path):
    # the package must not import ``cli`` before runpy executes it as __main__
    proc = run_python("-W", "error::RuntimeWarning", "-m", "evidential_weight.cli",
                      "coin", "--seq", "HT", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert (tmp_path / "result.json").is_file()
