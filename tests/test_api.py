"""The package namespace: each public name declared once and loaded from its home module on first use."""

import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import fibcheb
from fibcheb import connection

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def fresh(probe, **env):
    """The stdout words of ``probe`` run by a fresh interpreter on this checkout's package."""
    env = {**os.environ, "PYTHONPATH": str(SRC), **env}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout.split()


def test_import_loads_no_submodule():
    assert fresh("import sys, fibcheb; print(*(n for n in sys.modules if n.startswith('fibcheb.')))") == []


def test_each_public_name_is_its_home_modules_object():
    assert fibcheb.__all__ == sorted(set(fibcheb.__all__))
    for name in fibcheb.__all__:
        home = import_module(f"fibcheb.{fibcheb._HOME[name]}")
        value = getattr(fibcheb, name)
        assert value is getattr(home, name), name
        assert value.__module__ == home.__name__, name  # defined there, not re-exported
    assert set(fibcheb.__all__) <= set(dir(fibcheb))


def test_each_public_name_is_declared_once():
    # one table and no second list (an import list or a TYPE_CHECKING mirror) to keep in step
    source = (SRC / "fibcheb" / "__init__.py").read_text()
    for name in fibcheb.__all__:
        assert len(re.findall(rf"\b{name}\b", source)) == 1, name


def test_lookup_reads_the_home_module_each_time(monkeypatch):
    # a replaced attribute (the benchmark tracer's wrapper, say) is what fibcheb.<name> returns
    def wrapped(*args):
        return args

    monkeypatch.setattr(connection, "expand", wrapped)
    assert fibcheb.expand is wrapped
    monkeypatch.undo()
    assert fibcheb.expand is connection.expand


@pytest.mark.parametrize("name", ["no_such_name", "fibonacci_poly_power_form"])
def test_unknown_name_raises_the_standard_attribute_error(name):
    with pytest.raises(AttributeError, match=rf"^module 'fibcheb' has no attribute '{name}'$"):
        getattr(fibcheb, name)
    assert not hasattr(fibcheb, name)


def test_submodule_and_public_name_import_together_from_cold():
    # an unknown name falls through to the submodule import; a star import binds all of __all__
    probe = (
        "from fibcheb import runner, Direction; import fibcheb.runner, fibcheb.connection as c; "
        "print(runner is fibcheb.runner, Direction is c.Direction); "
        "namespace = {}; exec('from fibcheb import *', namespace); "
        "print(sorted(set(namespace) - {'__builtins__'}) == fibcheb.__all__)"
    )
    assert fresh(probe, PYTHONWARNINGS="error") == ["True", "True", "True"]


def test_cli_import_loads_every_module_the_tracer_wraps():
    # The benchmark tracer (benchmarks/layers.py) runs after ``import fibcheb.cli`` and finds
    # each module it wraps in sys.modules, so cli must go on loading all of them at import,
    # until the tracer imports each wrapped module by name.  Every wrapped name must resolve too.
    probe = (
        "import sys, fibcheb.cli; loaded = set(sys.modules); "
        f"sys.path.insert(0, {str(ROOT / 'benchmarks')!r}); import layers; "
        "targets = [t for ts in (*layers.SPANS.values(), *layers.CACHED.values()) for t in ts]; "
        "modules = {m for m, _ in targets}; "
        "[getattr(*layers._resolve(sys.modules['fibcheb.' + m], path)) "
        " for m, path in targets if 'fibcheb.' + m in loaded]; "
        "print(len(modules), *sorted({'fibcheb.' + m for m in modules} - loaded))"
    )
    assert fresh(probe) == ["10"]
