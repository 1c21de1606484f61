"""Parity of the lazily resolved package exports (PEP 562).

``repro.engine``, ``repro.corpus`` and ``repro.transform`` resolve their
``__all__`` names on first access; every name must still be the object
its defining submodule binds, exactly as the former eager imports made it.
"""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

SRC_DIR = str(Path(__file__).parent.parent / "src")

PACKAGES = ("repro.engine", "repro.corpus", "repro.transform")


@pytest.mark.parametrize("name", PACKAGES)
def test_exports_resolve_to_their_definitions(name):
    package = importlib.import_module(name)
    assert package.__all__
    for export in package.__all__:
        value = getattr(package, export)
        home = package._EXPORTS.get(export)
        if home is not None:
            submodule = importlib.import_module(f"{name}.{home}")
            assert value is getattr(submodule, export), export
        assert export in dir(package), export


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_name_raises_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no_such_export"):
        package.no_such_export
    with pytest.raises(ImportError):
        exec(f"from {name} import no_such_export", {})


def test_from_import_of_a_submodule_returns_the_submodule():
    from repro.engine import store

    assert isinstance(store, types.ModuleType)
    assert store is sys.modules["repro.engine.store"]
    assert store.DEFAULT_SHARDS is importlib.import_module(
        "repro.engine"
    ).DEFAULT_SHARDS


def test_export_outranks_its_same_named_submodule():
    # Importing the submodule ``repro.transform.vectorize`` first must
    # not shadow the exported function of the same name.
    script = (
        "import importlib, types\n"
        "import repro.transform.vectorize\n"
        "import repro.transform as t\n"
        "from repro.transform import vectorize\n"
        "assert not isinstance(t.vectorize, types.ModuleType), t.vectorize\n"
        "assert vectorize is t.vectorize is "
        "importlib.import_module('repro.transform.vectorize').vectorize\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC_DIR},
    )
    assert proc.returncode == 0, proc.stderr
