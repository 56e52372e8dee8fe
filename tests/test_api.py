import importlib

import pytest


@pytest.mark.parametrize("module", ["tuples", "polymat", "realize", "pencils",
                                    "structured", "recover", "verify"])
def test_public_names_resolve(module):
    mod = importlib.import_module(f"rosepencil.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
