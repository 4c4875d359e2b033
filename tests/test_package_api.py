"""The package namespace republishes every public name of its library modules."""

import importlib

import pytest

import phasegeo

MODULES = ("bundle", "linalg", "observables", "sampling", "uncertainty", "verify")


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_is_the_modules_own_object(module):
    home = importlib.import_module(f"phasegeo.{module}")
    for name in home.__all__:
        assert getattr(phasegeo, name) is getattr(home, name), name
