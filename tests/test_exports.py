"""Every exported name resolves, so a deleted function cannot stay listed."""

import importlib
import pkgutil

import pytest

import arealrisk

MODULES = sorted(f"arealrisk.{m.name}" for m in pkgutil.iter_modules(arealrisk.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(name)
    names = getattr(module, "__all__", ())
    assert [n for n in names if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(names) <= set(namespace)


def test_package_names_are_exported_by_their_modules():
    # the package re-exports public names; each must be in its module's __all__
    public = [n for n in vars(arealrisk) if not n.startswith("_")]
    unlisted = [
        n for n in public
        if not isinstance(getattr(arealrisk, n), type(arealrisk))
        and n not in importlib.import_module(getattr(arealrisk, n).__module__).__all__
    ]
    assert unlisted == []
