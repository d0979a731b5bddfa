"""Public surface: every exported name resolves, and the package exports a
fixed number of names, so a removal or an addition is a deliberate change."""

import importlib
import pkgutil
import types

import critlab

MODULES = [
    importlib.import_module(f"critlab.{m.name}") for m in pkgutil.iter_modules(critlab.__path__)
]


def test_module_all_names_resolve():
    for mod in MODULES:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ names missing {name!r}"


def test_package_exports_66_names():
    names = [
        n for n, v in vars(critlab).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    ]
    assert len(names) == 66, sorted(names)
