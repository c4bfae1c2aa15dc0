"""Every name a ``repro`` module lists in ``__all__`` resolves."""

from __future__ import annotations

import contextlib
import importlib
import pkgutil

import repro


def test_every_exported_name_resolves():
    modules = [repro.__name__] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if not info.name.endswith(".__main__")
    ]
    stale = []
    for name in modules:
        module = importlib.import_module(name)
        for exported in getattr(module, "__all__", ()):
            if not hasattr(module, exported):
                # A package may export a submodule it does not import itself.
                with contextlib.suppress(ModuleNotFoundError):
                    importlib.import_module(f"{name}.{exported}")
            if not hasattr(module, exported):
                stale.append(f"{name}.{exported}")
    assert len(modules) > 1
    assert not stale, f"__all__ entries that do not resolve: {stale}"
