"""Module globals that import their module on first use.

The package's scipy users (`elliptic`'s `scipy.special` ufuncs and `flow`'s
LAPACK `dgtsv`) bind their names through `on_first_use`, so that importing
the package loads numpy and no scipy module.
"""

from __future__ import annotations

import importlib


def on_first_use(namespace: dict, module: str, *names: str) -> tuple:
    """Stubs for `names`, to be bound in `namespace` (a module's globals).

    The first call of any stub imports `module`, rebinds every one of
    `names` in `namespace` to the module's own object and forwards the call.
    From then on the globals are those objects, so a call costs what it
    costs with a top-level `from module import ...`: no import statement
    and no accessor runs per call."""

    def load() -> None:
        loaded = importlib.import_module(module)
        for name in names:
            namespace[name] = getattr(loaded, name)

    def stub(name: str):
        def first_call(*args, **kwargs):
            load()
            return namespace[name](*args, **kwargs)
        first_call.__name__ = first_call.__qualname__ = name
        return first_call

    return tuple(stub(name) for name in names)
