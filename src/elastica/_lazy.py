"""Module globals that import their module on first use.

The package's scipy users bind their names through `on_first_use`, so that
importing the package loads numpy and no scipy module: `elliptic` binds five
`scipy.special` ufuncs, and `flow` binds LAPACK's `dgtsv` from the compiled
module `scipy.linalg._flapack`.

The first use loads the named module alone (`_load_alone`): it runs the
`__init__` of the top-level package (`scipy`, which sets up what its compiled
modules need) and of no package in between, since `scipy.linalg`'s would
import 75 more scipy modules to hand over one LAPACK routine.  A package in
between that is loaded later does not hold the module as an attribute, which
no scipy code reads.  One lock serialises the loads, so threads that reach a
first use together load the module once and none sees it half executed.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
import threading

_LOADING = threading.RLock()


def _find_spec(name: str, path):
    """The spec the import system's finders give `name` on `path`."""
    for finder in sys.meta_path:
        find_spec = getattr(finder, "find_spec", None)
        spec = find_spec(name, path) if find_spec is not None else None
        if spec is not None:
            return spec
    raise ModuleNotFoundError(f"No module named {name!r}", name=name)


def _load_alone(name: str):
    """The module `name`, loaded without the packages between it and its
    top-level package: the top-level package is imported, each package in
    between is only located, and the module itself is executed from its own
    file and registered in `sys.modules` (and on its parent, if that is
    loaded) as an import would register it.  A module already in
    `sys.modules` is returned as it is."""
    top, *parts = name.split(".")
    with _LOADING:
        package = importlib.import_module(top)
        if name in sys.modules:
            return sys.modules[name]
        path = package.__path__
        for i in range(1, len(parts)):
            path = _find_spec(".".join([top, *parts[:i]]), path).submodule_search_locations
        spec = _find_spec(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        try:
            spec.loader.exec_module(module)
        except BaseException:
            del sys.modules[name]
            raise
        parent, _, leaf = name.rpartition(".")
        if parent in sys.modules:
            setattr(sys.modules[parent], leaf, module)
        return module


def on_first_use(namespace: dict, module: str, *names: str) -> tuple:
    """Stubs for `names`, to be bound in `namespace` (a module's globals).

    The first call of any stub loads `module` (`_load_alone`), rebinds every
    one of `names` in `namespace` to the module's own object and forwards the
    call.  From then on the globals are those objects, so a call costs what
    it costs with a top-level `from module import ...`: no import statement
    and no accessor runs per call."""

    def load() -> None:
        loaded = _load_alone(module)
        for name in names:
            namespace[name] = getattr(loaded, name)

    def stub(name: str):
        def first_call(*args, **kwargs):
            load()
            return namespace[name](*args, **kwargs)
        first_call.__name__ = first_call.__qualname__ = name
        return first_call

    return tuple(stub(name) for name in names)
