"""Module globals that import their module on first use.

The package's scipy users bind their names through `on_first_use`, so that
importing the package loads numpy and no scipy module: `elliptic` binds five
ufuncs from `scipy.special`'s compiled module `scipy.special._ufuncs`, and
`flow` binds LAPACK's `dgtsv` from the compiled module `scipy.linalg._flapack`.

The first use loads the named module alone (`_load_alone`): it runs the
`__init__` of the top-level package (`scipy`, which sets up what its compiled
modules need) and of no package in between, since `scipy.linalg`'s would
import 75 more scipy modules to hand over one LAPACK routine and
`scipy.special`'s 51 more to hand over five ufuncs.  `_ufuncs` imports its
sibling compiled modules as it executes, so while it does, each package in
between is a stand-in in `sys.modules`: a module made from the package's spec
and never executed, removed right after.  A package in between that is
imported later runs its `__init__` then, finds the module and its siblings in
`sys.modules` and so holds the same objects.  It holds the module as an
attribute only if its `__init__` imports it by name: `scipy.special`'s does,
`scipy.linalg`'s does not, and no scipy code reads `scipy.linalg._flapack` as
an attribute.

One lock serialises the loads, so threads that reach a first use together
load the module once and none sees it half executed.  A thread that imports
a package in between by itself, not through a first use, while such a load
runs (5–16 ms for `scipy.special._ufuncs` on a 2-vCPU VM) gets the stand-in,
which has none of the package's names.
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
    """The module `name`, loaded after its top-level package is imported and
    without running the `__init__` of any package in between.  While the
    module executes, each package in between that is not loaded yet is a
    stand-in in `sys.modules` (made from its spec, never executed), so that
    the siblings the module imports load alone too; the stand-ins are
    removed afterwards, whether the module loaded or raised.  The module is
    registered in `sys.modules` (and on its parent, if that is loaded) as an
    import would register it.  A module already in `sys.modules` is
    returned as it is."""
    top, *parts = name.split(".")
    with _LOADING:
        package = importlib.import_module(top)
        if name in sys.modules:
            return sys.modules[name]
        path, stand_ins = package.__path__, []
        try:
            for i in range(1, len(parts)):
                between = ".".join([top, *parts[:i]])
                spec = _find_spec(between, path)
                path = spec.submodule_search_locations
                if between not in sys.modules:
                    sys.modules[between] = importlib.util.module_from_spec(spec)
                    stand_ins.append(between)
            spec = _find_spec(name, path)
            module = sys.modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except BaseException:
            sys.modules.pop(name, None)
            raise
        finally:
            for between in stand_ins:
                sys.modules.pop(between, None)
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
