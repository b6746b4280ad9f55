"""The package's settable values and exported names, counted so that a new
knob or a new public name shows in review.

A settable value is anything a caller can set (ROADMAP, "settable values"):
a (subcommand, flag) pair of the command line, a parameter of a public
module-level function, a dataclass field, or a defaulted parameter of a
private function.  ``oracles.py``, the slow reference implementations, is not
counted; methods are not counted.
"""

import argparse
import dataclasses
import importlib
import inspect
import pkgutil

import treesample
from treesample import cli

SETTABLE_VALUES = 213
EXPORTED_NAMES = 72


def _modules():
    for info in pkgutil.iter_modules(treesample.__path__):
        if info.name != "oracles":
            yield importlib.import_module(f"treesample.{info.name}")


def _own(module, predicate):
    """(name, object) pairs defined in ``module``; the name is the one it is
    bound to, as a function may carry another ``__name__`` for its messages."""
    return [(name, obj) for name, obj in inspect.getmembers(module, predicate)
            if obj.__module__ == module.__name__]


def count_flags() -> int:
    """(subcommand, flag) pairs, ``-h`` not counted."""
    parser = cli.build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sum(1 for p in sub.choices.values() for a in p._actions
               if a.option_strings and not isinstance(a, argparse._HelpAction))


def count_parameters() -> tuple[int, int]:
    """Parameters of public functions, and defaulted ones of private functions."""
    public = private = 0
    for module in _modules():
        for name, fn in _own(module, inspect.isfunction):
            params = inspect.signature(fn).parameters.values()
            if name.startswith("_"):
                private += sum(p.default is not p.empty for p in params)
            else:
                public += len(params)
    return public, private


def count_fields() -> int:
    return sum(len(dataclasses.fields(cls)) for module in _modules()
               for _, cls in _own(module, inspect.isclass) if dataclasses.is_dataclass(cls))


def count_exports() -> int:
    """Public names ``treesample`` exports, modules not counted."""
    return sum(not name.startswith("_") and not inspect.ismodule(obj)
               for name, obj in vars(treesample).items())


def test_settable_values_are_counted():
    flags, (params, private) = count_flags(), count_parameters()
    fields = count_fields()
    total = flags + params + fields + private
    assert total == SETTABLE_VALUES, (
        f"{total} settable values = {flags} flags + {params} parameters + "
        f"{fields} fields + {private} defaulted private parameters, expected "
        f"{SETTABLE_VALUES}. If the change is meant, update SETTABLE_VALUES here "
        f"and ROADMAP's settable-values line together.")


def test_exported_names_are_counted():
    exported = count_exports()
    assert exported == EXPORTED_NAMES, (
        f"treesample exports {exported} public names, expected {EXPORTED_NAMES}. "
        f"If the change is meant, update EXPORTED_NAMES here and ROADMAP's size "
        f"line together.")
