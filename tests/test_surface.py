"""The package's settable values and exported names, counted so that a new
knob or a new public name shows in review.

A settable value is anything a caller can set (ROADMAP, "settable values"):
a (subcommand, flag) pair of the command line, a parameter of a public
module-level function, a dataclass field, or a defaulted parameter of a
private function.  ``oracles.py``, the slow reference implementations, is not
counted; methods are not counted.  The lines of the package's source files,
``oracles.py`` again not counted, are the third size ROADMAP tracks.
"""

import argparse
import dataclasses
import importlib
import inspect
import itertools
import pkgutil
import re
from pathlib import Path

import treesample
from treesample import cli

SETTABLE_VALUES = 173
SRC_LINES = 2812
# the names themselves, not only their count, so a swap of one for another shows
EXPORTED = (
    "CacheMismatchError", "ConfigError", "Dataset", "DatasetError", "DistanceMatrix",
    "ErmReport", "GinLayer", "GinModel", "Graph", "NodeSubsample",
    "NumericalOverflowError", "Selection", "StabilityReport", "TmdConfig", "WeightFn",
    "build_candidates", "clustered_dataset", "const_weights", "dataset_fingerprint",
    "empty_graph", "feature_distance_matrix", "feature_norms", "finite_erm_sweep",
    "gin_forward", "identity_gin", "induced_subgraph", "kmedoids", "layer_lipschitz",
    "load_jsonl", "load_or_compute", "load_tu", "make_dataset", "nearest_medoid",
    "pairwise_matrix", "parse_weights", "random_gin", "random_graph", "random_pairs",
    "random_selection", "read_matrix", "save_jsonl", "select_subsets",
    "stability_sweep", "subsample_dataset", "subsample_sweep", "subset_tree_norm_sweep",
    "synthetic_dataset", "tmd", "tmd_naive", "tree_norm", "wl_counterexample_pair",
    "wl_pseudometric_matrix", "write_matrix",
)


def _modules():
    for info in pkgutil.iter_modules(treesample.__path__):
        if info.name != "oracles":
            yield importlib.import_module(f"treesample.{info.name}")


def _own(module, predicate):
    """(name, object) pairs defined in ``module``; the name is the one it is
    bound to, as a function may carry another ``__name__`` for its messages."""
    return [(name, obj) for name, obj in inspect.getmembers(module, predicate)
            if obj.__module__ == module.__name__]


def _subparsers() -> dict:
    parser = cli.build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def count_flags() -> int:
    """(subcommand, flag) pairs, ``-h`` not counted."""
    return sum(1 for p in _subparsers().values() for a in p._actions
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


def exported_names() -> list[str]:
    """Public names ``treesample`` exports, sorted, modules not counted."""
    return sorted(name for name, obj in vars(treesample).items()
                  if not name.startswith("_") and not inspect.ismodule(obj))


def count_src_lines() -> int:
    """Lines of ``src/treesample/*.py`` without ``oracles.py``."""
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in Path(treesample.__file__).parent.glob("*.py")
               if path.name != "oracles.py")


def count_settable_values() -> tuple[int, str]:
    """The settable values, and a line that names their four terms."""
    flags, (params, private), fields = count_flags(), count_parameters(), count_fields()
    total = flags + params + fields + private
    return total, (f"{total} settable values = {flags} flags + {params} parameters + "
                   f"{fields} fields + {private} defaulted private parameters")


def test_settable_values_are_counted():
    total, terms = count_settable_values()
    assert total == SETTABLE_VALUES, (
        f"{terms}, expected {SETTABLE_VALUES}. If the change is meant, update "
        f"SETTABLE_VALUES here and ROADMAP's settable-values line together.")


def test_exported_names_are_counted():
    assert exported_names() == list(EXPORTED), (
        "If the change is meant, update EXPORTED here and ROADMAP's size line together.")


def test_src_lines_are_counted():
    lines = count_src_lines()
    assert lines == SRC_LINES, (
        f"src/treesample/*.py without oracles.py holds {lines} lines, expected "
        f"{SRC_LINES}. If the change is meant, update SRC_LINES here and ROADMAP's "
        f"size line together.")


def test_readme_flag_table_matches_the_parser():
    # README's "subcommand | its own flags" table names each subcommand's
    # flags beyond the six every subcommand takes; a flag added or removed
    # without its row fails here
    common = {"--dataset", "--depth", "--weights", "--norm", "--out", "--json"}
    parsed = {name: {flag for a in p._actions if not isinstance(a, argparse._HelpAction)
                     for flag in a.option_strings} - common
              for name, p in _subparsers().items()}
    lines = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    [head] = [i for i, line in enumerate(lines)
              if re.fullmatch(r"\|\s*subcommand\s*\|\s*its own flags\s*\|", line)]
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[head + 2:])
    documented = {}
    for row in rows:
        name, flags = row.strip("|").split("|")
        documented[name.strip().strip("`")] = set(re.findall(r"`(--[\w-]+)", flags))
    assert documented == parsed


# the three sizes, then the exported names, so a log shows which came or went:
# PYTHONPATH=src python tests/test_surface.py
if __name__ == "__main__":
    print("src/ lines without oracles.py:", count_src_lines())
    print(count_settable_values()[1])
    print("exported names:", len(exported_names()))
    print(" ".join(exported_names()))
