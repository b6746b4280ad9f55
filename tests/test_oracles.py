"""The reference routines live in one module that production code never imports."""

import ast
from pathlib import Path

import treesample
import treesample.oracles

PACKAGE = Path(treesample.__file__).parent

MOVED = ("MatchingResult", "min_cost_matching", "brute_force_matching",
         "_BRUTE_LIMIT", "RootedTree", "blank_tree", "computation_tree",
         "_padded_matching", "_subtree_blank_cost", "_subtree_distance",
         "tree_distance", "tree_blank_distance", "tmd_naive",
         "tree_norm_naive", "_NAIVE_NODE_LIMIT", "_NAIVE_DEPTH_LIMIT",
         "brute_force_medoids", "brute_force_select", "tree_norm_decision",
         "_BRUTE_SUBSET_LIMIT", "tree_norm_batch")


def _production_modules():
    return [p for p in sorted(PACKAGE.glob("*.py"))
            if p.name not in ("__init__.py", "oracles.py")]


def _defined_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def test_production_modules_neither_import_nor_define_oracles():
    modules = _production_modules()
    assert len(modules) >= 10
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            assert not any("oracles" in name.split(".") for name in names), (
                f"{path.name}:{node.lineno} imports the oracle module")
        clash = set(_defined_names(tree)) & set(MOVED)
        assert not clash, f"{path.name} defines oracle names {sorted(clash)}"


def test_public_oracle_names_are_the_oracle_module_objects():
    for name in MOVED:
        assert hasattr(treesample.oracles, name), name
        if not name.startswith("_"):
            assert getattr(treesample, name) is getattr(treesample.oracles, name), name
