"""The reference routines live in one module that production code never
imports, and no module imports a name it never uses."""

import ast
from pathlib import Path

import treesample
import treesample.oracles

PACKAGE = Path(treesample.__file__).parent
REPO = Path(__file__).resolve().parent.parent

MOVED = ("MatchingResult", "brute_force_matching",
         "_BRUTE_LIMIT", "RootedTree", "blank_tree", "computation_tree",
         "_padded_matching", "_subtree_blank_cost", "_subtree_distance",
         "tree_distance", "tree_blank_distance", "tmd_naive",
         "tree_norm_naive", "_NAIVE_NODE_LIMIT", "_NAIVE_DEPTH_LIMIT",
         "brute_force_medoids", "brute_force_select", "tree_norm_decision",
         "_BRUTE_SUBSET_LIMIT", "abs_clipped_loss", "matching_value",
         "_check_square", "ScaleLimitError")


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


def test_the_package_exports_no_oracle_but_tmd_naive():
    # perfbench/workloads.py imports tmd_naive from treesample; no other
    # reference routine, and not the error only they raise, is exported
    assert treesample.tmd_naive is treesample.oracles.tmd_naive
    for name in MOVED:
        assert hasattr(treesample.oracles, name), name
        assert name == "tmd_naive" or not hasattr(treesample, name), name


def _unused_imports(tree) -> list[str]:
    """Names bound by an import in ``tree`` that no ``Name`` node reads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    return sorted(bound - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)})


def test_no_module_imports_a_name_it_never_uses():
    # a package __init__ imports names to export them
    paths = [p for d in ("src/treesample", "tests", "demos")
             for p in sorted((REPO / d).glob("*.py")) if p.name != "__init__.py"]
    assert len(paths) >= 30
    unused = {p.relative_to(REPO).as_posix(): names for p in paths
              if (names := _unused_imports(ast.parse(p.read_text(encoding="utf-8"))))}
    assert unused == {}
