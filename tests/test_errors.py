"""One overflow rule: every exact sum and every refusal of a value that is
not finite goes through ``errors.exact_sums`` and ``errors.require_finite``."""

import ast
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import treesample
from treesample import NumericalOverflowError, save_jsonl
from treesample.cli import main
from treesample.errors import exact_sums, require_finite
from treesample.synth import synthetic_dataset

PACKAGE = Path(treesample.__file__).parent


def _production_modules():
    return [p for p in sorted(PACKAGE.glob("*.py"))
            if p.name not in ("__init__.py", "oracles.py")]


def _scoped_nodes(tree):
    """Every node of ``tree`` with the name of the innermost function around it."""
    stack = [(tree, "")]
    while stack:
        node, scope = stack.pop()
        yield node, scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def test_overflow_raises_and_exact_sums_live_in_errors_only():
    modules = _production_modules()
    assert len(modules) >= 10
    raises, fsums = [], []
    for path in modules:
        for node, scope in _scoped_nodes(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if _name(exc) == "NumericalOverflowError":
                    raises.append((path.name, scope))
            elif isinstance(node, (ast.Name, ast.Attribute)) and _name(node) == "fsum":
                fsums.append((path.name, scope))  # a call, or fsum passed to map
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                assert "fsum" not in [a.name for a in node.names], path.name
    assert {m for m, _ in raises} <= {"errors.py", "tmd.py"}
    assert [s for m, s in raises if m == "tmd.py"] == ["with_blanks"]
    assert fsums and {m for m, _ in fsums} == {"errors.py"}


def test_node_indices_are_checked_in_graphs_only():
    # a DatasetError whose message names a node outside the graph or one
    # that is not an integer; oracles.py counts too
    raises = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node, scope in _scoped_nodes(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) \
                    and _name(node.exc.func) == "DatasetError":
                text = " ".join(c.value for c in ast.walk(node.exc)
                                if isinstance(c, ast.Constant) and isinstance(c.value, str))
                if re.search(r"\bnode\b.*\b(outside|integer)\b", text):
                    raises.add((path.name, scope))
    assert ("graphs.py", "_node_array") in raises
    assert {m for m, _ in raises} == {"graphs.py"}, raises


def test_exact_sums_is_fsum_bit_for_bit():
    rng = np.random.default_rng(18)
    rows = [list(rng.standard_normal(int(rng.integers(0, 12))) * 10.0 ** rng.integers(-8, 9))
            for _ in range(300)]
    want = [math.fsum(row) for row in rows]
    assert exact_sums(rows, "x").tolist() == want
    assert exact_sums(iter(rows), "x").tolist() == want
    block = rng.uniform(0, 1e300, size=(50, 7))
    assert exact_sums(block, "x").tolist() == [math.fsum(r) for r in block.tolist()]
    for empty in ([], np.zeros((0, 3)), [[]]):
        assert exact_sums(empty, "x").tolist() == [0.0] * len(empty)


def test_exact_sums_refuses_an_overflowing_sum_of_finite_terms():
    with pytest.raises(NumericalOverflowError) as info:
        exact_sums([[1.0], [1e308, 1e308]], "the total of two huge values")
    assert isinstance(info.value.__cause__, OverflowError)
    message = str(info.value)
    assert message.startswith("the total of two huge values overflowed")
    assert "not finite" in message
    # a non-finite term is the caller's to report
    got = exact_sums([[math.inf, 1.0], [math.nan]], "x")
    assert got[0] == math.inf and math.isnan(got[1])


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_require_finite_refuses_inf_and_nan(bad):
    assert require_finite(2.5, "x") == 2.5
    values = np.array([0.0, 1e308])
    assert require_finite(values, "x") is values
    for value in (bad, np.float64(bad), np.array([1.0, bad]), np.array([[bad]])):
        with pytest.raises(NumericalOverflowError, match="^a thing overflowed.*not finite"):
            require_finite(value, "a thing")


def test_subsample_nodes_mean_is_the_erm_nodes_epsilon(tmp_path, capsys):
    # on this dataset a left-to-right float sum of the distances differs
    # from their exact sum in the last bit
    path = tmp_path / "ds.jsonl"
    save_jsonl(synthetic_dataset(6, 0), path)
    common = ["--dataset", str(path), "--frac", "0.5", "--json"]
    assert main(["subsample-nodes", "--weights", "const:1.0", *common]) == 0
    mean = json.loads(capsys.readouterr().out)["mean_tmd"]
    assert main(["verify", "--mode", "erm-nodes", "--hypotheses", "2", *common]) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert [r["epsilon"] for r in reports if r["preset"] == "const:1.0"] == [mean]
