"""The rules of ``errors.py``.  One overflow rule: every exact sum and every
refusal of a value that is not finite goes through ``errors.exact_sums`` and
``errors.require_finite``.  One integer rule: every integer argument, seeds
included, goes through ``errors._require_int``, and every generator is made
by ``errors._seeded_rng``.  One real rule: every real argument goes through
``errors._require_real``.  One choice rule: every argument that names one of
a fixed set of strings goes through ``errors._require_choice``."""

import ast
import json
import math
import pickle
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import treesample
from treesample import (ConfigError, DistanceMatrix, Graph, NumericalOverflowError, TmdConfig,
                        WeightFn, build_candidates, clustered_dataset, const_weights,
                        empty_graph, feature_norms, finite_erm_sweep, identity_gin, kmedoids,
                        nearest_medoid, parse_weights, random_gin, random_graph, random_pairs,
                        random_selection, save_jsonl, select_subsets, stability_sweep,
                        subsample_dataset, subsample_sweep, wl_pseudometric_matrix)
from treesample.oracles import brute_force_medoids, brute_force_select, computation_tree
from treesample.cli import main
from treesample.errors import exact_sums, require_finite
from treesample.gnn import GinLayer
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


def test_integer_messages_and_generators_live_in_the_gates():
    # one spelling of the integer rule: its messages appear only in the gate
    # and in the data gates that raise DatasetError; oracles.py counts too
    messages, generators = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node, scope in _scoped_nodes(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and re.search(r"must be (an integer|>= )", node.value):
                messages.add((path.name, scope))
            elif isinstance(node, ast.Attribute) and node.attr == "default_rng":
                generators.add((path.name, scope))
    assert generators == {("errors.py", "_seeded_rng")}
    assert messages == {("errors.py", "_require_int"), ("graphs.py", "__init__"),
                        ("graphs.py", "load_tu"), ("tmd.py", "__post_init__")}


def test_real_messages_and_numbers_live_in_the_gate():
    # one spelling of the real rule, and one module that reads numbers.Real;
    # oracles.py counts too
    messages, imports = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node, scope in _scoped_nodes(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and "must be a finite real number" in node.value:
                messages.add((path.name, scope))
            elif isinstance(node, ast.Import) and "numbers" in [a.name for a in node.names] \
                    or isinstance(node, ast.ImportFrom) and node.module == "numbers":
                imports.add(path.name)
    assert messages == {("errors.py", "_require_real")}
    assert imports == {"errors.py"}


def test_choice_messages_live_in_the_gate():
    # one spelling of the choice rule; oracles.py counts too, and argparse's
    # choices= writes its own message
    messages = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node, scope in _scoped_nodes(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and "must be one of" in node.value:
                messages.add((path.name, scope))
    assert messages == {("errors.py", "_require_choice")}


_DS = synthetic_dataset(6, 0)
_DM = DistanceMatrix(6, "test", 1, "", np.arange(1.0, 16.0))
_PATH = Graph(5, [(i, i + 1) for i in range(4)], np.ones((5, 1)))
_CFG = TmdConfig(2)

# (entry point, a call passing the value under test, the argument's name, a good value)
_INT_ARGS = [
    ("TmdConfig-depth", lambda v: TmdConfig(v), "depth", 2),
    ("random_gin-seed", lambda v: random_gin(v, 3, 4, 2), "seed", 1),
    ("random_gin-feature_dim", lambda v: random_gin(0, v, 4, 2), "feature_dim", 3),
    ("random_gin-hidden", lambda v: random_gin(0, 3, v, 2), "hidden", 4),
    ("random_gin-depth", lambda v: random_gin(0, 3, 4, v), "depth", 2),
    ("stability_sweep", lambda v: stability_sweep(random_gin(0, 3, 4, 2), _DS.graphs,
                                                  [(0, v)], [_CFG]), "pair index", 1),
    ("kmedoids", lambda v: kmedoids(_DM, v), "k", 2),
    ("random_selection-n", lambda v: random_selection(v, 2, 0), "n", 6),
    ("random_selection-k", lambda v: random_selection(6, v, 0, d=_DM), "k", 2),
    ("random_selection-seed", lambda v: random_selection(6, 2, v), "seed", 1),
    ("nearest_medoid", lambda v: nearest_medoid(_DM, [0, v]), "medoid index", 3),
    ("wl_pseudometric_matrix", lambda v: wl_pseudometric_matrix(_DS, v), "iterations", 1),
    ("build_candidates-k", lambda v: build_candidates(_PATH, v, 0), "k", 2),
    ("build_candidates-seed", lambda v: build_candidates(_PATH, 2, v), "seed", 1),
    ("subsample_dataset-seed", lambda v: subsample_dataset(_DS, 0.5, _CFG, seed=v),
     "seed", 1),
    ("subsample_sweep-seed", lambda v: subsample_sweep(_DS, 0.5, [_CFG], seed=v), "seed", 1),
    ("clustered_dataset-n_graphs", lambda v: clustered_dataset(v, 2, 0), "n_graphs", 4),
    ("clustered_dataset-families", lambda v: clustered_dataset(4, v, 0), "families", 2),
    ("clustered_dataset-seed", lambda v: clustered_dataset(4, 2, v), "seed", 1),
    ("synthetic_dataset-n_graphs", lambda v: synthetic_dataset(v, 0), "n_graphs", 4),
    ("synthetic_dataset-seed", lambda v: synthetic_dataset(4, v), "seed", 1),
    ("random_pairs-count", lambda v: random_pairs(_DS, v, 0), "count", 3),
    ("random_pairs-seed", lambda v: random_pairs(_DS, 3, v), "seed", 1),
    ("empty_graph", lambda v: empty_graph(v), "feature_dim", 2),
    ("random_graph-n", lambda v: random_graph(np.random.default_rng(0), v, 0.5), "n", 4),
    ("random_graph-feature_dim",
     lambda v: random_graph(np.random.default_rng(0), 4, 0.5, feature_dim=v), "feature_dim", 3),
    ("brute_force_medoids", lambda v: brute_force_medoids(_DM, v), "k", 2),
    ("select_subsets-graph_id", lambda v: select_subsets(_PATH, {(0, 1): "x"}, [_CFG], v),
     "graph_id", 2),
    ("brute_force_select-k", lambda v: brute_force_select(_PATH, v, _CFG), "k", 2),
    ("brute_force_select-graph_id", lambda v: brute_force_select(_PATH, 2, _CFG, v),
     "graph_id", 2),
    ("computation_tree-depth", lambda v: computation_tree(_PATH, 0, v), "depth", 3),
    ("DistanceMatrix.value", lambda v: _DM.value(0, v), "pair index", 2),
    ("TmdConfig.level_weight", lambda v: TmdConfig(3).level_weight(v), "weight level", 1),
]


@pytest.mark.parametrize("call, name, good", [case[1:] for case in _INT_ARGS],
                         ids=[case[0] for case in _INT_ARGS])
def test_every_integer_argument_goes_through_one_gate(call, name, good):
    # each of these raised a bare TypeError or ValueError, or ran with True as 1
    for bad in (True, 2.5, "3", None, -1):
        with pytest.raises(ConfigError) as info:
            call(bad)
        assert re.fullmatch(rf"{re.escape(name)} must be .*, got {re.escape(repr(bad))}",
                            str(info.value)), str(info.value)
    # a numpy integer is an integer, and gives what the Python int gives
    assert pickle.dumps(call(np.int64(good))) == pickle.dumps(call(good))


@pytest.mark.parametrize("call, message", [
    (lambda: DistanceMatrix(0, "t", 1, "", []).value(0, 0), "no pair index is valid, got 0"),
    (lambda: TmdConfig(1).level_weight(1), "no weight level is valid, got 1"),
    (lambda: random_selection(0, 1, 0), "no k is valid, got 1"),
], ids=["DistanceMatrix.value", "TmdConfig.level_weight", "random_selection"])
def test_an_empty_integer_range_says_no_value_is_valid(call, message):
    # these printed the empty range as 0..-1 or 1..0
    with pytest.raises(ConfigError) as info:
        call()
    assert str(info.value) == message


# (entry point, a call passing the value under test, the argument's name, a good value)
_REAL_ARGS = [
    ("const_weights", lambda v: const_weights(v), "weight", 0.5),
    ("WeightFn-table", lambda v: WeightFn("table", (1.0, v)), "weight", 0.5),
    ("random_gin-eta", lambda v: random_gin(0, 3, 4, 2, eta=v), "eta", 0.5),
    ("identity_gin-eta", lambda v: identity_gin(v), "eta", 0.5),
    ("finite_erm_sweep-epsilon",
     lambda v: finite_erm_sweep(_DS, [random_gin(0, 3, 4, 2)], [(v, list(_DS))]),
     "epsilon", 0.25),
    ("subsample_dataset-frac", lambda v: subsample_dataset(_DS, v, _CFG), "frac", 0.5),
    ("subsample_sweep-frac", lambda v: subsample_sweep(_DS, v, [_CFG]), "frac", 0.5),
    ("random_graph-p", lambda v: random_graph(np.random.default_rng(0), 5, v), "p", 0.5),
]


@pytest.mark.parametrize("call, name, good", [case[1:] for case in _REAL_ARGS],
                         ids=[case[0] for case in _REAL_ARGS])
def test_every_real_argument_goes_through_one_gate(call, name, good):
    # eta, epsilon and p took some of these, or raised a bare OverflowError
    # or TypeError; p=nan drew an edgeless graph
    for bad in (True, "0.5", None, math.nan, math.inf, 10 ** 400):
        with pytest.raises(ConfigError) as info:
            call(bad)
        assert str(info.value) == f"{name} must be a finite real number, got {bad!r}"
    # a numpy float or a Fraction is a real number, and gives what the float gives
    for same in (np.float64(good), Fraction(good)):
        assert pickle.dumps(call(same)) == pickle.dumps(call(good))


# (entry point, a call passing the value under test, the argument's name, its
# choices, a good value)
_CHOICE_ARGS = [
    ("TmdConfig-feature_norm", lambda v: TmdConfig(2, feature_norm=v), "feature_norm",
     ("l1", "l2"), "l1"),
    ("feature_norms", lambda v: feature_norms(np.array([[3.0, -4.0]]), v), "norm",
     ("l1", "l2"), "l1"),
    ("WeightFn-kind", lambda v: WeightFn(v, (0.5,)), "weight kind", ("const", "table"),
     "table"),
    ("GinLayer-activation", lambda v: GinLayer(np.eye(2), np.zeros(2), v), "activation",
     ("relu", "identity"), "identity"),
]


@pytest.mark.parametrize("call, name, choices, good", [case[1:] for case in _CHOICE_ARGS],
                         ids=[case[0] for case in _CHOICE_ARGS])
def test_every_choice_argument_goes_through_one_gate(call, name, choices, good):
    # feature_norms computed l2 for each of these, and the others named
    # them in four spellings, one of which left the value out
    for bad in ("L1", None, ["l1"], "tanh"):
        with pytest.raises(ConfigError) as info:
            call(bad)
        assert str(info.value) == f"{name} must be one of {choices}, got {bad!r}"
    # a numpy string is a string, and gives what the str gives
    assert pickle.dumps(call(np.str_(good))) == pickle.dumps(call(good))


# (entry point, a call passing the value under test, the refusal before the
# value, a good value)
_KIND_ARGS = [
    ("parse_weights", lambda v: parse_weights(v), "weight spec must be a string",
     "const:0.5"),
]


@pytest.mark.parametrize("call, refusal, good", [case[1:] for case in _KIND_ARGS],
                         ids=[case[0] for case in _KIND_ARGS])
def test_an_argument_of_the_wrong_kind_is_refused_by_name(call, refusal, good):
    # these raised a bare TypeError or AttributeError
    for bad in (None, 3, 2.5):
        with pytest.raises(ConfigError) as info:
            call(bad)
        assert str(info.value) == f"{refusal}, got {bad!r}"
    call(good)


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
