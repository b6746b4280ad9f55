"""How much a broken distance can get past ``verify``.

``gnn._distances`` (``stability``) and ``cli.pairwise_matrix``
(``erm-graphs``) are wrapped to scale every distance or to drop the deepest
tree level, and ``cli.mean_tmd`` (``erm-nodes``) to scale epsilon; the exit
code of each mutated run is pinned.  The greedy-matching mutation replaces
both block solvers of ``treesample.tmd``, so every block of every level and
the top level take each real row's cheapest free column in turn.
``erm-nodes`` has no greedy row: its epsilon is a difference of tree norms,
which solve no matching.  A change that lets more mutations pass, or catches
more, shows up here as a table edit.
"""

import functools

import numpy as np
import pytest

import treesample.cli as cli_mod
import treesample.gnn as gnn_mod
from treesample import DistanceMatrix, TmdConfig
from treesample.cli import EXIT_OK, EXIT_PRESET, main
from treesample.node_select import mean_tmd
from treesample.tmd import _distances, pairwise_matrix

from helpers import TMD_MODULE


def _greedy(blocks, r):
    """A solver's (P, m, q) blocks valued by greedy matching: real row i,
    in order, takes its cheapest free column, and the blank row, if any, the
    q - r columns left over."""
    count, _, q = blocks.shape
    at = np.arange(count)
    free = np.ones((count, q), dtype=bool)
    total = np.zeros(count)
    for i in range(r):
        row = np.where(free, blocks[:, i], np.inf)
        col = row.argmin(axis=1)
        total += row[at, col]
        free[at, col] = False
    if r < q:
        total += np.where(free, blocks[:, r], 0.0).sum(axis=1)
    return total


GREEDY = [(TMD_MODULE, "_solve_injective", _greedy), (TMD_MODULE, "_solve_lsap", _greedy)]


@functools.cache
def _exact(graphs: tuple, pairs: tuple, cfg: TmdConfig) -> tuple:
    """The true distances, computed once per seed and preset for all mutations."""
    return tuple(_distances(list(graphs), pairs, cfg))


def _scaled(factor):
    return [(gnn_mod, "_distances", lambda graphs, pairs, cfg: [
        factor * d for d in _exact(tuple(graphs), tuple(pairs), cfg)])]


def _shallower(graphs, pairs, cfg):
    return _exact(tuple(graphs), tuple(pairs),
                  TmdConfig(cfg.depth - 1, cfg.weights, cfg.feature_norm))


# each mutation is a list of (module, name, replacement) patches
MUTATIONS = {"none": _scaled(1.0), "x0.5": _scaled(0.5), "x0.1": _scaled(0.1),
             "x0.01": _scaled(0.01),
             "deepest-level-dropped": [(gnn_mod, "_distances", _shallower)],
             "greedy-matching": GREEDY}

# (mutation, exit code at seed 0, exit code at seed 1): the loosest preset,
# const:4*eta, passes every mutation but x0.01 at seed 0.  Greedy matching
# only raises distances (on synthetic_dataset(60, s), s = 0 and 1, it moved
# 1,767 and 1,770 of 1,770, by up to 30%), so it only lowers the ratios
DETECTED = [("none", EXIT_OK, EXIT_OK),
            ("x0.5", EXIT_OK, EXIT_OK),
            ("x0.1", EXIT_OK, EXIT_OK),
            ("x0.01", EXIT_PRESET, EXIT_OK),
            ("deepest-level-dropped", EXIT_OK, EXIT_OK),
            ("greedy-matching", EXIT_OK, EXIT_OK)]


def _patch(monkeypatch, patches):
    for module, name, replacement in patches:
        monkeypatch.setattr(module, name, replacement)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("mutation, codes", [(m, codes) for m, *codes in DETECTED],
                         ids=[m for m, *_ in DETECTED])
def test_stability_check_detects_the_pinned_mutations(mutation, codes, seed, monkeypatch,
                                                      capsys):
    _patch(monkeypatch, MUTATIONS[mutation])
    code = main(["verify", "--mode", "stability", "--synthetic", "60", "--pairs", "50",
                 "--depth", "3", "--seed", str(seed), "--json"])
    assert code == codes[seed], capsys.readouterr().err


@functools.cache
def _exact_matrix(graphs: tuple, cfg: TmdConfig) -> DistanceMatrix:
    """The true matrix, computed once per seed and preset for all mutations."""
    return pairwise_matrix(list(graphs), cfg)


def _scaled_matrix(factor):
    def mutated(ds, cfg):
        dm = _exact_matrix(tuple(ds), cfg)
        return DistanceMatrix(dm.n, dm.metric, dm.depth, dm.weight_preset, factor * dm.values)
    return [(cli_mod, "pairwise_matrix", mutated)]


def _shallower_matrix(ds, cfg):
    return _exact_matrix(tuple(ds), TmdConfig(cfg.depth - 1, cfg.weights, cfg.feature_norm))


def _scaled_mean(factor):
    return [(cli_mod, "mean_tmd", lambda subs: factor * mean_tmd(subs))]


ERM_MUTATIONS = {
    "erm-graphs": (["--k", "8"],
                   {"none": _scaled_matrix(1.0), "x0.5": _scaled_matrix(0.5),
                    "x0.1": _scaled_matrix(0.1), "x0.01": _scaled_matrix(0.01),
                    "deepest-level-dropped": [(cli_mod, "pairwise_matrix", _shallower_matrix)],
                    "greedy-matching": GREEDY}),
    "erm-nodes": ([],
                  {"none": _scaled_mean(1.0), "x0.5": _scaled_mean(0.5),
                   "x0.1": _scaled_mean(0.1), "x0.01": _scaled_mean(0.01)}),
}

# (mode, mutation, exit code at seed 0, exit code at seed 1): the clipped
# loss keeps the full loss's excess far below 2*c*eps, so neither ERM check
# catches any mutation
ERM_DETECTED = [(mode, m, EXIT_OK, EXIT_OK)
                for mode, (_, table) in ERM_MUTATIONS.items() for m in table]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("mode, mutation, codes",
                         [(mode, m, codes) for mode, m, *codes in ERM_DETECTED],
                         ids=[f"{mode}-{m}" for mode, m, *_ in ERM_DETECTED])
def test_erm_checks_detect_the_pinned_mutations(mode, mutation, codes, seed, monkeypatch,
                                                capsys):
    flags, table = ERM_MUTATIONS[mode]
    _patch(monkeypatch, table[mutation])
    code = main(["verify", "--mode", mode, "--synthetic", "40", *flags, "--depth", "3",
                 "--seed", str(seed), "--json"])
    assert code == codes[seed], capsys.readouterr().err
