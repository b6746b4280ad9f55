"""How much a broken distance can get past ``verify``.

``gnn._distances`` (``stability``) and ``cli.pairwise_matrix``
(``erm-graphs``) are wrapped to scale every distance or to drop the deepest
tree level, and ``cli.mean_tmd`` (``erm-nodes``) to scale epsilon; the exit
code of each mutated run is pinned.  A change that lets more mutations pass,
or catches more, shows up here as a table edit.
"""

import functools

import pytest

import treesample.cli as cli_mod
import treesample.gnn as gnn_mod
from treesample import DistanceMatrix, TmdConfig
from treesample.cli import EXIT_OK, EXIT_PRESET, main
from treesample.node_select import mean_tmd
from treesample.tmd import _distances, pairwise_matrix


@functools.cache
def _exact(graphs: tuple, pairs: tuple, cfg: TmdConfig) -> tuple:
    """The true distances, computed once per seed and preset for all mutations."""
    return tuple(_distances(list(graphs), pairs, cfg))


def _scaled(factor):
    return lambda graphs, pairs, cfg: [factor * d for d in
                                       _exact(tuple(graphs), tuple(pairs), cfg)]


def _shallower(graphs, pairs, cfg):
    return _exact(tuple(graphs), tuple(pairs),
                  TmdConfig(cfg.depth - 1, cfg.weights, cfg.feature_norm))


MUTATIONS = {"none": _scaled(1.0), "x0.5": _scaled(0.5), "x0.1": _scaled(0.1),
             "x0.01": _scaled(0.01), "deepest-level-dropped": _shallower}

# (mutation, exit code at seed 0, exit code at seed 1): the loosest preset,
# const:4*eta, passes every mutation but x0.01 at seed 0
DETECTED = [("none", EXIT_OK, EXIT_OK),
            ("x0.5", EXIT_OK, EXIT_OK),
            ("x0.1", EXIT_OK, EXIT_OK),
            ("x0.01", EXIT_PRESET, EXIT_OK),
            ("deepest-level-dropped", EXIT_OK, EXIT_OK)]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("mutation, codes", [(m, codes) for m, *codes in DETECTED],
                         ids=[m for m, *_ in DETECTED])
def test_stability_check_detects_the_pinned_mutations(mutation, codes, seed, monkeypatch,
                                                      capsys):
    monkeypatch.setattr(gnn_mod, "_distances", MUTATIONS[mutation])
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
    return mutated


def _shallower_matrix(ds, cfg):
    return _exact_matrix(tuple(ds), TmdConfig(cfg.depth - 1, cfg.weights, cfg.feature_norm))


def _scaled_mean(factor):
    return lambda subs: factor * mean_tmd(subs)


ERM_MUTATIONS = {
    "erm-graphs": ("pairwise_matrix", ["--k", "8"],
                   {"none": _scaled_matrix(1.0), "x0.5": _scaled_matrix(0.5),
                    "x0.1": _scaled_matrix(0.1), "x0.01": _scaled_matrix(0.01),
                    "deepest-level-dropped": _shallower_matrix}),
    "erm-nodes": ("mean_tmd", [],
                  {"none": _scaled_mean(1.0), "x0.5": _scaled_mean(0.5),
                   "x0.1": _scaled_mean(0.1), "x0.01": _scaled_mean(0.01)}),
}

# (mode, mutation, exit code at seed 0, exit code at seed 1): the clipped
# loss keeps the full loss's excess far below 2*c*eps, so neither ERM check
# catches any mutation
ERM_DETECTED = [(mode, m, EXIT_OK, EXIT_OK)
                for mode, (_, _, table) in ERM_MUTATIONS.items() for m in table]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("mode, mutation, codes",
                         [(mode, m, codes) for mode, m, *codes in ERM_DETECTED],
                         ids=[f"{mode}-{m}" for mode, m, *_ in ERM_DETECTED])
def test_erm_checks_detect_the_pinned_mutations(mode, mutation, codes, seed, monkeypatch,
                                                capsys):
    name, flags, table = ERM_MUTATIONS[mode]
    monkeypatch.setattr(cli_mod, name, table[mutation])
    code = main(["verify", "--mode", mode, "--synthetic", "40", *flags, "--depth", "3",
                 "--seed", str(seed), "--json"])
    assert code == codes[seed], capsys.readouterr().err
