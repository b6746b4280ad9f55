"""How much a broken distance can get past ``verify --mode stability``.

``gnn._distances`` is wrapped to scale every distance or to drop the deepest
tree level, and the exit code of each mutated run is pinned.  A change that
lets more mutations pass, or catches more, shows up here as a table edit.
"""

import functools

import pytest

import treesample.gnn as gnn_mod
from treesample import TmdConfig
from treesample.cli import EXIT_OK, EXIT_PRESET, main
from treesample.tmd import _distances


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
