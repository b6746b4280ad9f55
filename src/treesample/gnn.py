"""Forward-only graph isomorphism networks and empirical bound checks.

A model is a stack of sum-aggregation layers ``z <- act((z + eta * sum of
neighbor z) W + b)`` followed by one readout layer applied to the node-sum.
No training happens anywhere; hypothesis classes are finite sets of randomly
seeded models, and "learning" is exact minimization over that set.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .config import TmdConfig
from .errors import ConfigError, exact_sums, require_finite
from .graph_select import nearest_medoid
from .graphs import Dataset, Graph, induced_subgraph
from .node_select import mean_tmd
from .tmd import _distances

_ACTIVATIONS = ("relu", "identity")
_LOSS_CLIP = 10.0  # the per-graph loss |prediction - label| is clipped here
_ERM_TOL = 1e-9  # float slack on the ERM bound, the chain and zero-distance readouts
_POWER_ITERS = 200  # power-iteration steps before a spectral norm is flagged
_POWER_TOL = 1e-10  # relative change at which a spectral norm has converged


# layers and models compare and hash by identity: == of array fields is ambiguous
@dataclass(frozen=True, eq=False)
class GinLayer:
    weight: np.ndarray  # (d_in, d_out)
    bias: np.ndarray  # (d_out,)
    activation: str = "relu"

    def __post_init__(self):
        if self.activation not in _ACTIVATIONS:
            raise ConfigError(f"activation must be one of {_ACTIVATIONS}")
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[1],):
            raise ConfigError(
                f"layer shapes inconsistent: W{self.weight.shape}, b{self.bias.shape}")


@dataclass(frozen=True, eq=False)
class GinModel:
    """Message-passing layers followed by a readout layer (the last entry)."""

    layers: tuple[GinLayer, ...]
    eta: float = 1.0

    def __post_init__(self):
        if len(self.layers) < 1:
            raise ConfigError("a model needs at least a readout layer")

    @property
    def mp_layers(self) -> tuple[GinLayer, ...]:
        return self.layers[:-1]

    @property
    def out_dim(self) -> int:
        return int(self.layers[-1].weight.shape[1])


def _stack(models) -> tuple:
    """Models that share layer shapes, activations and ``eta`` as one bank:
    ``eta``, and per layer (H, d_in, d_out) weights, (H, 1, d_out) biases and the activation."""
    return models[0].eta, [(np.stack([x.weight for x in col]),
                            np.stack([x.bias for x in col])[:, None, :], col[0].activation)
                           for col in zip(*(h.layers for h in models))]


def _bank_forward(bank, g: Graph):
    """Readouts, (H, out_dim), of ``g`` under each model of a :func:`_stack`
    bank: one product per layer, each item of it shaped as in a one-model
    forward (the readout a one-row product).  A neighbour sum runs over a
    node's higher, then its lower neighbours, each ascending, the order a
    test pins (``treenorm._level_sums`` adds those two halves as separate
    sums)."""
    eta, layers = bank
    n, feature_dim = g.node_count, layers[0][0].shape[1]
    if n and g.feature_dim != feature_dim:
        raise ConfigError(f"model expects feature dim {feature_dim}, graph has {g.feature_dim}")
    eu, ev = g.edge_arrays()
    src = np.concatenate([eu, ev])
    adj = csr_matrix((np.ones(src.size), np.concatenate([ev, eu])[np.argsort(src, kind="stable")],
                      np.r_[0, np.bincount(src, minlength=n).cumsum()]), shape=(n, n))
    z = g.features[None] if n else np.zeros((1, 0, feature_dim))
    for w, b, act in layers[:-1]:
        h, _, d = z.shape
        agg = (adj @ z.transpose(1, 0, 2).reshape(n, h * d)).reshape(n, h, d)
        z = _apply(z + eta * agg.transpose(1, 0, 2), w, b, act)
    return _apply(z.sum(axis=1)[:, None, :], *layers[-1])[:, 0]


def _apply(z: np.ndarray, w: np.ndarray, b: np.ndarray, act: str) -> np.ndarray:
    out = np.matmul(z, w) + b
    return np.maximum(out, 0.0) if act == "relu" else out


def gin_forward(model: GinModel, g: Graph) -> np.ndarray:
    """Graph-level readout: the last layer applied to the node-sum, finite
    or a :class:`NumericalOverflowError`, as every readout is."""
    return _readouts([model], [g])[0, 0]


# ---------------------------------------------------------------------------
# Lipschitz profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LipschitzProfile:
    """Spectral norm of each layer's weight matrix, and their product."""

    per_layer: tuple[float, ...]
    converged: tuple[bool, ...]
    product = property(lambda self: math.prod(self.per_layer))


def _spectral_norm(w: np.ndarray):
    if w.size == 0:
        return 0.0, True
    rng = np.random.default_rng(0)
    x = rng.standard_normal(w.shape[0])
    x /= np.linalg.norm(x)
    sigma = 0.0
    for _ in range(_POWER_ITERS):
        y = x @ w
        ny = float(np.linalg.norm(y))
        if ny == 0.0:
            return 0.0, True
        x = y @ w.T
        nx = float(np.linalg.norm(x))
        new_sigma = math.sqrt(nx) if nx > 0 else ny
        x = x / nx if nx > 0 else x
        if sigma > 0 and abs(new_sigma - sigma) <= _POWER_TOL * sigma:
            return new_sigma, True
        sigma = new_sigma
    return sigma, False


def layer_lipschitz(model: GinModel) -> LipschitzProfile:
    """Per-layer Lipschitz constants via power iteration.

    relu and identity activations are 1-Lipschitz, so each constant is the
    layer's largest singular value.  Non-convergence within ``_POWER_ITERS``
    steps is flagged, not raised.
    """
    norms, flags = zip(*(_spectral_norm(layer.weight) for layer in model.layers))
    return LipschitzProfile(norms, flags)


def random_gin(seed: int, feature_dim: int, hidden: int, depth: int,
               eta: float = 1.0) -> GinModel:
    """Seeded Gaussian model with every layer scaled to unit spectral norm.

    ``depth`` counts all layers: ``depth - 1`` message-passing layers plus
    the scalar readout.  ``depth=1`` is a readout-only model.  Biases are
    zero and all activations are relu.
    """
    if depth < 1:
        raise ConfigError(f"depth must be >= 1, got {depth}")
    if feature_dim < 1:
        raise ConfigError(f"feature_dim must be >= 1, got {feature_dim}")
    if depth > 1 and hidden < 1:
        raise ConfigError(f"hidden must be >= 1 when depth > 1, got {hidden}")
    rng = np.random.default_rng(seed)
    dims = [feature_dim] + [hidden] * (depth - 1) + [1]
    layers = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        w = rng.standard_normal((d_in, d_out))
        top = np.linalg.svd(w, compute_uv=False)[0]
        if top > 0:
            w = w / top
        layers.append(GinLayer(w, np.zeros(d_out), "relu"))
    return GinModel(tuple(layers), eta=eta)


def identity_gin(feature_dim: int = 1, eta: float = 1.0) -> GinModel:
    """Identity-weight, identity-activation model with one message-passing
    layer before the readout (used as a separator probe)."""
    eye = np.eye(feature_dim)
    layer = GinLayer(eye, np.zeros(feature_dim), "identity")
    return GinModel((layer, layer), eta=eta)


# ---------------------------------------------------------------------------
# stability ratios
# ---------------------------------------------------------------------------

@dataclass
class StabilityReport:
    """Ratio of readout distance to (distance x Lipschitz product), per pair."""

    preset: str
    ratios: list[float]
    pairs = property(lambda self: len(self.ratios))
    max_ratio = property(lambda self: max(self.ratios, default=0.0))
    violations = property(lambda self: sum(ratio > 1.0 for ratio in self.ratios))
    infinite = property(lambda self: sum(map(math.isinf, self.ratios)))

    def to_json(self) -> str:  # JSON has no infinity: an infinite max prints null
        return json.dumps({"max_ratio": None if self.infinite else self.max_ratio,
                           "violations": self.violations,
                           "pairs": self.pairs, "preset": self.preset}, sort_keys=True)


def stability_sweep(model: GinModel, graphs: list[Graph], pairs,
                    cfgs: list[TmdConfig]) -> list[StabilityReport]:
    """Empirical smoothness check over index pairs of ``graphs``: one report
    per config, each holding ``||h(G_i) - h(G_j)||_2 / (tmd(G_i, G_j) * prod)``
    for each pair (i, j), where ``prod`` multiplies every layer's Lipschitz
    constant.  Every config needs ``depth`` = message-passing layers + 1, so
    the distance unrolls exactly as far as the network propagates.  The
    product, the forward of each distinct graph and each pair's readout gap
    are computed once; each config makes one distance-kernel call.
    A pair at distance 0 has equal computation trees, so its readouts differ
    by rounding only: its ratio is 0.0 if the gap is at most ``_ERM_TOL``
    times the larger readout norm, and infinite otherwise.
    """
    cfgs, pairs = list(cfgs), list(pairs)
    n_mp = len(model.mp_layers)
    for cfg in cfgs:
        if cfg.depth != n_mp + 1:
            raise ConfigError(
                f"cfg.depth must be {n_mp + 1} (message-passing layers + 1), got {cfg.depth}")
    prod = layer_lipschitz(model).product
    used = sorted({i for pair in pairs for i in pair})
    out = dict(zip(used, _readouts([model], [graphs[i] for i in used])[0]))
    with np.errstate(over="ignore"):  # both readouts are finite: inf is an overflow
        gaps = [require_finite(float(np.linalg.norm(out[i] - out[j])),
                               "the distance of two GIN readouts") for i, j in pairs]
        norm = {i: float(np.linalg.norm(r)) for i, r in out.items()}
    slack = [_ERM_TOL * max(norm[i], norm[j]) for i, j in pairs]
    reports = []
    for cfg in cfgs:
        dens = [dist * prod for dist in _distances(graphs, pairs, cfg)]
        ratios = [num / den if den else (0.0 if num <= tol else math.inf)
                  for num, den, tol in zip(gaps, dens, slack)]
        reports.append(StabilityReport(cfg.weights.spec_string(), ratios))
    return reports


# ---------------------------------------------------------------------------
# finite empirical risk minimization
# ---------------------------------------------------------------------------

@dataclass
class ErmReport:
    """Outcome of exact risk minimization over a finite hypothesis set."""

    mode: str
    loss_full_of_erm: float
    min_loss_full: float
    bound_rhs: float
    epsilon: float
    chain_max_excess: float
    erm_index: int
    satisfied = property(lambda self: self.loss_full_of_erm
                         <= self.min_loss_full + self.bound_rhs + _ERM_TOL)
    chain_ok = property(lambda self: self.chain_max_excess <= _ERM_TOL)

    def to_json(self) -> str:
        return json.dumps({
            "mode": self.mode, "loss_full_of_erm": self.loss_full_of_erm,
            "min_loss_full": self.min_loss_full, "bound_rhs": self.bound_rhs,
            # M = 1: the clipped absolute loss is 1-Lipschitz in the prediction
            "epsilon": self.epsilon, "M": 1.0,
            "satisfied": self.satisfied, "chain_ok": self.chain_ok,
            "chain_max_excess": self.chain_max_excess, "erm_index": self.erm_index,
        }, sort_keys=True)


def _readouts(models, graphs) -> np.ndarray:
    """(models x graphs x out_dim) readouts, all finite or an overflow error:
    one :func:`_bank_forward` per graph for each group of models that share
    layer shapes, activations and ``eta``."""
    if len({h.out_dim for h in models}) > 1:
        raise ConfigError("models disagree on the readout width")
    groups: dict = {}
    for t, h in enumerate(models):
        key = (h.eta, *((x.weight.shape, x.activation) for x in h.layers))
        groups.setdefault(key, []).append(t)
    out = np.empty((len(models), len(graphs), models[0].out_dim))
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for rows in groups.values():
            bank = _stack([models[t] for t in rows])
            for j, g in enumerate(graphs):
                out[rows, j] = _bank_forward(bank, g)
    return require_finite(out, "a GIN readout")


def finite_erm_sweep(ds: Dataset, labels, hypotheses, *, selections=None,
                     subsample_sets=None) -> list[ErmReport]:
    """Minimize subsampled loss over a finite hypothesis set, then compare
    the winner's full-data loss against the best achievable plus ``2 c eps``;
    one report for each ``(selection, distances)`` pair in ``selections``,
    or each list in ``subsample_sets``, taken one at a time.

    Graph mode (``selections``): the subsampled loss weights each medoid by
    its cluster size; ``eps`` is the selection objective.  Node mode
    (``subsample_sets``): the loss runs on induced subgraphs with the
    original labels; ``eps`` is the mean per-graph distance to the subgraph.

    Every hypothesis is also checked against the transport-plan chain
    ``|subsampled loss - full loss| <= (M / n) * sum_i ||h(G'_i) - h(G_i)||``
    where ``G'_i`` is the graph standing in for ``G_i`` (its nearest medoid,
    or its subgraph).  In graph mode that chain is a pure Lipschitz argument
    only when each graph's nearest medoid carries the same label, which holds
    for cluster-consistent labelings.

    The full-data readouts, losses and ``c`` are computed once, and each
    distinct ``(graph index, kept)`` subgraph is built and forwarded once.
    """
    n = len(ds)
    if n == 0:
        raise ConfigError("dataset is empty")
    if (selections is None) == (subsample_sets is None):
        raise ConfigError("provide exactly one of selection or subsamples")
    labels = [float(y) for y in labels]
    if len(labels) != n:
        raise ConfigError(f"{len(labels)} labels for {n} graphs")
    hypotheses = list(hypotheses)
    if not hypotheses:
        raise ConfigError("hypothesis set is empty")
    for h in hypotheses:  # as oracles.abs_clipped_loss, which takes one readout
        if h.out_dim != 1:
            raise ConfigError(f"loss needs a scalar readout, got shape {(h.out_dim,)}")
    preds_full = _readouts(hypotheses, ds)[:, :, 0]
    labels = np.array(labels, dtype=np.float64)

    def mean_loss(preds, targets):  # oracles.abs_clipped_loss, entry by entry
        with np.errstate(over="ignore"):  # inf, silently, as in Python floats
            losses = np.minimum(np.abs(preds - targets), _LOSS_CLIP)
        return (exact_sums(losses, "a mean loss") / n).tolist()

    full_losses = mean_loss(preds_full, labels)
    min_loss_full = min(full_losses)
    c = max(layer_lipschitz(h).product for h in hypotheses)

    def report(mode, epsilon, stand_ins, stand_in_labels):
        # stand_ins[t, i]: hypothesis t's readout on the graph standing in for G_i
        sub_losses = mean_loss(stand_ins, stand_in_labels)
        with np.errstate(over="ignore"):  # an inf norm is refused below
            d = stand_ins - preds_full
            norms = np.sqrt(d * d)  # np.linalg.norm of each length-1 d, bit for bit
        what = "a transport-plan chain sum"
        chain_rhs = (require_finite(exact_sums(norms, what), what) / n).tolist()
        excess = max(abs(s - f) - r for s, f, r in zip(sub_losses, full_losses, chain_rhs))
        erm = min(range(len(hypotheses)), key=lambda t: (sub_losses[t], t))
        bound_rhs = require_finite(2.0 * c * epsilon, "the ERM bound 2 c eps")
        return ErmReport(mode, full_losses[erm], min_loss_full, bound_rhs, epsilon,
                         excess, erm)

    reports, sub_preds = [], {}
    for selection, distances in selections or ():
        if distances is None:
            raise ConfigError("graph mode needs the distance matrix used for selection")
        owners, near = nearest_medoid(distances, selection.indices)
        reports.append(report("graphs", float(near.mean()),
                              preds_full[:, owners], labels[owners]))
    for subsamples in subsample_sets or ():
        subsamples = list(subsamples)
        if len(subsamples) != n:
            raise ConfigError(f"{len(subsamples)} subsamples for {n} graphs")
        keys = [(i, tuple(s.kept)) for i, s in enumerate(subsamples)]
        new = [key for key in dict.fromkeys(keys) if key not in sub_preds]
        subgraphs = [induced_subgraph(ds[i], kept) for i, kept in new]
        sub_preds.update(zip(new, _readouts(hypotheses, subgraphs)[:, :, 0].T))
        reports.append(report("nodes", mean_tmd(subsamples),
                              np.column_stack([sub_preds[key] for key in keys]), labels))
    return reports
