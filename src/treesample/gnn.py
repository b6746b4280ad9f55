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

from .config import TmdConfig
from .errors import ConfigError, NumericalOverflowError
from .graph_select import medoids_objective, nearest_medoid
from .graphs import Dataset, Graph, induced_subgraph
from .tmd import _distances

_ACTIVATIONS = ("relu", "identity")
_LOSS_CLIP = 10.0  # the per-graph loss |prediction - label| is clipped here
_ERM_TOL = 1e-9  # float slack on the ERM bound and the transport-plan chain


@dataclass(frozen=True)
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

    def apply(self, z: np.ndarray) -> np.ndarray:
        out = z @ self.weight + self.bias
        if self.activation == "relu":
            return np.maximum(out, 0.0)
        return out


@dataclass(frozen=True)
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
    def readout_layer(self) -> GinLayer:
        return self.layers[-1]

    @property
    def feature_dim(self) -> int:
        return int(self.layers[0].weight.shape[0])

    @property
    def out_dim(self) -> int:
        return int(self.layers[-1].weight.shape[1])


def _neighbor_sum(g: Graph, z: np.ndarray) -> np.ndarray:
    """Neighbour sums of the rows of ``z``, in the order a test pins: one
    running sum per node over its higher, then its lower neighbours, where
    ``treenorm._level_sums`` adds those two halves as separate sums."""
    eu, ev = g.edge_arrays()
    d = z.shape[1]
    bins = np.concatenate([eu, ev])[:, None] * d + np.arange(d)
    return np.bincount(bins.ravel(), weights=z[np.concatenate([ev, eu])].ravel(),
                       minlength=z.size).reshape(z.shape)


def node_embeddings(model: GinModel, g: Graph) -> np.ndarray:
    """Node states after the message-passing layers (before the readout)."""
    if g.node_count and g.feature_dim != model.feature_dim:
        raise ConfigError(
            f"model expects feature dim {model.feature_dim}, graph has {g.feature_dim}")
    z = g.features if g.node_count else np.zeros((0, model.feature_dim))
    for layer in model.mp_layers:
        z = layer.apply(z + model.eta * _neighbor_sum(g, z))
    return z


def gin_forward(model: GinModel, g: Graph) -> np.ndarray:
    """Graph-level readout: the last layer applied to the node-sum."""
    z = node_embeddings(model, g)
    pooled = z.sum(axis=0) if z.shape[0] else np.zeros(z.shape[1])
    return model.readout_layer.apply(pooled[None, :])[0]


# ---------------------------------------------------------------------------
# Lipschitz profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LipschitzProfile:
    """Spectral norm of each layer's weight matrix, and their product."""

    per_layer: tuple[float, ...]
    product: float
    converged: tuple[bool, ...]


def _spectral_norm(w: np.ndarray, iters: int = 200, tol: float = 1e-10):
    if w.size == 0:
        return 0.0, True
    rng = np.random.default_rng(0)
    x = rng.standard_normal(w.shape[0])
    x /= np.linalg.norm(x)
    sigma = 0.0
    for _ in range(iters):
        y = x @ w
        ny = float(np.linalg.norm(y))
        if ny == 0.0:
            return 0.0, True
        x = y @ w.T
        nx = float(np.linalg.norm(x))
        new_sigma = math.sqrt(nx) if nx > 0 else ny
        x = x / nx if nx > 0 else x
        if sigma > 0 and abs(new_sigma - sigma) <= tol * sigma:
            return new_sigma, True
        sigma = new_sigma
    return sigma, False


def layer_lipschitz(model: GinModel) -> LipschitzProfile:
    """Per-layer Lipschitz constants via power iteration.

    relu and identity activations are 1-Lipschitz, so each constant is the
    layer's largest singular value.  Non-convergence within 200 iterations is
    flagged, not raised.
    """
    norms, flags = [], []
    for layer in model.layers:
        sigma, ok = _spectral_norm(layer.weight)
        norms.append(sigma)
        flags.append(ok)
    prod = 1.0
    for s in norms:
        prod *= s
    return LipschitzProfile(tuple(norms), prod, tuple(flags))


def random_gin(seed: int, feature_dim: int, hidden: int, depth: int,
               eta: float = 1.0) -> GinModel:
    """Seeded Gaussian model with every layer scaled to unit spectral norm.

    ``depth`` counts all layers: ``depth - 1`` message-passing layers plus
    the scalar readout.  ``depth=1`` is a readout-only model.  Biases are
    zero and all activations are relu.
    """
    if depth < 1:
        raise ConfigError(f"depth must be >= 1, got {depth}")
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
    """Max ratio of readout distance to (distance x Lipschitz product)."""

    preset: str
    pairs: int
    max_ratio: float
    violations: int
    infinite: int
    ratios: list[float]

    def to_json(self) -> str:
        return json.dumps({"max_ratio": self.max_ratio, "violations": self.violations,
                           "pairs": self.pairs, "preset": self.preset}, sort_keys=True)


def stability_report(model: GinModel, pairs, cfg: TmdConfig) -> StabilityReport:
    """Empirical smoothness check over graph pairs.

    For each pair the ratio ``||h(Ga) - h(Gb)||_2 / (tmd(Ga, Gb) * prod)`` is
    recorded, where ``prod`` multiplies every layer's Lipschitz constant.
    Requires ``cfg.depth`` = number of message-passing layers + 1 so the
    distance unrolls exactly as far as the network propagates.
    """
    n_mp = len(model.mp_layers)
    if cfg.depth != n_mp + 1:
        raise ConfigError(
            f"cfg.depth must be {n_mp + 1} (message-passing layers + 1), got {cfg.depth}")
    prod = layer_lipschitz(model).product
    graphs = [g for pair in pairs for g in pair]
    out = _readouts([model], graphs)[0]
    dists = _distances(graphs, zip(range(0, len(graphs), 2), range(1, len(graphs), 2)), cfg)
    ratios = []
    violations = 0
    infinite = 0
    for ra, rb, dist in zip(out[0::2], out[1::2], dists):
        num = float(np.linalg.norm(ra - rb))
        den = dist * prod
        if num == 0.0 and den == 0.0:
            ratio = 0.0
        elif den == 0.0:
            ratio = float("inf")
            infinite += 1
        else:
            ratio = num / den
        ratios.append(ratio)
        if ratio > 1.0:
            violations += 1
    max_ratio = max(ratios) if ratios else 0.0
    return StabilityReport(cfg.weights.spec_string(), len(ratios), max_ratio,
                           violations, infinite, ratios)


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
    m_lipschitz: float
    satisfied: bool
    chain_ok: bool
    chain_max_excess: float
    erm_index: int

    def to_json(self) -> str:
        return json.dumps({
            "mode": self.mode, "loss_full_of_erm": self.loss_full_of_erm,
            "min_loss_full": self.min_loss_full, "bound_rhs": self.bound_rhs,
            "epsilon": self.epsilon, "M": self.m_lipschitz,
            "satisfied": self.satisfied, "chain_ok": self.chain_ok,
            "chain_max_excess": self.chain_max_excess, "erm_index": self.erm_index,
        }, sort_keys=True)


def _readouts(models, graphs) -> np.ndarray:
    """(models x graphs x out_dim) readouts, all finite or an overflow error."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        out = np.array([[gin_forward(h, g) for g in graphs] for h in models])
    if not np.isfinite(out).all():
        raise NumericalOverflowError(
            "a GIN readout is not finite; reduce eta, the depth or the feature scale")
    return out


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
    m_lip = 1.0

    for h in hypotheses:  # as oracles.abs_clipped_loss, which takes one readout
        if h.out_dim != 1:
            raise ConfigError(f"loss needs a scalar readout, got shape {(h.out_dim,)}")
    preds_full = _readouts(hypotheses, ds)[:, :, 0]
    labels = np.array(labels, dtype=np.float64)

    def mean_loss(preds, targets):  # oracles.abs_clipped_loss, entry by entry
        with np.errstate(over="ignore"):  # inf, silently, as in Python floats
            losses = np.minimum(np.abs(preds - targets), _LOSS_CLIP)
        return [math.fsum(row) / n for row in losses.tolist()]

    full_losses = mean_loss(preds_full, labels)
    min_loss_full = min(full_losses)
    c = m_lip * max(layer_lipschitz(h).product for h in hypotheses)

    def report(mode, epsilon, stand_ins, stand_in_labels):
        # stand_ins[t, i]: hypothesis t's readout on the graph standing in for G_i
        sub_losses = mean_loss(stand_ins, stand_in_labels)
        with np.errstate(over="ignore"):  # inf, silently, as in np.linalg.norm
            d = stand_ins - preds_full
            norms = np.sqrt(d * d)  # np.linalg.norm of each length-1 d, bit for bit
        chain_rhs = [m_lip * math.fsum(row) / n for row in norms.tolist()]
        excess = max(abs(s - f) - r for s, f, r in zip(sub_losses, full_losses, chain_rhs))
        erm = min(range(len(hypotheses)), key=lambda t: (sub_losses[t], t))
        bound_rhs = 2.0 * c * epsilon
        return ErmReport(mode, full_losses[erm], min_loss_full, bound_rhs, epsilon, m_lip,
                         full_losses[erm] <= min_loss_full + bound_rhs + _ERM_TOL,
                         excess <= _ERM_TOL, excess, erm)

    reports, sub_preds = [], {}
    for selection, distances in selections or ():
        if distances is None:
            raise ConfigError("graph mode needs the distance matrix used for selection")
        idx = list(selection.indices)
        owners = [int(o) for o in nearest_medoid(distances, idx)]
        reports.append(report("graphs", medoids_objective(distances, idx),
                              preds_full[:, owners], labels[owners]))
    for subsamples in subsample_sets or ():
        subsamples = list(subsamples)
        if len(subsamples) != n:
            raise ConfigError(f"{len(subsamples)} subsamples for {n} graphs")
        keys = [(i, tuple(s.kept)) for i, s in enumerate(subsamples)]
        for i, kept in keys:
            if (i, kept) not in sub_preds:
                sg = induced_subgraph(ds[i], kept)
                sub_preds[i, kept] = _readouts(hypotheses, [sg])[:, 0, 0]
        reports.append(report("nodes", math.fsum(s.tmd_to_full for s in subsamples) / n,
                              np.column_stack([sub_preds[key] for key in keys]), labels))
    return reports
