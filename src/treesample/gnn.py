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
from .errors import ConfigError
from .graph_select import Selection, medoids_objective, nearest_medoid
from .graphs import Dataset, Graph, induced_subgraph
from .tmd import DistanceMatrix, tmd

_ACTIVATIONS = ("relu", "identity")


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
    out = np.zeros_like(z)
    eu, ev = g.edge_arrays()
    if eu.size:
        np.add.at(out, eu, z[ev])
        np.add.at(out, ev, z[eu])
    return out


def node_embeddings(model: GinModel, g: Graph) -> np.ndarray:
    """Node states after the message-passing layers (before the readout)."""
    if g.node_count and g.feature_dim != model.feature_dim:
        raise ConfigError(
            f"model expects feature dim {model.feature_dim}, graph has {g.feature_dim}")
    z = np.asarray(g.features, dtype=np.float64)
    if g.node_count == 0:
        z = np.zeros((0, model.feature_dim))
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
               eta: float = 1.0, out_dim: int = 1) -> GinModel:
    """Seeded Gaussian model with every layer scaled to unit spectral norm.

    ``depth`` counts all layers: ``depth - 1`` message-passing layers plus
    the readout.  ``depth=1`` is a readout-only model.  Biases are zero and
    all activations are relu.
    """
    if depth < 1:
        raise ConfigError(f"depth must be >= 1, got {depth}")
    rng = np.random.default_rng(seed)
    dims = [feature_dim] + [hidden] * (depth - 1) + [out_dim]
    layers = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        w = rng.standard_normal((d_in, d_out))
        top = np.linalg.svd(w, compute_uv=False)[0]
        if top > 0:
            w = w / top
        layers.append(GinLayer(w, np.zeros(d_out), "relu"))
    return GinModel(tuple(layers), eta=eta)


def identity_gin(feature_dim: int = 1, eta: float = 1.0,
                 mp_layers: int = 1) -> GinModel:
    """Identity-weight, identity-activation model (used as a separator probe)."""
    eye = np.eye(feature_dim)
    layer = GinLayer(eye, np.zeros(feature_dim), "identity")
    return GinModel(tuple([layer] * mp_layers + [layer]), eta=eta)


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
    ratios = []
    violations = 0
    infinite = 0
    for ga, gb in pairs:
        num = float(np.linalg.norm(gin_forward(model, ga) - gin_forward(model, gb)))
        den = tmd(ga, gb, cfg) * prod
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

def abs_clipped_loss(pred: np.ndarray, label: float, clip: float = 10.0) -> float:
    """|prediction - label| clipped to [0, clip]; 1-Lipschitz in the prediction."""
    pred = np.asarray(pred, dtype=np.float64).reshape(-1)
    if pred.shape != (1,):
        raise ConfigError(f"loss needs a scalar readout, got shape {pred.shape}")
    return float(min(abs(float(pred[0]) - float(label)), clip))


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


def finite_erm_check(ds: Dataset, labels, hypotheses, *,
                     selection: Selection | None = None,
                     subsamples=None,
                     distances: DistanceMatrix | None = None,
                     clip: float = 10.0, tol: float = 1e-9) -> ErmReport:
    """Minimize subsampled loss over a finite hypothesis set, then compare
    the winner's full-data loss against the best achievable plus ``2 c eps``.

    Graph mode (``selection`` + ``distances``): the subsampled loss weights
    each medoid by its cluster size; ``eps`` is the selection objective.
    Node mode (``subsamples``): the loss runs on induced subgraphs with the
    original labels; ``eps`` is the mean per-graph distance to the subgraph.

    Every hypothesis is also checked against the transport-plan chain
    ``|subsampled loss - full loss| <= (M / n) * sum_i ||h(G'_i) - h(G_i)||``
    where ``G'_i`` is the graph standing in for ``G_i`` (its nearest medoid,
    or its subgraph).  In graph mode that chain is a pure Lipschitz argument
    only when each graph's nearest medoid carries the same label, which holds
    for cluster-consistent labelings.
    """
    n = len(ds)
    if n == 0:
        raise ConfigError("dataset is empty")
    if (selection is None) == (subsamples is None):
        raise ConfigError("provide exactly one of selection or subsamples")
    labels = [float(y) for y in labels]
    if len(labels) != n:
        raise ConfigError(f"{len(labels)} labels for {n} graphs")
    hypotheses = list(hypotheses)
    if not hypotheses:
        raise ConfigError("hypothesis set is empty")
    m_lip = 1.0

    preds_full = [[gin_forward(h, g) for g in ds] for h in hypotheses]
    full_losses = [
        math.fsum(abs_clipped_loss(p[i], labels[i], clip) for i in range(n)) / n
        for p in preds_full]

    if selection is not None:
        if distances is None:
            raise ConfigError("graph mode needs the distance matrix used for selection")
        idx = list(selection.indices)
        owners = nearest_medoid(distances, idx)
        epsilon = medoids_objective(distances, idx)
        sub_losses, chain_rhs = [], []
        for p in preds_full:
            sub_losses.append(math.fsum(
                abs_clipped_loss(p[int(o)], labels[int(o)], clip) for o in owners) / n)
            chain_rhs.append(m_lip * math.fsum(
                float(np.linalg.norm(p[int(o)] - p[i])) for i, o in enumerate(owners)) / n)
        mode = "graphs"
    else:
        subsamples = list(subsamples)
        if len(subsamples) != n:
            raise ConfigError(f"{len(subsamples)} subsamples for {n} graphs")
        epsilon = math.fsum(s.tmd_to_full for s in subsamples) / n
        subgraphs = [induced_subgraph(g, s.kept) for g, s in zip(ds, subsamples)]
        preds_sub = [[gin_forward(h, sg) for sg in subgraphs] for h in hypotheses]
        sub_losses, chain_rhs = [], []
        for p_full, p_sub in zip(preds_full, preds_sub):
            sub_losses.append(math.fsum(
                abs_clipped_loss(p_sub[i], labels[i], clip) for i in range(n)) / n)
            chain_rhs.append(m_lip * math.fsum(
                float(np.linalg.norm(p_sub[i] - p_full[i])) for i in range(n)) / n)
        mode = "nodes"

    chain_excess = [abs(s - f) - r for s, f, r in zip(sub_losses, full_losses, chain_rhs)]
    chain_max_excess = max(chain_excess)
    chain_ok = chain_max_excess <= tol

    erm_index = min(range(len(hypotheses)), key=lambda i: (sub_losses[i], i))
    loss_full_of_erm = full_losses[erm_index]
    min_loss_full = min(full_losses)
    c = m_lip * max(layer_lipschitz(h).product for h in hypotheses)
    bound_rhs = 2.0 * c * epsilon
    satisfied = loss_full_of_erm <= min_loss_full + bound_rhs + tol
    return ErmReport(mode, loss_full_of_erm, min_loss_full, bound_rhs, epsilon,
                     m_lip, satisfied, chain_ok, chain_max_excess, erm_index)
