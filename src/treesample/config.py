"""Weight schedules and the configuration object shared by all tree-distance code.

A weight function assigns a multiplier ``w(d)`` to each tree level ``d``.
When two trees are compared, the matching between the child subtrees of
depth-``d`` roots is scaled by ``w(d - 1)``, so a depth-``L`` computation only
ever evaluates ``w(1) .. w(L - 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError, _require_choice, _require_int, _require_real

_NORMS = ("l1", "l2")
_KINDS = ("const", "table")

# Reserved preset name: the binomial-coefficient schedule sketched in
# Chuang & Jegelka (2022) is not pinned to concrete constants here, so the
# alias is rejected rather than silently guessed.  See README, "Weight
# presets".
_PASCAL_MSG = (
    "weight preset 'pascal' is reserved but not defined in this package; "
    "its constants come from an external reference that does not pin them. "
    "Use 'const:<float>' or 'table:w1,w2,...' instead (see README, Weight presets)."
)


@dataclass(frozen=True)
class WeightFn:
    """Level-weight schedule: one constant weight, or a table of them.

    ``weights`` holds exactly one weight for ``const`` and one or more for
    ``table``, where entry ``i`` (0-based) is the weight of level ``i + 1``;
    :meth:`TmdConfig.level_weight` reads them.  Weights are stored as floats,
    so equal schedules share one reparseable spec string, and equal spec
    strings mean equal schedules.
    """

    kind: str  # "const" | "table"
    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "kind", _require_choice(self.kind, "weight kind", _KINDS))
        try:  # a tuple, as an array has no truth value
            weights = tuple(self.weights)
        except TypeError as exc:
            raise ConfigError(f"weights must be iterable, got {self.weights!r}") from exc
        if self.kind == "const" and len(weights) != 1:
            raise ConfigError(f"a constant schedule holds exactly one weight, got {weights!r}")
        if not weights:
            raise ConfigError("weight table must be non-empty")
        weights = tuple(_require_real(w, "weight") for w in weights)
        if min(weights) <= 0.0:
            raise ConfigError(f"weight must be > 0, got {min(weights)}")
        object.__setattr__(self, "weights", weights)

    def spec_string(self) -> str:
        """Canonical textual form, reparseable by :func:`parse_weights`."""
        return f"{self.kind}:" + ",".join(map(repr, self.weights))


def parse_weights(text: str) -> WeightFn:
    """Parse a weight spec of the form ``const:<x>`` or ``table:w1,w2,...``."""
    if not isinstance(text, str):
        raise ConfigError(f"weight spec must be a string, got {text!r}")
    if text.strip().lower() == "pascal":
        raise ConfigError(_PASCAL_MSG)
    head, sep, rest = text.partition(":")
    if not sep:
        raise ConfigError(f"malformed weight spec {text!r}; expected 'const:<x>' or 'table:...'")
    head = _require_choice(head.strip().lower(), "weight preset", _KINDS)
    tokens = [rest] if head == "const" else [tok for tok in rest.split(",") if tok.strip()]
    try:
        weights = tuple(map(float, tokens))
    except ValueError as exc:
        raise ConfigError(f"malformed weight spec {text!r}: {exc}") from exc
    return WeightFn(head, weights)


def const_weights(value: float = 1.0) -> WeightFn:
    return WeightFn("const", (value,))


@dataclass(frozen=True)
class TmdConfig:
    """Depth, weight schedule and feature norm for tree-distance computations."""

    depth: int
    weights: WeightFn = field(default_factory=const_weights)
    feature_norm: str = "l2"

    def __post_init__(self):
        object.__setattr__(self, "depth", _require_int(self.depth, "depth", 1, None))
        object.__setattr__(self, "feature_norm",
                           _require_choice(self.feature_norm, "feature_norm", _NORMS))
        if not isinstance(self.weights, WeightFn):
            raise ConfigError(f"weights must be a WeightFn, got {self.weights!r}")
        # Fail at construction time, not mid-recursion, when a table is short.
        if self.weights.kind == "table" and len(self.weights.weights) < self.depth - 1:
            raise ConfigError(
                f"weight table has {len(self.weights.weights)} entries but depth "
                f"{self.depth} reads {self.depth - 1} (depth exceeds the table)")

    def level_weight(self, level: int) -> float:
        """w(level), for the levels 1 .. depth - 1 that a depth-``depth``
        computation reads; the one level lookup of the package."""
        level = _require_int(level, "weight level", 1, self.depth - 1)
        return self.weights.weights[0 if self.weights.kind == "const" else level - 1]
