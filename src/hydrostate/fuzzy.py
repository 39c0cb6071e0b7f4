"""Growing fuzzy min-max cell classifier over interval patterns.

A cell is an axis-aligned box [m, M] in normalized pattern space carrying a
class label; the set of cells forms the hidden layer of a three-layer
network whose min/max points are the input-side weights. A pattern
P = [P_inf, P_sup] violates a cell by

    c(P) = max_i max( phi_i(P_sup_i - M_i), phi_i(m_i - P_inf_i) )

with the saturated ramp phi_i(x) = min(1, max(0, gamma_i * x)); membership
is the complement 1 - c(P), equal to 1 exactly when the pattern interval is
contained in the cell.

Training grows the network: each labeled example either expands the
cheapest same-label cell whose grown sides all stay within theta, or seeds
a new cell at the pattern's box. An expansion that makes the cell overlap a
differently-labeled cell is repaired by contracting both boxes along the
single dimension of minimal overlap.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import EmptyModel, PatternOutOfRange, PatternTooWide, ValidationError

DEFAULT_THETA = 0.3
DEFAULT_GAMMA = 4.0


@dataclass(frozen=True)
class Pattern:
    """Interval pattern [inf, sup] in normalized coordinates; crisp
    patterns have inf == sup."""

    inf: np.ndarray
    sup: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "inf", np.asarray(self.inf, dtype=float))
        object.__setattr__(self, "sup", np.asarray(self.sup, dtype=float))
        if self.inf.shape != self.sup.shape or self.inf.ndim != 1:
            raise ValueError("inf and sup must be 1-d vectors of equal length")
        if not self.inf.size:
            raise ValidationError("/inf", "at least one entry", "empty array")
        if (self.inf > self.sup).any():
            raise ValidationError("/inf", "inf <= sup", "crossed bounds")

    @classmethod
    def crisp(cls, values) -> "Pattern":
        values = np.asarray(values, dtype=float)
        return cls(values, values.copy())

    @property
    def n_dims(self) -> int:
        return self.inf.shape[0]


@dataclass
class Cell:
    """One hidden neuron: min point, max point and class label."""

    m: np.ndarray
    M: np.ndarray
    label: str

    def __post_init__(self):
        self.m = np.asarray(self.m, dtype=float)
        self.M = np.asarray(self.M, dtype=float)
        # The model that holds the cell checks its dimension.
        if self.m.shape == self.M.shape and (self.m > self.M).any():
            raise ValidationError("/m", "m <= M", "crossed min/max points")

    def volume(self) -> float:
        return float(np.prod(self.M - self.m))


@dataclass
class ClassifierModel:
    theta: float
    gamma: np.ndarray
    normalization: np.ndarray
    cells: list[Cell] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=float)
        self.normalization = np.asarray(self.normalization, dtype=float)
        if not 0 < self.theta <= 1:
            raise ValidationError("/theta", "number in (0, 1]", str(self.theta))
        n = self.n_dims
        if not n:
            raise ValidationError("/gamma", "at least one entry", "empty array")
        for i, g in enumerate(self.gamma.tolist()):
            if not 0 < g < math.inf:
                raise ValidationError(f"/gamma/{i}", "number > 0", str(g))
        if self.normalization.shape != (n, 2):
            raise ValidationError("/normalization", f"{n} ranges", f"{len(self.normalization)}")
        check_ranges(self.normalization)
        for i, cell in enumerate(self.cells):
            if cell.m.shape != (n,) or cell.M.shape != (n,):
                raise ValidationError(
                    f"/cells/{i}", f"{n}-dimensional cell", f"({cell.m.size}, {cell.M.size})"
                )
            if cell.label not in self.labels:
                raise ValidationError(f"/cells/{i}/label", "label from /labels", repr(cell.label))

    @classmethod
    def create(
        cls,
        n_dims: int,
        *,
        theta: float = DEFAULT_THETA,
        gamma: float | np.ndarray = DEFAULT_GAMMA,
        normalization=None,
    ) -> "ClassifierModel":
        gamma_vec = np.asarray(gamma, dtype=float)
        if gamma_vec.ndim == 0:
            gamma_vec = np.full(n_dims, float(gamma_vec))
        if normalization is None:
            normalization = np.tile([0.0, 1.0], (n_dims, 1))
        return cls(theta, gamma_vec, np.asarray(normalization, dtype=float))

    @property
    def n_dims(self) -> int:
        return self.gamma.shape[0]


@dataclass(frozen=True)
class ClassificationResult:
    memberships: dict[str, float]
    winner: str
    winning_membership: float


def violation(cell: Cell, pattern: Pattern, gamma) -> float:
    """Degree in [0, 1] by which the pattern sticks out of the cell; zero
    exactly when the pattern interval is contained."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim == 0:
        gamma = np.full(pattern.n_dims, float(gamma))
    out = _kernels.box_violations(
        cell.m[None, :], cell.M[None, :], pattern.inf, pattern.sup, gamma
    )
    return float(out[0])


def membership(cell: Cell, pattern: Pattern, gamma) -> float:
    return 1.0 - violation(cell, pattern, gamma)


def train(model: ClassifierModel, examples) -> ClassifierModel:
    """New model grown from `model` by the examples, processed in order.

    For each (pattern, label): expand the same-label cell needing the
    smallest total expansion among those whose grown sides all stay within
    theta (ties to the earliest cell), else append a new cell at the
    pattern's box; then repair any overlap with differently-labeled cells
    by contraction. Deterministic for a given example order.
    """
    cells = [Cell(c.m.copy(), c.M.copy(), c.label) for c in model.cells]
    labels = list(model.labels)
    theta = model.theta

    for pattern, label in examples:
        _check_dimension(model, pattern)
        if (pattern.inf < 0.0).any() or (pattern.sup > 1.0).any():
            raise PatternOutOfRange(
                "pattern coordinates must lie in [0, 1] after normalization"
            )
        if ((pattern.sup - pattern.inf) > theta).any():
            raise PatternTooWide(
                f"pattern interval wider than theta={theta} cannot seed a valid cell"
            )
        if label not in labels:
            labels.append(label)

        same = [k for k, c in enumerate(cells) if c.label == label]
        target = None
        if same:
            cost, feasible = _kernels.expansion_metrics(
                np.stack([cells[k].m for k in same]),
                np.stack([cells[k].M for k in same]),
                pattern.inf,
                pattern.sup,
                theta,
            )
            best_cost = None
            for pos, k in enumerate(same):
                if feasible[pos] and (best_cost is None or cost[pos] < best_cost):
                    best_cost = cost[pos]
                    target = k

        if target is not None:
            cell = cells[target]
            cell.m = np.minimum(cell.m, pattern.inf)
            cell.M = np.maximum(cell.M, pattern.sup)
        else:
            target = len(cells)
            cells.append(Cell(pattern.inf.copy(), pattern.sup.copy(), label))

        _resolve_overlaps(cells, target)

    return ClassifierModel(theta, model.gamma.copy(), model.normalization.copy(), cells, labels)


def classify(model: ClassifierModel, pattern: Pattern) -> ClassificationResult:
    """Per-label membership degrees and the winning diagnosis.

    Each label's degree is the maximum membership over its cells (binary
    hidden-to-output weights, max aggregation). Ties go to the label whose
    best cell has the smaller volume, then the lower creation index.
    """
    if not model.cells:
        raise EmptyModel("model has no cells")
    _check_dimension(model, pattern)
    viol = _kernels.box_violations(
        np.stack([c.m for c in model.cells]),
        np.stack([c.M for c in model.cells]),
        pattern.inf,
        pattern.sup,
        model.gamma,
    )
    memberships = 1.0 - viol

    per_label: dict[str, float] = {}
    tie_key: dict[str, tuple[float, int]] = {}
    for label in model.labels:
        per_label[label] = 0.0
        tie_key[label] = (float("inf"), len(model.cells))
    for idx, cell in enumerate(model.cells):
        degree = float(memberships[idx])
        key = (cell.volume(), idx)
        label = cell.label
        if degree > per_label[label] or (
            degree == per_label[label] and key < tie_key[label]
        ):
            per_label[label] = degree
            tie_key[label] = key

    winner = min(
        model.labels, key=lambda lb: (-per_label[lb], tie_key[lb][0], tie_key[lb][1])
    )
    return ClassificationResult(per_label, winner, per_label[winner])


def _check_dimension(model: ClassifierModel, pattern: Pattern) -> None:
    if pattern.n_dims != model.n_dims:
        raise ValidationError(
            "/inf", f"{model.n_dims} entries, the model's dimension", f"{pattern.n_dims}"
        )


def normalize(raw, normalization) -> Pattern:
    """Affine map of a state (interval or crisp) onto the unit cube,
    clamped at the range edges."""
    return Pattern(*unit_bounds(*_raw_bounds(raw), normalization))


def unit_bounds(lower, upper, normalization) -> tuple[np.ndarray, np.ndarray]:
    """The map of `normalize` on raw (lower, upper) bounds, returned as
    (inf, sup) arrays. It maps the last axis, so bounds stacked along
    leading axes are normalized at once."""
    lo, hi = check_ranges(normalization)
    span = hi - lo
    return np.clip((lower - lo) / span, 0.0, 1.0), np.clip((upper - lo) / span, 0.0, 1.0)


def denormalize(pattern: Pattern, normalization) -> tuple[np.ndarray, np.ndarray]:
    """Inverse affine map; returns the (lower, upper) raw-space bounds."""
    lo, hi = check_ranges(normalization)
    span = hi - lo
    return lo + pattern.inf * span, lo + pattern.sup * span


def check_ranges(normalization) -> tuple[np.ndarray, np.ndarray]:
    """The lo and hi columns of a normalization, an (n, 2) array of [lo, hi]
    ranges; a range that is not finite with hi > lo is a ValidationError at
    /normalization/i."""
    ranges = np.asarray(normalization, dtype=float)
    for i, (lo, hi) in enumerate(ranges.tolist()):
        if not hi > lo:
            raise ValidationError(f"/normalization/{i}", "hi > lo", f"[{lo}, {hi}]")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValidationError(f"/normalization/{i}", "finite bounds", f"[{lo}, {hi}]")
    return ranges[:, 0], ranges[:, 1]


def _raw_bounds(raw) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(raw, tuple):
        lower, upper = raw
        return np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    if hasattr(raw, "halfwidth"):
        return raw.lower, raw.upper
    if hasattr(raw, "vector"):
        vec = raw.vector
        return vec, vec.copy()
    vec = np.asarray(raw, dtype=float)
    return vec, vec.copy()


def _resolve_overlaps(cells: list[Cell], changed: int) -> None:
    """Contract away overlaps between the changed cell and every
    differently-labeled cell.

    Boxes only shrink here, so one ordered pass cannot create new overlaps.
    The repair happens along the single dimension of minimal overlap: in
    partial overlap both boxes meet at the midpoint of the shared slab; when
    one box contains the other along that dimension only the containing box
    is trimmed, on the side needing the smaller cut.
    """
    box = cells[changed]
    for other in cells:
        if other is box or other.label == box.label:
            continue
        widths = np.minimum(box.M, other.M) - np.maximum(box.m, other.m)
        if (widths <= 0).any():
            continue
        t = int(np.argmin(widths))
        m1, mx1 = box.m[t], box.M[t]
        m2, mx2 = other.m[t], other.M[t]
        if m1 < m2 and mx1 < mx2:
            mid = 0.5 * (m2 + mx1)
            box.M[t] = mid
            other.m[t] = mid
        elif m2 < m1 and mx2 < mx1:
            mid = 0.5 * (m1 + mx2)
            other.M[t] = mid
            box.m[t] = mid
        elif m1 <= m2 and mx2 <= mx1:
            if mx2 - m1 < mx1 - m2:
                box.m[t] = mx2
            else:
                box.M[t] = m2
        else:
            if mx1 - m2 < mx2 - m1:
                other.m[t] = mx1
            else:
                other.M[t] = m1
