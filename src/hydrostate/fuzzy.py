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
# `train` tests a window of examples against every cell at once; the window
# holds at most this many (example, cell, dimension) entries, or one
# example, so its arrays stay small.
_WINDOW_ENTRIES = 2**14


@dataclass(frozen=True, eq=False)
class Pattern:
    """Interval pattern [inf, sup] in normalized coordinates; crisp
    patterns have inf == sup."""

    inf: np.ndarray
    sup: np.ndarray

    def __post_init__(self):
        inf = np.asarray(self.inf, dtype=float)
        sup = np.asarray(self.sup, dtype=float)
        if inf.shape != sup.shape or inf.ndim != 1:
            raise ValueError("inf and sup must be 1-d vectors of equal length")
        self.check(inf, sup)
        object.__setattr__(self, "inf", inf)
        object.__setattr__(self, "sup", sup)

    @staticmethod
    def check(inf: np.ndarray, sup: np.ndarray) -> None:
        """The box invariants of patterns stacked along the leading axes of
        inf and sup, two float arrays of one shape: at least one entry,
        inf <= sup and finite entries, tested in that order over the whole
        stack."""
        if not inf.shape[-1]:
            raise ValidationError("/inf", "at least one entry", "empty array")
        if (inf > sup).any():
            raise ValidationError("/inf", "inf <= sup", "crossed bounds")
        _check_finite(inf=inf, sup=sup)

    @classmethod
    def stack(cls, inf, sup) -> list["Pattern"]:
        """One pattern per row of the (N, d) arrays inf and sup, which are
        checked once, as a whole. A stack that fails raises the error of its
        first bad row k, the one `Pattern(inf[k], sup[k])` raises, located
        at /k. Each pattern holds views of the rows."""
        inf = np.asarray(inf, dtype=float)
        sup = np.asarray(sup, dtype=float)
        if inf.shape != sup.shape or inf.ndim != 2:
            raise ValueError("inf and sup must be (N, d) stacks of equal shape")
        if not len(inf):
            return []
        try:
            cls.check(inf, sup)
        except ValidationError:
            for k, (row_inf, row_sup) in enumerate(zip(inf, sup)):
                try:
                    cls.check(row_inf, row_sup)
                except ValidationError as exc:
                    raise exc.within(f"/{k}") from None
            raise
        patterns = []
        for row_inf, row_sup in zip(inf, sup):
            pattern = object.__new__(cls)
            object.__setattr__(pattern, "inf", row_inf)
            object.__setattr__(pattern, "sup", row_sup)
            patterns.append(pattern)
        return patterns

    @classmethod
    def crisp(cls, values) -> "Pattern":
        values = np.asarray(values, dtype=float)
        return cls(values, values.copy())

    @property
    def n_dims(self) -> int:
        return self.inf.shape[0]


@dataclass(eq=False)
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
        _check_finite(m=self.m, M=self.M)


@dataclass(eq=False)
class ClassifierModel:
    """A trained classifier: theta, gamma and normalization, its cells and
    its labels.

    The cells are read-only once the model is built. `cells` is a tuple of
    the model's own copies of the given cells, whose min and max points are
    rows of two stacked arrays flagged non-writable; `classify` reads those
    stacks and the cell labels and volumes listed here. To change a cell,
    build a new model.
    """

    theta: float
    gamma: np.ndarray
    normalization: np.ndarray
    cells: tuple[Cell, ...] = ()
    labels: list[str] = field(default_factory=list)
    _lo: np.ndarray = field(init=False, repr=False)
    _hi: np.ndarray = field(init=False, repr=False)
    _cell_labels: list[str] = field(init=False, repr=False)
    _volumes: list[float] = field(init=False, repr=False)

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
        shape = self.normalization.shape
        if shape != (n, 2):
            found = f"{shape[0]}" if shape[1:] == (2,) else f"shape {shape}"
            raise ValidationError("/normalization", f"{n} ranges", found)
        check_ranges(self.normalization)
        for i, label in enumerate(self.labels):
            if not isinstance(label, str):
                raise ValidationError(f"/labels/{i}", "string", type(label).__name__)
        for i, cell in enumerate(self.cells):
            self.check_cell(cell, f"/cells/{i}")
        count = len(self.cells)
        self._lo = np.array([cell.m for cell in self.cells]).reshape(count, n)
        self._hi = np.array([cell.M for cell in self.cells]).reshape(count, n)
        self._lo.flags.writeable = self._hi.flags.writeable = False
        self._cell_labels = [cell.label for cell in self.cells]
        self._volumes = np.prod(self._hi - self._lo, axis=1).tolist()
        self.cells = tuple(
            Cell(m, M, cell.label) for m, M, cell in zip(self._lo, self._hi, self.cells)
        )

    def check_cell(self, cell: Cell, path: str = "") -> None:
        """A cell's invariants in this model, located under `path`: the
        model's dimension and a label from its labels."""
        n = self.n_dims
        if cell.m.shape != (n,) or cell.M.shape != (n,):
            raise ValidationError(
                path, f"{n}-dimensional cell", f"({cell.m.size}, {cell.M.size})"
            )
        if cell.label not in self.labels:
            raise ValidationError(f"{path}/label", "label from /labels", repr(cell.label))

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
    out = _kernels.box_violations(cell.m[None], cell.M[None], pattern.inf, pattern.sup, gamma)
    return float(out[0])


def membership(cell: Cell, pattern: Pattern, gamma) -> float:
    return 1.0 - violation(cell, pattern, gamma)


def train(model: ClassifierModel, examples) -> ClassifierModel:
    """New model grown from `model` by the examples, processed in order.

    For each (pattern, label): expand the same-label cell needing the
    smallest total expansion among those whose grown sides all stay within
    theta (ties to the earliest cell), else append a new cell at the
    pattern's box; then repair any overlap with differently-labeled cells
    by contraction. Deterministic for a given example order. The patterns
    are checked first, all of them, for the model's dimension, the range
    [0, 1] and a width within theta; the first bad pattern raises. Then,
    still before any cell is built, the first label that is not a string
    raises a ValidationError at /k/label, k being its example's index.
    """
    examples = list(examples)
    n, theta, dims = len(model.cells), model.theta, model.n_dims
    inf, sup = _check_examples(model, [pattern for pattern, _ in examples])
    labels = list(model.labels)
    label_ids = {}
    for k, label in enumerate(labels):
        label_ids.setdefault(label, k)
    for k, (_, label) in enumerate(examples):
        if not isinstance(label, str):
            raise ValidationError(f"/{k}/label", "string", type(label).__name__)
        if label not in label_ids:
            label_ids[label] = len(labels)
            labels.append(label)
    example_ids = np.array([label_ids[label] for _, label in examples], dtype=np.intp)
    # The cells as stacked boxes [lo[k], hi[k]] with label labels[ids[k]],
    # k < n; the arrays double in length when full.
    lo = np.empty((max(2 * n, 16), dims))
    hi = np.empty_like(lo)
    ids = np.empty(len(lo), dtype=np.intp)
    lo[:n], hi[:n] = model._lo, model._hi
    ids[:n] = [label_ids[cell.label] for cell in model.cells]
    # repaired[k]: cell k was seeded or grown in this call and repaired
    # after it. Repair only shrinks boxes, so such a cell overlaps no
    # differently-labeled cell until it grows again: an example whose growth
    # of its target would change no bit of the box changes nothing, and is
    # skipped. The given cells may overlap, so they start unmarked.
    repaired = np.zeros(len(lo), dtype=bool)

    # The examples are tested `window` at a time against every cell at once,
    # and the run of skips at the front of a window is passed over. The
    # first example that does not skip grows the target found for it, or
    # seeds a cell, and the window is back to 1; it doubles while whole
    # windows skip, within _WINDOW_ENTRIES.
    k, window = 0, 1
    while k < len(examples):
        end = min(k + window, len(examples))
        run, target = _skipped_run(
            lo[:n], hi[:n], ids[:n], repaired[:n],
            inf[k:end], sup[k:end], example_ids[k:end], theta,
        )
        k += run
        if k == end:
            window = min(2 * window, max(1, _WINDOW_ENTRIES // (n * dims)))
            continue
        label_id, p_inf, p_sup = example_ids[k], inf[k], sup[k]
        k += 1
        if target is None:
            if n == len(ids):
                lo, hi, ids, repaired = (
                    np.concatenate([a, np.zeros_like(a)]) for a in (lo, hi, ids, repaired)
                )
            target = n
            lo[n], hi[n], ids[n] = p_inf, p_sup, label_id
            n += 1
        else:
            lo[target] = np.minimum(lo[target], p_inf)
            hi[target] = np.maximum(hi[target], p_sup)
        _resolve_overlaps(lo[:n], hi[:n], ids[:n], target)
        repaired[target] = True
        window = 1

    cells = [Cell(m, M, labels[k]) for m, M, k in zip(lo[:n], hi[:n], ids[:n].tolist())]
    return ClassifierModel(theta, model.gamma.copy(), model.normalization.copy(), cells, labels)


def _skipped_run(lo, hi, ids, repaired, p_inf, p_sup, example_ids, theta):
    """How many of the examples (rows of p_inf and p_sup, with label ids
    example_ids), counted from the first, `train` skips in a row against the
    cells [lo[k], hi[k]] with label ids ids[k] and marks repaired[k], and
    the target of the next example: None if it has none or all skip. The
    target is the lowest-cost feasible same-label cell, ties to the
    earliest; an example skips when its target is marked and growing it by
    the example changes no bit of it. Skips change no cell, so one
    broadcast test decides them all."""
    if not len(ids):
        return 0, None
    cost, feasible = _kernels.expansion_metrics(lo, hi, p_inf[:, None], p_sup[:, None], theta)
    candidate = feasible & (ids == example_ids[:, None])
    target = np.argmin(np.where(candidate, cost, np.inf), axis=1)
    found = candidate[np.arange(len(target)), target]
    lo_t, hi_t = lo[target], hi[target]
    skip = (
        found
        & repaired[target]
        & (np.minimum(lo_t, p_inf).view(np.uint64) == lo_t.view(np.uint64)).all(axis=1)
        & (np.maximum(hi_t, p_sup).view(np.uint64) == hi_t.view(np.uint64)).all(axis=1)
    )
    if skip.all():
        return len(skip), None
    run = int(np.argmin(skip))
    return run, int(target[run]) if found[run] else None


def classify(model: ClassifierModel, pattern: Pattern) -> ClassificationResult:
    """Per-label membership degrees and the winning diagnosis.

    The winner is the label of the cell with the largest membership, ties
    going to the smaller volume (the product of M - m, listed in the
    model), then the lower creation index. Each label's degree is the
    largest membership among its cells, 0.0 if it has none (binary
    hidden-to-output weights, max aggregation).
    """
    if not model.cells:
        raise EmptyModel("model has no cells")
    _check_dimension(model, pattern)
    violations = _kernels.box_violations(
        model._lo, model._hi, pattern.inf, pattern.sup, model.gamma
    )
    degrees = (1.0 - violations).tolist()
    per_label = dict.fromkeys(model.labels, 0.0)
    for label, degree in zip(model._cell_labels, degrees):
        if degree > per_label[label]:
            per_label[label] = degree
    # The index of the least (-degree, volume, index).
    best = min(zip(map(float.__neg__, degrees), model._volumes, range(len(degrees))))[2]
    winner = model._cell_labels[best]
    return ClassificationResult(per_label, winner, per_label[winner])


def _check_examples(model: ClassifierModel, patterns) -> tuple[np.ndarray, np.ndarray]:
    """The stacked (inf, sup) of the training patterns, checked at once.
    The first bad pattern raises, and for it the dimension is tested first,
    then the range [0, 1], then the width against theta."""
    count = next(
        (k for k, pattern in enumerate(patterns) if pattern.n_dims != model.n_dims),
        len(patterns),
    )
    inf = np.array([pattern.inf for pattern in patterns[:count]]).reshape(count, model.n_dims)
    sup = np.array([pattern.sup for pattern in patterns[:count]]).reshape(count, model.n_dims)
    width = sup - inf
    out_of_range = (inf < 0.0).any(axis=1) | (sup > 1.0).any(axis=1)
    too_wide = (width > model.theta).any(axis=1)
    bad = np.flatnonzero(out_of_range | too_wide)
    if bad.size:
        k = int(bad[0])
        if out_of_range[k]:
            raise PatternOutOfRange(
                f"pattern {k}: coordinates must lie in [0, 1] after normalization"
            )
        i = int(np.argmax(width[k]))
        raise PatternTooWide(
            f"pattern {k}: interval wider than theta={model.theta} cannot seed a valid "
            f"cell (dimension {i} has width {float(width[k, i])})"
        )
    if count < len(patterns):
        _check_dimension(model, patterns[count])
    return inf, sup


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


def _check_finite(**arrays) -> None:
    for name, values in arrays.items():
        if not np.isfinite(values).all():
            raise ValidationError(f"/{name}", "finite entries", "non-finite entry")


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


def _resolve_overlaps(lo: np.ndarray, hi: np.ndarray, ids: np.ndarray, changed: int) -> None:
    """Contract away overlaps between the changed cell and every
    differently-labeled cell, in the stacked boxes [lo[k], hi[k]] with
    label ids ids[k].

    Boxes only shrink here, so one ordered pass cannot create new overlaps,
    and a cell that misses the changed box before the pass cannot overlap
    it later: one vectorised test picks the candidates. The repair happens
    along the single dimension of minimal overlap: in partial overlap both
    boxes meet at the midpoint of the shared slab; when one box contains
    the other along that dimension only the containing box is trimmed, on
    the side needing the smaller cut.
    """
    widths = np.minimum(hi, hi[changed]) - np.maximum(lo, lo[changed])
    candidates = np.flatnonzero((ids != ids[changed]) & ~(widths <= 0).any(axis=1))
    for other in candidates.tolist():
        widths = np.minimum(hi[changed], hi[other]) - np.maximum(lo[changed], lo[other])
        if (widths <= 0).any():
            continue
        t = int(np.argmin(widths))
        for lower, upper in ((changed, other), (other, changed)):
            if lo[lower, t] < lo[upper, t] and hi[lower, t] < hi[upper, t]:
                hi[lower, t] = lo[upper, t] = 0.5 * (lo[upper, t] + hi[lower, t])
                break
        else:
            contains = lo[changed, t] <= lo[other, t] and hi[other, t] <= hi[changed, t]
            outer, inner = (changed, other) if contains else (other, changed)
            if hi[inner, t] - lo[outer, t] < hi[outer, t] - lo[inner, t]:
                lo[outer, t] = hi[inner, t]
            else:
                hi[outer, t] = lo[inner, t]
