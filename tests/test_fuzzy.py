from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrostate import (
    Cell,
    ClassifierModel,
    EmptyModel,
    IntervalState,
    LabeledPattern,
    Pattern,
    PatternOutOfRange,
    PatternTooWide,
    StateVector,
    ValidationError,
    classify,
    denormalize,
    fuzzy,
    membership,
    normalize,
    report_io,
    solve_steady_state,
    train,
    violation,
)

from conftest import DEMO_DIR

GAMMA1 = np.array([5.0])


def _cell(lo, hi, label="a"):
    return Cell(np.atleast_1d(np.asarray(lo, dtype=float)),
                np.atleast_1d(np.asarray(hi, dtype=float)), label)


def test_violation_contained_pattern_is_zero():
    cell = _cell([0.2, 0.2], [0.8, 0.8])
    pattern = Pattern(np.array([0.4, 0.6]), np.array([0.4, 0.6]))
    gamma = np.array([5.0, 5.0])
    assert violation(cell, pattern, gamma) == 0.0
    assert membership(cell, pattern, gamma) == 1.0


def test_violation_ramp_hand_value():
    cell = _cell([0.2], [0.6])
    crisp = Pattern.crisp([0.7])
    # ramp of the 0.1 overshoot with slope 5
    assert violation(cell, crisp, GAMMA1) == pytest.approx(0.5, abs=1e-12)
    assert membership(cell, crisp, GAMMA1) == pytest.approx(0.5, abs=1e-12)


def test_violation_saturates():
    cell = _cell([0.2], [0.6])
    crisp = Pattern.crisp([0.9])
    assert violation(cell, crisp, GAMMA1) == pytest.approx(1.0, abs=1e-12)
    assert membership(cell, crisp, GAMMA1) == pytest.approx(0.0, abs=1e-12)


def test_pattern_requires_ordered_bounds():
    with pytest.raises(ValueError):
        Pattern(np.array([0.5]), np.array([0.4]))


def test_array_holding_types_compare_by_identity():
    """Their fields hold arrays, whose `==` is elementwise, so they compare
    and hash as plain objects do instead of raising."""
    a, b = Pattern.crisp([0.1, 0.2]), Pattern.crisp([0.1, 0.2])
    pairs = [
        (a, b),
        (ClassifierModel.create(2), ClassifierModel.create(2)),
        (LabeledPattern(a, "x"), LabeledPattern(b, "x")),
        (_cell([0.1, 0.2], [0.3, 0.4]), _cell([0.1, 0.2], [0.3, 0.4])),
        (StateVector([1.0, 2.0], [3.0, 4.0]), StateVector([1.0, 2.0], [3.0, 4.0])),
        (IntervalState(StateVector([1.0], [2.0]), [0.5, 0.5]),
         IntervalState(StateVector([1.0], [2.0]), [0.5, 0.5])),
    ]
    for first, second in pairs:
        assert first == first and not first != first
        assert first != second and not first == second
    assert {a: "a", b: "b"}[a] == "a"


def test_first_example_seeds_cell():
    model = ClassifierModel.create(2)
    pattern = Pattern(np.array([0.2, 0.3]), np.array([0.25, 0.35]))
    trained = train(model, [(pattern, "normal")])
    assert len(trained.cells) == 1
    np.testing.assert_array_equal(trained.cells[0].m, pattern.inf)
    np.testing.assert_array_equal(trained.cells[0].M, pattern.sup)
    assert trained.labels == ["normal"]
    assert len(model.cells) == 0  # input model untouched


def test_duplicate_example_keeps_single_cell():
    model = ClassifierModel.create(2)
    pattern = Pattern(np.array([0.2, 0.3]), np.array([0.25, 0.35]))
    trained = train(model, [(pattern, "x"), (pattern, "x")])
    assert len(trained.cells) == 1


def test_theta_bars_wide_expansion():
    model = ClassifierModel.create(1, theta=0.3)
    trained = train(
        model,
        [(Pattern.crisp([0.1]), "x"), (Pattern.crisp([0.9]), "x")],
    )
    assert len(trained.cells) == 2


def test_classification_tie_breaks_to_first_cell():
    # Dyadic endpoints keep the two cell volumes exactly equal in floats,
    # so the tie falls through volume to the creation index.
    model = ClassifierModel.create(1, gamma=5.0)
    model = train(
        model,
        [
            (Pattern(np.array([0.0]), np.array([0.25])), "A"),
            (Pattern(np.array([0.75]), np.array([1.0])), "B"),
        ],
    )
    result = classify(model, Pattern.crisp([0.5]))
    assert result.memberships["A"] == result.memberships["B"] == 0.0
    assert result.winner == "A"
    assert result.winning_membership == 0.0


def test_classification_tie_prefers_smaller_volume():
    model = ClassifierModel.create(1, gamma=5.0)
    model = train(
        model,
        [
            (Pattern(np.array([0.0]), np.array([0.25])), "A"),
            (Pattern(np.array([0.875]), np.array([1.0])), "B"),
        ],
    )
    result = classify(model, Pattern.crisp([0.5]))
    assert result.memberships["A"] == result.memberships["B"] == 0.0
    assert result.winner == "B"  # smaller cell wins the tie


def test_far_pattern_single_cell_degenerate():
    model = ClassifierModel.create(1, gamma=5.0)
    model = train(model, [(Pattern(np.array([0.0]), np.array([0.1])), "only")])
    result = classify(model, Pattern.crisp([0.9]))
    assert result.winner == "only"
    assert result.winning_membership == 0.0


def test_trained_pattern_has_full_membership():
    model = ClassifierModel.create(2, theta=1.0)
    pattern = Pattern(np.array([0.3, 0.4]), np.array([0.5, 0.6]))
    trained = train(model, [(pattern, "x")])
    result = classify(trained, pattern)
    assert result.winner == "x"
    assert result.winning_membership == 1.0


def test_empty_model_rejected():
    model = ClassifierModel.create(1)
    with pytest.raises(EmptyModel):
        classify(model, Pattern.crisp([0.5]))


def test_pattern_out_of_range():
    model = ClassifierModel.create(1)
    with pytest.raises(PatternOutOfRange):
        train(model, [(Pattern.crisp([1.5]), "x")])


def test_pattern_wider_than_theta():
    model = ClassifierModel.create(1, theta=0.3)
    with pytest.raises(PatternTooWide):
        train(model, [(Pattern(np.array([0.1]), np.array([0.9])), "x")])


GOOD = ([0.25, 0.25], [0.25, 0.375])
OUT_OF_RANGE = ([0.25, 0.5], [0.25, 1.5])
TOO_WIDE = ([0.0, 0.25], [0.125, 0.75])
BOTH = ([0.0, 0.25], [0.125, 1.25])
WRONG_DIM = ([0.5], [0.5])
RANGE_TEXT = "coordinates must lie in [0, 1] after normalization"
WIDTH_TEXT = "interval wider than theta=0.3 cannot seed a valid cell (dimension 1 has width 0.5)"


@pytest.mark.parametrize(
    "boxes, error, text",
    [
        ([GOOD, OUT_OF_RANGE, TOO_WIDE], PatternOutOfRange, f"pattern 1: {RANGE_TEXT}"),
        ([GOOD, TOO_WIDE, OUT_OF_RANGE], PatternTooWide, f"pattern 1: {WIDTH_TEXT}"),
        ([GOOD, GOOD, BOTH], PatternOutOfRange, f"pattern 2: {RANGE_TEXT}"),
        ([GOOD, OUT_OF_RANGE, WRONG_DIM], PatternOutOfRange, f"pattern 1: {RANGE_TEXT}"),
        ([GOOD, WRONG_DIM, OUT_OF_RANGE], ValidationError,
         "/inf: expected 2 entries, the model's dimension, found 1"),
    ],
    ids=["range first", "width first", "range before width", "range before dimension",
         "dimension first"],
)
def test_first_bad_example_raises_its_first_failed_check(boxes, error, text):
    model = ClassifierModel.create(2, theta=0.3)
    examples = [(Pattern(np.array(inf), np.array(sup)), "x") for inf, sup in boxes]
    with pytest.raises(error) as excinfo:
        train(model, examples)
    assert str(excinfo.value) == text


@pytest.mark.parametrize("label, found", [(None, "NoneType"), (3, "int")])
def test_example_label_must_be_a_string(monkeypatch, label, found):
    """A label that is not a string raises at its example's index before
    any cell is built; a bad pattern anywhere in the stream raises first."""
    monkeypatch.setattr(fuzzy, "_resolve_overlaps", lambda *args: pytest.fail("cell built"))
    model = ClassifierModel.create(2, theta=0.3)
    good, bad = (Pattern(np.array(inf), np.array(sup)) for inf, sup in (GOOD, OUT_OF_RANGE))
    with pytest.raises(ValidationError) as excinfo:
        train(model, [(good, "a"), (good, label), (good, "b")])
    assert str(excinfo.value) == f"/1/label: expected string, found {found}"
    with pytest.raises(PatternOutOfRange):
        train(model, [(good, label), (bad, "a")])


@pytest.mark.parametrize(
    "first, second, want_first, want_second",
    [
        # Partial overlap: both boxes meet at the middle of the shared slab,
        # with the changed (second) cell as the upper or the lower box.
        (("A", 0.125, 0.375), ("B", 0.25, 0.5), (0.125, 0.3125), (0.3125, 0.5)),
        (("B", 0.25, 0.5), ("A", 0.125, 0.375), (0.3125, 0.5), (0.125, 0.3125)),
        # Containment: only the containing box is trimmed, on the side
        # needing the smaller cut; an equal cut trims its upper side.
        (("B", 0.5, 0.625), ("A", 0.375, 0.875), (0.5, 0.625), (0.625, 0.875)),
        (("B", 0.5, 0.625), ("A", 0.25, 0.75), (0.5, 0.625), (0.25, 0.5)),
        (("B", 0.25, 0.5), ("A", 0.125, 0.625), (0.25, 0.5), (0.125, 0.25)),
        (("B", 0.25, 0.75), ("A", 0.375, 0.5), (0.5, 0.75), (0.375, 0.5)),
        (("B", 0.25, 0.75), ("A", 0.5, 0.625), (0.25, 0.5), (0.5, 0.625)),
        (("B", 0.25, 0.5), ("A", 0.375, 0.5), (0.25, 0.375), (0.375, 0.5)),
    ],
    ids=[
        "changed upper", "changed lower", "changed containing trims low",
        "changed containing trims high", "changed containing equal cut",
        "changed contained trims low", "changed contained trims high",
        "changed contained shared max",
    ],
)
def test_contraction_repairs_each_overlap_case(first, second, want_first, want_second):
    # Dyadic endpoints keep every midpoint and cut exact in floats.
    model = ClassifierModel.create(1, theta=1.0)
    trained = train(
        model,
        [(Pattern(np.array([lo]), np.array([hi])), label) for label, lo, hi in (first, second)],
    )
    cell_first, cell_second = trained.cells
    assert (cell_first.label, cell_second.label) == (first[0], second[0])
    assert (cell_first.m[0], cell_first.M[0]) == want_first
    assert (cell_second.m[0], cell_second.M[0]) == want_second


def test_equal_cost_expansion_goes_to_earliest_cell():
    model = ClassifierModel.create(1, theta=0.3)
    trained = train(
        model,
        [
            (Pattern.crisp([0.25]), "x"),
            (Pattern.crisp([0.75]), "x"),
            (Pattern.crisp([0.5]), "x"),
        ],
    )
    assert [(c.m[0], c.M[0]) for c in trained.cells] == [(0.25, 0.5), (0.75, 0.75)]


def test_no_cross_label_overlap_after_training():
    rng = np.random.default_rng(42)
    model = ClassifierModel.create(2, theta=0.4)
    examples = []
    for _ in range(30):
        center = rng.uniform(0.05, 0.45, 2)
        examples.append((Pattern(center - 0.02, center + 0.02), "low"))
        center = rng.uniform(0.55, 0.95, 2)
        examples.append((Pattern(center - 0.02, center + 0.02), "high"))
    trained = train(model, examples)
    for a in trained.cells:
        for b in trained.cells:
            if a.label == b.label:
                continue
            widths = np.minimum(a.M, b.M) - np.maximum(a.m, b.m)
            assert (widths <= 0).any()


def test_overlap_free_training_preserves_coverage():
    rng = np.random.default_rng(7)
    model = ClassifierModel.create(2, theta=0.3)
    examples = []
    for _ in range(25):
        center = rng.uniform(0.05, 0.25, 2)
        examples.append((Pattern(center - 0.01, center + 0.01), "one"))
        center = rng.uniform(0.7, 0.9, 2)
        examples.append((Pattern(center - 0.01, center + 0.01), "two"))
    trained = train(model, examples)
    assert len(trained.cells) <= len(examples)
    for pattern, label in examples:
        degrees = [
            membership(cell, pattern, trained.gamma)
            for cell in trained.cells
            if cell.label == label
        ]
        assert max(degrees) == 1.0


def test_retrain_is_bit_identical():
    rng = np.random.default_rng(3)
    examples = []
    for _ in range(40):
        center = rng.uniform(0.1, 0.9, 3)
        width = rng.uniform(0.0, 0.05, 3)
        inf = np.clip(center - width, 0, 1)
        sup = np.clip(center + width, 0, 1)
        examples.append((Pattern(inf, sup), rng.choice(["a", "b", "c"])))
    first = train(ClassifierModel.create(3), examples)
    # Any iterable of examples trains the same model as the list.
    second = train(ClassifierModel.create(3), (example for example in examples))
    assert len(first.cells) == len(second.cells)
    for ca, cb in zip(first.cells, second.cells):
        assert ca.label == cb.label
        assert np.array_equal(ca.m, cb.m)
        assert np.array_equal(ca.M, cb.M)
    assert first.labels == second.labels


coord_lists = st.lists(
    st.integers(min_value=0, max_value=1000).map(lambda v: v / 1000.0),
    min_size=4,
    max_size=4,
)


@settings(deadline=None, max_examples=60)
@given(coord_lists, coord_lists)
def test_membership_bounded_and_containment(cell_coords, pattern_coords):
    # Quantized coordinates keep boundary violations far above float
    # rounding, so the containment equivalence is exact.
    lo = np.minimum(cell_coords[:2], cell_coords[2:])
    hi = np.maximum(cell_coords[:2], cell_coords[2:])
    p_lo = np.minimum(pattern_coords[:2], pattern_coords[2:])
    p_hi = np.maximum(pattern_coords[:2], pattern_coords[2:])
    cell = _cell(lo, hi)
    pattern = Pattern(p_lo, p_hi)
    gamma = np.array([4.0, 4.0])
    degree = membership(cell, pattern, gamma)
    assert 0.0 <= degree <= 1.0
    contained = bool(np.all(p_lo >= lo) and np.all(p_hi <= hi))
    assert (degree == 1.0) == contained


example_stream = st.lists(
    st.tuples(
        st.lists(
            st.integers(min_value=0, max_value=40).map(lambda v: v / 50.0),
            min_size=2,
            max_size=2,
        ),
        st.integers(min_value=0, max_value=10).map(lambda v: v / 100.0),
        st.sampled_from(["a", "b", "c"]),
    ),
    min_size=1,
    max_size=25,
)


@settings(deadline=None, max_examples=80)
@given(example_stream)
def test_training_invariants_on_random_streams(raw_examples):
    """Growth cap, cell validity and determinism hold for any example
    order, including adversarial overlap/contraction sequences."""
    theta = 0.3
    examples = []
    for inf, width, label in raw_examples:
        inf = np.array(inf)
        sup = np.clip(inf + width, 0.0, 1.0)
        examples.append((Pattern(inf, sup), label))

    first = train(ClassifierModel.create(2, theta=theta), examples)
    assert len(first.cells) <= len(examples)
    for cell in first.cells:
        assert np.all(cell.m <= cell.M)
        assert np.all(cell.M - cell.m <= theta + 1e-12)
        assert np.all(cell.m >= 0.0) and np.all(cell.M <= 1.0)
        assert cell.label in first.labels

    # no residual overlap between differently labeled cells
    for a in first.cells:
        for b in first.cells:
            if a.label != b.label:
                widths = np.minimum(a.M, b.M) - np.maximum(a.m, b.m)
                assert (widths <= 1e-15).any()

    second = train(ClassifierModel.create(2, theta=theta), examples)
    assert all(
        x.label == y.label and np.array_equal(x.m, y.m) and np.array_equal(x.M, y.M)
        for x, y in zip(first.cells, second.cells)
    )


def test_membership_monotone_in_overshoot():
    cell = _cell([0.2], [0.6])
    degrees = [
        membership(cell, Pattern.crisp([0.6 + t]), GAMMA1)
        for t in np.linspace(0.0, 0.4, 9)
    ]
    assert all(b <= a for a, b in zip(degrees, degrees[1:]))


def test_model_cells_are_read_only_copies():
    """The model's boxes are its own and cannot be written, so the stacks
    `classify` reads cannot go stale: a decoded model classifies every demo
    pattern exactly as the trained model it encodes."""
    entries, manifest = report_io.decode_patterns(
        (DEMO_DIR / "out" / "patterns.json").read_text()
    )
    model = train(
        ClassifierModel.create(entries[0][0].n_dims, normalization=manifest["normalization"]),
        entries,
    )
    assert isinstance(model.cells, tuple)
    for values in (model.cells[0].m, model.cells[0].M):
        with pytest.raises(ValueError):
            values[0] = 0.5
    decoded = report_io.decode_model(report_io.encode_model(model))
    for pattern, _ in entries:
        got, want = classify(decoded, pattern), classify(model, pattern)
        assert got.memberships == want.memberships
        assert list(got.memberships) == list(want.memberships)
        assert (got.winner, got.winning_membership) == (want.winner, want.winning_membership)

    cell = _cell([0.25], [0.5])
    model = ClassifierModel(1.0, [4.0], [[0.0, 1.0]], [cell], ["a"])
    cell.m[0] = 0.0
    assert model.cells[0].m[0] == 0.25
    assert classify(model, Pattern.crisp([0.125])).winning_membership == 0.5


def test_normalize_endpoints_and_midpoint():
    ranges = np.array([[10.0, 30.0], [-1.0, 1.0]])
    lows = normalize(np.array([10.0, -1.0]), ranges)
    np.testing.assert_array_equal(lows.inf, [0.0, 0.0])
    highs = normalize(np.array([30.0, 1.0]), ranges)
    np.testing.assert_array_equal(highs.sup, [1.0, 1.0])
    mid = normalize(np.array([20.0, 0.0]), ranges)
    np.testing.assert_allclose(mid.inf, [0.5, 0.5], atol=1e-15)
    np.testing.assert_array_equal(mid.inf, mid.sup)


def test_normalize_round_trip():
    ranges = np.array([[5.0, 9.0], [-2.0, 4.0], [0.0, 0.5]])
    pattern = Pattern(np.array([0.1, 0.4, 0.0]), np.array([0.3, 0.9, 1.0]))
    lower, upper = denormalize(pattern, ranges)
    back = normalize((lower, upper), ranges)
    np.testing.assert_allclose(back.inf, pattern.inf, atol=1e-12)
    np.testing.assert_allclose(back.sup, pattern.sup, atol=1e-12)


def test_normalize_states_as_their_bounds(triangle):
    """The bound -> normalize -> classify path: an interval state maps as
    its (lower, upper) pair, a crisp state as (vector, vector)."""
    state = solve_steady_state(triangle).state
    interval = IntervalState(state, np.array([0.1, 0.2, 0.05, 1.0, 2.0]))
    ranges = np.column_stack([state.vector - 5.0, state.vector + 5.0])
    for raw, bounds in [
        (interval, (interval.lower, interval.upper)),
        (state, (state.vector, state.vector)),
    ]:
        pattern, reference = normalize(raw, ranges), normalize(bounds, ranges)
        np.testing.assert_array_equal(pattern.inf, reference.inf)
        np.testing.assert_array_equal(pattern.sup, reference.sup)
    assert (normalize(interval, ranges).sup > normalize(interval, ranges).inf).all()


def test_degenerate_range_rejected():
    with pytest.raises(ValidationError) as excinfo:
        normalize(np.array([1.0, 2.0]), np.array([[0.0, 1.0], [3.0, 3.0]]))
    assert excinfo.value.path == "/normalization/1"


@pytest.mark.parametrize(
    "normalization, found",
    [(5.0, "shape ()"), ([0.0, 1.0], "shape (2,)"), ([[0.0, 1.0]] * 3, "3")],
    ids=["scalar", "one range, flat", "three ranges"],
)
def test_normalization_of_another_shape_rejected(normalization, found):
    with pytest.raises(ValidationError) as excinfo:
        ClassifierModel.create(2, normalization=normalization)
    assert str(excinfo.value) == f"/normalization: expected 2 ranges, found {found}"


def test_normalize_clamps():
    ranges = np.array([[0.0, 10.0]])
    pattern = normalize(np.array([-5.0]), ranges)
    assert pattern.inf[0] == 0.0
    pattern = normalize(np.array([25.0]), ranges)
    assert pattern.sup[0] == 1.0


# ---------------------------------------------------------------------------
# Oracle: the list-of-Cell classifier that the stacked-array one replaced
# ---------------------------------------------------------------------------

def _reference_train(model, examples, events):
    """`train` as it was written over a list of `Cell`s, one Python loop per
    decision; `events` collects the named cases a stream exercises."""
    cells = [Cell(c.m.copy(), c.M.copy(), c.label) for c in model.cells]
    labels = list(model.labels)
    for pattern, label in examples:
        if label not in labels:
            if cells:
                events.add("new label mid-stream")
            labels.append(label)
        same = [k for k, c in enumerate(cells) if c.label == label]
        target = None
        if same:
            grown = [
                (np.maximum(cells[k].M, pattern.sup) - np.minimum(cells[k].m, pattern.inf))
                for k in same
            ]
            feasible = [bool((side <= model.theta).all()) for side in grown]
            cost = [
                float((side - (cells[k].M - cells[k].m)).sum()) for side, k in zip(grown, same)
            ]
            best = None
            for j, k in enumerate(same):
                if not feasible[j]:
                    continue
                if best is None or cost[j] < cost[best]:
                    best = j
                elif cost[j] == cost[best]:
                    events.add("equal-cost expansion")
            if best is not None:
                target = same[best]
        if target is not None:
            cell = cells[target]
            cell.m = np.minimum(cell.m, pattern.inf)
            cell.M = np.maximum(cell.M, pattern.sup)
        else:
            target = len(cells)
            cells.append(Cell(pattern.inf.copy(), pattern.sup.copy(), label))
        _reference_resolve_overlaps(cells, target, events)
    return ClassifierModel(model.theta, model.gamma.copy(), model.normalization.copy(),
                           cells, labels)


def _reference_resolve_overlaps(cells, changed, events):
    box = cells[changed]
    for other in cells:
        if other is box or other.label == box.label:
            continue
        widths = np.minimum(box.M, other.M) - np.maximum(box.m, other.m)
        if (widths <= 0).any():
            continue
        t = int(np.argmin(widths))
        for lower, upper in ((box, other), (other, box)):
            if lower.m[t] < upper.m[t] and lower.M[t] < upper.M[t]:
                events.add("partial overlap, changed " + ("lower" if lower is box else "upper"))
                lower.M[t] = upper.m[t] = 0.5 * (upper.m[t] + lower.M[t])
                break
        else:
            contains = box.m[t] <= other.m[t] and other.M[t] <= box.M[t]
            outer, inner = (box, other) if contains else (other, box)
            cut_low = inner.M[t] - outer.m[t] < outer.M[t] - inner.m[t]
            events.add(f"changed {'containing' if contains else 'contained'}, "
                       f"trims {'low' if cut_low else 'high'}")
            if cut_low:
                outer.m[t] = inner.M[t]
            else:
                outer.M[t] = inner.m[t]


def _reference_classify(model, pattern, events):
    degrees = [membership(cell, pattern, model.gamma) for cell in model.cells]
    per_label = {label: 0.0 for label in model.labels}
    for cell, degree in zip(model.cells, degrees):
        per_label[cell.label] = max(per_label[cell.label], degree)
    top = [k for k, d in enumerate(degrees) if d == max(degrees)]
    volumes = [float(np.prod(cell.M - cell.m)) for cell in model.cells]
    if len({volumes[k] for k in top}) > 1:
        events.add("equal-degree winners broken by volume")
    best = min(top, key=lambda k: (volumes[k], k))
    winner = model.cells[best].label
    return per_label, winner, per_label[winner]


ALL_CASES = {
    "new label mid-stream",
    "equal-cost expansion",
    "partial overlap, changed lower",
    "partial overlap, changed upper",
    "changed containing, trims low",
    "changed containing, trims high",
    "changed contained, trims low",
    "changed contained, trims high",
    "equal-degree winners broken by volume",
}


def _assert_matches_reference(theta, stream, probes, events, cells=()):
    """Train in two rounds (the second grows the first's model) from a model
    holding `cells` (stream entries), and classify every example and probe:
    boxes, labels, per-label memberships, winners and winning memberships
    agree bit for bit with the reference."""
    examples = [(Pattern(np.array(inf), np.array(sup)), label) for inf, sup, label in stream]
    n_dims = len(stream[0][0])
    half = len(examples) // 2
    model = ref = replace(
        ClassifierModel.create(n_dims, theta=theta),
        cells=[Cell(np.array(m), np.array(M), label) for m, M, label in cells],
        labels=sorted({label for *_, label in cells}),
    )
    for part in (examples[:half], examples[half:]):
        model = train(model, part)
        ref = _reference_train(ref, part, events)
        assert model.labels == ref.labels
        assert [c.label for c in model.cells] == [c.label for c in ref.cells]
        for cell, expected in zip(model.cells, ref.cells):
            assert cell.m.tobytes() == expected.m.tobytes()
            assert cell.M.tobytes() == expected.M.tobytes()
    for pattern in [p for p, _ in examples] + [Pattern.crisp(v) for v in probes]:
        result = classify(model, pattern)
        per_label, winner, degree = _reference_classify(ref, pattern, events)
        assert result.memberships == per_label
        assert list(result.memberships) == list(per_label)
        assert (result.winner, result.winning_membership) == (winner, degree)


def _box(label, *sides):
    """A stream entry from (lo, hi) pairs per dimension."""
    return ([lo for lo, _ in sides], [hi for _, hi in sides], label)


# Streams that between them hit every case in ALL_CASES; dyadic endpoints
# keep each midpoint, cut, cost and volume exact.
PINNED_STREAMS = [
    (1.0, [_box("A", (0.125, 0.375)), _box("B", (0.25, 0.5))], [[0.3]]),
    (1.0, [_box("B", (0.25, 0.5)), _box("A", (0.125, 0.375))], [[0.3]]),
    (1.0, [_box("B", (0.5, 0.625)), _box("A", (0.375, 0.875))], []),
    (1.0, [_box("B", (0.5, 0.625)), _box("A", (0.25, 0.75))], []),
    (1.0, [_box("B", (0.25, 0.75)), _box("A", (0.375, 0.5))], []),
    (1.0, [_box("B", (0.25, 0.75)), _box("A", (0.5, 0.625))], []),
    (0.3, [_box("x", (0.25, 0.25)), _box("x", (0.75, 0.75)), _box("x", (0.5, 0.5))], []),
    (0.3, [_box("A", (0.0, 0.25)), _box("B", (0.875, 1.0))], [[0.5]]),
    (0.5, [_box("a", (0.0, 0.125), (0.5, 0.5)), _box("b", (0.25, 0.5), (0.0, 0.25)),
           _box("a", (0.125, 0.25), (0.25, 0.5)), _box("c", (0.75, 0.75), (0.75, 1.0))],
     [[0.2, 0.3], [0.9, 0.1]]),
]


def test_pinned_streams_match_reference_and_hit_every_case():
    events = set()
    for theta, stream, probes in PINNED_STREAMS:
        _assert_matches_reference(theta, stream, probes, events)
    assert events == ALL_CASES


# Given models whose cells overlap across labels or hold -0.0, trained on
# patterns inside those cells, first and again. A pattern inside a given
# cell still grows it and repairs its overlaps, and growing a box by a
# pattern it contains flips a zero bound of the other sign.
GIVEN_MODEL_STREAMS = [
    # Partial overlap; the first pattern lies in one cell, then in both.
    (1.0, [_box("A", (0.0, 0.5)), _box("B", (0.25, 0.75))],
     [_box("A", (0.125, 0.25))] * 2 + [_box("B", (0.375, 0.4375))] * 2, [[0.3], [0.5]]),
    (1.0, [_box("A", (0.0, 0.5)), _box("B", (0.25, 0.75))],
     [_box("B", (0.3125, 0.375)), _box("B", (0.3125, 0.375)), _box("A", (0.0, 0.125))] * 2,
     [[0.3125], [0.625]]),
    # One cell inside another, the outer one wider than theta: a pattern in
    # the outer cell seeds a cell of its own.
    (0.5, [_box("A", (0.0, 0.75), (0.0, 0.75)), _box("B", (0.25, 0.5), (0.25, 0.5))],
     [_box("B", (0.375, 0.375), (0.375, 0.375)), _box("A", (0.125, 0.125), (0.125, 0.125)),
      _box("B", (0.375, 0.375), (0.375, 0.375))] * 2,
     [[0.375, 0.375], [0.625, 0.125]]),
    # Three labels over one region, crisp patterns inside all three cells.
    (1.0, [_box("a", (0.0, 0.5), (0.0, 0.5)), _box("b", (0.25, 0.75), (0.125, 0.625)),
           _box("c", (0.125, 0.375), (0.25, 0.375))],
     [_box(label, (0.3125, 0.3125), (0.3125, 0.3125)) for label in "cbacba"],
     [[0.3125, 0.3125], [0.0, 0.0]]),
    # Signed zeros: -0.0 in a pattern inside a cell seeded in this call, and
    # +0.0 against a given -0.0 bound that survives an expansion.
    (1.0, [], [_box("A", (0.0, 0.25)), _box("A", (-0.0, 0.125))] * 2, [[0.0]]),
    (1.0, [_box("A", (-0.0, 0.25), (0.25, 0.5))],
     [_box("A", (0.125, 0.125), (0.5, 0.625)), _box("A", (0.0, 0.0), (0.25, 0.25))] * 2,
     [[0.0, 0.25]]),
]


@pytest.mark.parametrize(
    "theta, cells, stream, probes",
    GIVEN_MODEL_STREAMS,
    ids=["partial overlap", "pattern in both cells", "containment, outer too wide",
         "three labels", "-0.0 pattern", "-0.0 cell"],
)
def test_streams_from_given_models_match_reference(theta, cells, stream, probes):
    _assert_matches_reference(theta, stream, probes, set(), cells)


def test_signed_zero_bound_keeps_skipping_on(monkeypatch):
    """A -0.0 bound in one demo example costs no more overlap repairs than
    +0.0 in its place, and the model, which keeps the -0.0, matches the
    reference bit for bit."""
    entries, _ = report_io.decode_patterns((DEMO_DIR / "out" / "patterns.json").read_text())
    (first, label), *rest = entries
    repair = fuzzy._resolve_overlaps
    calls = []
    monkeypatch.setattr(fuzzy, "_resolve_overlaps", lambda *args: (calls.append(1), repair(*args)))
    counts = []
    for zero in (0.0, -0.0):
        inf, sup = first.inf.copy(), first.sup.copy()
        inf[0], sup[0] = zero, 0.1
        examples = [(Pattern(inf, sup), label)] + rest
        calls.clear()
        model = train(ClassifierModel.create(first.n_dims), examples)
        counts.append(len(calls))
        ref = _reference_train(ClassifierModel.create(first.n_dims), examples, set())
        assert [c.label for c in model.cells] == [c.label for c in ref.cells]
        for cell, expected in zip(model.cells, ref.cells):
            assert cell.m.tobytes() == expected.m.tobytes()
            assert cell.M.tobytes() == expected.M.tobytes()
    assert np.signbit(model.cells[0].m[0])
    assert counts[0] == counts[1] < len(entries)


@st.composite
def classifier_streams(draw):
    """(theta, stream, probes) on a 1/8 grid, so that equal costs, equal
    degrees and equal volumes are common and exact."""
    n_dims = draw(st.integers(min_value=1, max_value=3))
    theta = draw(st.sampled_from([0.25, 0.5, 1.0]))
    side = st.tuples(
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=int(8 * theta)),
    )
    raw = draw(st.lists(
        st.tuples(st.lists(side, min_size=n_dims, max_size=n_dims), st.sampled_from("abc")),
        min_size=1,
        max_size=30,
    ))
    stream = [
        ([lo / 8 for lo, _ in sides], [min(lo + w, 8) / 8 for lo, w in sides], label)
        for sides, label in raw
    ]
    point = st.lists(st.integers(min_value=0, max_value=16).map(lambda v: v / 16),
                     min_size=n_dims, max_size=n_dims)
    return theta, stream, draw(st.lists(point, max_size=5))


@settings(deadline=None, max_examples=200)
@given(classifier_streams())
def test_classifier_matches_reference_on_random_streams(case):
    theta, stream, probes = case
    _assert_matches_reference(theta, stream, probes, set())


# ---------------------------------------------------------------------------
# Runs of skipped examples, tested a window at a time
# ---------------------------------------------------------------------------

def _train_like_reference(model, examples):
    """Train on the examples and check the model against the reference bit
    for bit; returns the number of overlap repairs (one per example that is
    not skipped) and the sizes of the windows of examples tested."""
    repair, skipped_run = fuzzy._resolve_overlaps, fuzzy._skipped_run
    repairs, windows = [], []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fuzzy, "_resolve_overlaps",
                      lambda *args: (repairs.append(1), repair(*args))[1])
        patch.setattr(fuzzy, "_skipped_run",
                      lambda *args: (windows.append(len(args[4])), skipped_run(*args))[1])
        trained = train(model, examples)
    ref = _reference_train(model, examples, set())
    assert trained.labels == ref.labels
    assert [c.label for c in trained.cells] == [c.label for c in ref.cells]
    for cell, expected in zip(trained.cells, ref.cells):
        assert cell.m.tobytes() == expected.m.tobytes()
        assert cell.M.tobytes() == expected.M.tobytes()
    return len(repairs), windows


def test_stream_without_skips_tests_no_window():
    """Grid points farther apart than theta, with alternating labels: each
    seeds a cell, and each is tested on its own, in a window of one."""
    grid = np.stack(np.meshgrid(np.arange(16) / 16, np.arange(16) / 16), axis=-1).reshape(-1, 2)
    points = grid[np.random.default_rng(3).permutation(len(grid))]
    examples = [(Pattern.crisp(p), "ab"[k % 2]) for k, p in enumerate(points)]
    repairs, windows = _train_like_reference(ClassifierModel.create(2, theta=0.05), examples)
    assert repairs == len(examples) and windows == [1] * len(examples)


def test_run_of_skips_with_more_cell_entries_than_the_window_holds():
    """300 cells of 64 dimensions hold more entries than a window of one
    example may: the window stays at one example, and the repeated stream
    skips one example at a time."""
    dims = 64
    points = np.random.default_rng(6).uniform(0.0, 1.0, (300, dims))
    assert len(points) * dims > fuzzy._WINDOW_ENTRIES
    examples = [(Pattern.crisp(p), "ab"[k % 2]) for k, p in enumerate(points)] * 2
    repairs, windows = _train_like_reference(ClassifierModel.create(dims, theta=0.05), examples)
    assert repairs == len(points) and windows == [1] * len(examples)


def test_run_of_skips_longer_than_the_window_cap():
    """Every example after the first lies inside the cell the first seeds;
    the window grows to its cap and the run goes on past it."""
    dims = 64
    cap = fuzzy._WINDOW_ENTRIES // dims
    rng = np.random.default_rng(4)
    first = Pattern(np.full(dims, 0.25), np.full(dims, 0.5))
    inside = [Pattern.crisp(p) for p in rng.uniform(0.25, 0.5, (3 * cap, dims))]
    examples = [(p, "a") for p in [first] + inside]
    repairs, windows = _train_like_reference(ClassifierModel.create(dims), examples)
    assert repairs == 1
    assert max(windows) == cap and windows.count(cap) >= 2


@pytest.mark.parametrize("breaker", ["seed", "growth"])
@pytest.mark.parametrize("tail", [0, 1, 3, 7])
def test_runs_ending_at_every_window_edge(breaker, tail):
    """A run of `length` skips, then an example that grows the model (a
    new cell, or a growth of the one cell), then `tail` more skips: the
    lengths cover runs that end on, before and after each window edge."""
    rng = np.random.default_rng(5)
    first = (Pattern(np.full(2, 0.25), np.full(2, 0.5)), "a")
    change = {
        "seed": (Pattern.crisp([0.9, 0.95]), "b"),
        "growth": (Pattern.crisp([0.52, 0.3]), "a"),
    }[breaker]
    for length in range(1, 18):
        inside = [(Pattern.crisp(p), "a") for p in rng.uniform(0.25, 0.5, (length + tail, 2))]
        examples = [first] + inside[:length] + [change] + inside[length:]
        repairs, _ = _train_like_reference(ClassifierModel.create(2), examples)
        assert repairs == 2


@pytest.mark.parametrize(
    "theta, cells, stream",
    [
        # The window reaches an example inside a given cell, which is not
        # marked: it grows that cell by nothing and repairs its overlap.
        (0.5, [_box("A", (0.0, 0.5)), _box("B", (0.25, 0.75))],
         [_box("A", (0.875, 0.875))] * 2 + [_box("A", (0.125, 0.125))]),
        # The window reaches an example of a label without cells, inside a
        # marked cell of another label: it seeds a cell.
        (1.0, [], [_box("A", (0.25, 0.5)), _box("A", (0.3125, 0.3125)),
                   _box("B", (0.375, 0.375))]),
    ],
    ids=["unmarked given cell", "label without cells"],
)
def test_window_skips_only_examples_with_a_marked_target(theta, cells, stream):
    model = replace(
        ClassifierModel.create(1, theta=theta),
        cells=[Cell(np.array(m), np.array(M), label) for m, M, label in cells],
        labels=sorted({label for *_, label in cells}),
    )
    examples = [(Pattern(np.array(inf), np.array(sup)), label) for inf, sup, label in stream]
    repairs, windows = _train_like_reference(model, examples)
    # The second example skips; the window after it reaches the third,
    # which is not skipped.
    assert windows == [1, 1, 1] and repairs == 2
