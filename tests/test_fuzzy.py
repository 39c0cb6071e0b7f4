import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrostate import (
    Cell,
    ClassifierModel,
    EmptyModel,
    Pattern,
    PatternOutOfRange,
    PatternTooWide,
    ValidationError,
    classify,
    denormalize,
    membership,
    normalize,
    train,
    violation,
)

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


def test_contraction_splits_partial_overlap_evenly():
    model = ClassifierModel.create(1, theta=0.5)
    trained = train(
        model,
        [
            (Pattern(np.array([0.1]), np.array([0.3])), "A"),
            (Pattern(np.array([0.2]), np.array([0.4])), "B"),
        ],
    )
    cell_a, cell_b = trained.cells
    assert cell_a.label == "A" and cell_b.label == "B"
    np.testing.assert_allclose([cell_a.m[0], cell_a.M[0]], [0.1, 0.25])
    np.testing.assert_allclose([cell_b.m[0], cell_b.M[0]], [0.25, 0.4])


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
    second = train(ClassifierModel.create(3), examples)
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


def test_degenerate_range_rejected():
    with pytest.raises(ValidationError) as excinfo:
        normalize(np.array([1.0, 2.0]), np.array([[0.0, 1.0], [3.0, 3.0]]))
    assert excinfo.value.path == "/normalization/1"


def test_normalize_clamps():
    ranges = np.array([[0.0, 10.0]])
    pattern = normalize(np.array([-5.0]), ranges)
    assert pattern.inf[0] == 0.0
    pattern = normalize(np.array([25.0]), ranges)
    assert pattern.sup[0] == 1.0
