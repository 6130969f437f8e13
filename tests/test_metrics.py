"""Metrics: confusion counts, per-class rates and macro averages against
values worked out by hand."""
import numpy as np
import pytest

from mcm.metrics import confusion_matrix, evaluate, zero_division_policy

# true: 0 0 1 2 2 2
# pred: 0 1 1 2 0 2
TRUE = [0, 0, 1, 2, 2, 2]
PRED = [0, 1, 1, 2, 0, 2]
# rows true, columns predicted
CONFUSION = [[1, 1, 0],
             [0, 1, 0],
             [1, 0, 2]]
# tp = (1, 1, 2), fp = (1, 1, 0), fn = (1, 0, 1)
PRECISION = [1 / 2, 1 / 2, 1.0]
RECALL = [1 / 2, 1.0, 2 / 3]
F1 = [1 / 2, 2 / 3, 4 / 5]


def test_confusion_matrix_by_hand():
    counts = confusion_matrix(TRUE, PRED, 3)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, CONFUSION)


def test_evaluate_by_hand():
    report = evaluate(TRUE, PRED, 3)
    assert report.accuracy == pytest.approx(4 / 6, abs=1e-15)
    assert np.allclose(report.per_class_precision, PRECISION, rtol=0, atol=1e-15)
    assert np.allclose(report.per_class_recall, RECALL, rtol=0, atol=1e-15)
    assert np.allclose(report.per_class_f1, F1, rtol=0, atol=1e-15)
    assert report.macro_precision == pytest.approx(2 / 3, abs=1e-15)
    assert report.macro_recall == pytest.approx(13 / 18, abs=1e-15)
    # the mean of per-class F1, not the F1 of macro precision and recall
    assert report.macro_f1 == pytest.approx(59 / 90, abs=1e-15)
    assert np.array_equal(report.confusion, CONFUSION)


@pytest.mark.parametrize("counts, expected", [
    ((0, 0, 0), (0.0, 0.0, 0.0)),       # class absent and never predicted
    ((0, 2, 0), (0.0, 0.0, 0.0)),       # only false positives: recall undefined
    ((0, 0, 3), (0.0, 0.0, 0.0)),       # never predicted: precision undefined
    ((2, 0, 0), (1.0, 1.0, 1.0)),
    ((1, 1, 3), (0.5, 0.25, 1 / 3)),
])
def test_zero_division_policy(counts, expected):
    assert zero_division_policy(*counts) == pytest.approx(expected, abs=1e-15)


def test_zero_division_policy_rejects_negative_counts():
    with pytest.raises(ValueError):
        zero_division_policy(1, -1, 0)


def test_macro_averages_divide_by_every_defined_class():
    # Class 3 never occurs in either sequence; it still counts, with 0.
    report = evaluate([0, 1, 2], [0, 1, 2], 4)
    assert report.accuracy == 1.0
    assert np.array_equal(report.per_class_f1, [1.0, 1.0, 1.0, 0.0])
    assert report.macro_precision == report.macro_recall == report.macro_f1 == 0.75


def test_never_predicted_rare_class_pays_in_macro_f1():
    # true: 0 0 0 1, pred: all 0 -> class 0 P=3/4 R=1 F1=6/7; class 1 all 0
    report = evaluate([0, 0, 0, 1], [0, 0, 0, 0], 2)
    assert report.accuracy == 0.75
    assert report.per_class_precision[1] == report.per_class_recall[1] == 0.0
    assert report.macro_f1 == pytest.approx((6 / 7) / 2, abs=1e-15)


@pytest.mark.parametrize("true, pred", [
    ([0, 1], [0]),          # lengths differ
    ([], []),               # nothing to evaluate
    ([0, 3], [0, 1]),       # label out of range
    ([0, -1], [0, 1]),
    ([[0, 1]], [[0, 1]]),   # not flat
])
def test_confusion_matrix_rejects_bad_labels(true, pred):
    with pytest.raises(ValueError):
        confusion_matrix(true, pred, 3)


def test_report_text_and_csv_row():
    report = evaluate(TRUE, PRED, 3)
    assert report.to_text().splitlines()[0] == "accuracy 0.666667"
    assert report.to_csv_row("run", "cnn") == "run,cnn,0.666667,0.666667,0.722222,0.655556"
