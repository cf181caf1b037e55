import numpy as np

from perfbench.serving import AnswerChecker


def checker():
    expected = np.array([[0.25, 0.75], [0.9, 0.1], [0.5, 0.5]])
    return AnswerChecker(expected, labels=np.array([1, 0, 0]), classes=np.array([0, 1]))


def test_bitwise_equal_answers_pass_and_tally_accuracy():
    c = checker()
    c.check(0, 2, np.array([[0.25, 0.75], [0.9, 0.1]]))
    c.check(2, 3, np.array([[0.5, 0.5]]))
    assert c.mismatches == 0
    assert c.accuracy == 1.0


def test_a_one_ulp_difference_is_a_mismatch():
    c = checker()
    c.check(0, 1, np.array([[0.25, np.nextafter(0.75, 1.0)]]))
    c.check(1, 2, np.array([[0.9, 0.1, 0.0]]))  # wrong shape
    assert c.mismatches == 2


def test_untallied_answers_are_checked_but_not_counted():
    c = checker()
    c.check(1, 2, np.array([[0.1, 0.9]]), tally=False)
    assert c.mismatches == 1
    assert c.graphs == 0
