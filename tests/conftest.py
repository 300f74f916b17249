"""Fixtures shared by the test modules."""

from collections.abc import Sequence

import pytest


def _recording(label_fn, points: list, labels: list):
    """label_fn, also appending each point it is asked and its raw label."""
    add_point = points.append
    add_label = labels.append

    def label(p):
        raw = label_fn(p)
        add_point(p)
        add_label(raw)
        return raw

    return label


class QueryLog(Sequence):
    """A classifier's queries as (point, label) pairs, in the order asked.

    Wraps the classifier's label function, so each point is the very
    object the classifier was handed.
    """

    def __init__(self, classifier=None):
        self.points, self.labels = [], []
        if classifier is not None:
            self.watch(classifier)

    def watch(self, classifier):
        """Record classifier's queries here from now on."""
        classifier.label_fn = _recording(
            classifier.label_fn, self.points, self.labels
        )

    def __len__(self):
        return len(self.points)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(zip(self.points[i], self.labels[i]))
        return self.points[i], self.labels[i]

    def __eq__(self, other):
        return list(self) == other


def _bits(log) -> list[tuple[str, str, int]]:
    """Each (point, label) of log as (x.hex(), y.hex(), label), in order."""
    return [(p[0].hex(), p[1].hex(), label) for p, label in log]


@pytest.fixture
def bits():
    """bits(log): a log of (point, label) pairs in a form equal only bit for bit.

    Two logs give equal lists only if they hold the same points in the
    same order, each coordinate the same float down to its sign and last
    bit, with the same labels.
    """
    return _bits


@pytest.fixture
def record_queries():
    """Spy on a classifier: record_queries(c) returns the QueryLog of c's queries.

    record_queries() returns an empty log, to watch a classifier built later.
    """
    return QueryLog
