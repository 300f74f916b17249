"""Fixtures shared by the test modules."""

from collections.abc import Sequence

import pytest

from edgewalk import cli


class QueryLog(Sequence):
    """A classifier's queries as (point, label) pairs, in the order asked.

    Installs the recorder that `edgewalk run --log-queries` uses, so each
    point is the very object the classifier was handed.
    """

    def __init__(self, classifier=None):
        self.points, self.labels = [], []
        if classifier is not None:
            self.watch(classifier)

    def watch(self, classifier):
        """Record classifier's queries here from now on."""
        classifier.label_fn = cli._recording(
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


@pytest.fixture
def record_queries():
    """Spy on a classifier: record_queries(c) returns the QueryLog of c's queries.

    record_queries() returns an empty log, to watch a classifier built later.
    """
    return QueryLog
