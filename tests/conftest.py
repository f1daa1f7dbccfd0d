"""Shared fixtures for the test suite.

Non-fixture helpers (engine factories, hypothesis strategies) live in
``helpers.py`` — test modules import them absolutely, which keeps this
conftest importable under its pytest-private module name.
"""

from __future__ import annotations

import gc
import tempfile

import pytest

from helpers import make_all_engines
from repro.indexes import IndexManager
from repro.predicates import PredicateRegistry
from repro.workloads import (
    EventGenerator,
    GeneralSubscriptionGenerator,
    PaperSubscriptionGenerator,
)

__all__ = ["make_all_engines"]


@pytest.fixture(scope="session", autouse=True)
def tree_store_files_are_removed(tmp_path_factory):
    """Fail the session if a disk tree store leaves its owned file behind.

    Temporary files go to a session directory while the suite runs; a
    paged engine dropped without ``close()`` must still remove its
    ``repro-trees-*.arena`` file once collected.
    """
    directory = tmp_path_factory.mktemp("tempfiles")
    previous = tempfile.tempdir
    tempfile.tempdir = str(directory)
    yield
    tempfile.tempdir = previous
    gc.collect()
    leaked = sorted(path.name for path in directory.glob("repro-trees-*.arena"))
    assert not leaked, f"disk tree store files left behind: {leaked}"


@pytest.fixture
def registry():
    return PredicateRegistry()


@pytest.fixture
def indexes():
    return IndexManager()


@pytest.fixture
def all_engines():
    return make_all_engines()


@pytest.fixture
def paper_generator():
    return PaperSubscriptionGenerator(predicates_per_subscription=6, seed=7)


@pytest.fixture
def general_generator():
    return GeneralSubscriptionGenerator(seed=7, allow_not=False)


@pytest.fixture
def event_generator():
    return EventGenerator(seed=7)
