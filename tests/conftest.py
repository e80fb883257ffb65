"""Suite-wide settings and fixtures.

Hypothesis runs derandomized and without an example database, so the
``@given`` tests draw the same examples on every run.  The one thing it
still caches, the constants it mines from the source, goes to a temporary
directory that is removed after the run, so no ``.hypothesis/`` directory
is written into the checkout.

Every test must leave numpy's OpenBLAS thread count as it found it, which
the worker contexts (``workers.Workers``) cap while they run.
"""

import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from motionlift import workers

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")

_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    home = config.stash[_HOME] = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    config.stash[_HOME].cleanup()


@pytest.fixture(autouse=True)
def openblas_threads_unchanged():
    blas = workers._openblas()
    before = blas[0]() if blas else None
    yield
    if blas:
        assert blas[0]() == before, "the OpenBLAS thread count was not restored"


@pytest.fixture
def no_worker_pool(monkeypatch):
    """Fail the test if anything enters a worker context."""
    def refuse(self):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(workers.Workers, "__enter__", refuse)
