"""Suite-wide settings.

Hypothesis runs derandomized and without an example database, so the
``@given`` tests draw the same examples on every run.  The one thing it
still caches, the constants it mines from the source, goes to a temporary
directory that is removed after the run, so no ``.hypothesis/`` directory
is written into the checkout.
"""

import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")

_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    home = config.stash[_HOME] = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    config.stash[_HOME].cleanup()
