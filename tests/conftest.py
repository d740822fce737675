"""Hypothesis caches the constants it reads from the source under its home
directory, `.hypothesis/` in the working directory, even with no example
database. A test run points that home at a temporary directory instead, so
it leaves nothing behind."""
import shutil
import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

HOME = pytest.StashKey[str]()


def pytest_configure(config):
    config.stash[HOME] = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(config.stash[HOME])


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    shutil.rmtree(config.stash[HOME], ignore_errors=True)
