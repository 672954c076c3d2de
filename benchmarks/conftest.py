"""Pytest wiring for the benchmark harnesses."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from paperbench import SceneBank  # noqa: E402


@pytest.fixture(scope="session")
def bank():
    """One SceneBank per benchmark session: its engine's memos and store
    are shared across every table/figure harness, and the profile
    harnesses resolve their store misses on its persistent worker
    pool.  No store-wide scan runs here: each load verifies its own
    artifact and quarantines and recomputes a damaged one."""
    return SceneBank()
