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
    pool."""
    shared = SceneBank()
    # Self-heal before a long bench session: quarantine anything a
    # previous crashed run corrupted and purge its stale temp litter.
    shared.engine.store.repair()
    return shared
