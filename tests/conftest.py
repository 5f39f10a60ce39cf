"""Session-scoped Ray fixture — ONE ray.init per pytest session.

Also pins PYTHONPATH to the repo root before init so Ray worker processes
can import ``ocr_suite_ray`` regardless of how pytest was invoked.
"""

from __future__ import annotations

import os
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="session")
def ray_session():
    if REPO_ROOT not in sys.path:
        sys.path.insert(0, REPO_ROOT)
    existing = os.environ.get("PYTHONPATH", "")
    if REPO_ROOT not in existing.split(os.pathsep):
        os.environ["PYTHONPATH"] = (
            REPO_ROOT + (os.pathsep + existing if existing else "")
        )
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)
    yield ray
    ray.shutdown()


@pytest.fixture(scope="session")
def small_corpus(ray_session, tmp_path_factory):
    """300-page deterministic corpus in 4 files (t1 smoke tier)."""
    from ocr_suite_ray.sources.synthetic import generate_corpus

    d = str(tmp_path_factory.mktemp("pages"))
    files = generate_corpus(d, 300, seed=42, n_files=4)
    return d, files


@pytest.fixture
def force_shards(monkeypatch):
    """``force_shards(rows_per_shard)`` sets the keyed reduce's rows per
    shard and returns the list that records every shard count ``k`` it
    then picks (``k > 1`` is forced by a small ``rows_per_shard``)."""
    from ocr_suite_ray.state import dupset

    ks, count = [], dupset.shard_count

    def _force(rows_per_shard: int) -> list:
        ks.clear()
        monkeypatch.setattr(dupset, "_ROWS_PER_SHARD", rows_per_shard)
        monkeypatch.setattr(
            dupset, "shard_count", lambda rows: ks.append(count(rows)) or ks[-1]
        )
        return ks

    return _force
