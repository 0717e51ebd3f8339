"""Benchmark self-tests: ``PYTHONPATH=src python -m pytest bench/tests -q``.

They sit outside the tier-1 ``testpaths`` and import the benchmark's
modules the way ``bench/run.py`` does, from the ``bench`` directory.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import workloads  # noqa: E402

#: Inputs small enough for a unit test; digests are not checked at this size.
TINY = workloads.Sizes(
    policy_scenes=("BUNNY", "GSPL1"),
    policy_side=8,
    config_side=8,
    l2_bytes=(256 * 1024,),
    dram_latency=(300, 700),
    sorted_scenes=("BUNNY",),
    query_side=8,
    range_keys=300,
    range_scans=16,
    blob_subdivisions=1,
    containment_points=32,
    served_scenes=("BUNNY", "GSPL1"),
    served_jobs_per_cell=2,
    served_jobs_per_s=20.0,
)


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """A fresh result cache, so no case is served from an earlier run."""
    path = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(path))
    return path
