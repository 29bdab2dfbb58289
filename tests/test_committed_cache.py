"""The committed result caches agree with a fresh run of the current code.

``repro table1`` / ``repro all`` run from the repository root read the
matrices committed under ``.repro_cache``.  A behaviour change that does
not regenerate them leaves the published report describing older code.
These tests re-run the cells that once drifted (and the cells that a
regeneration moved) and compare them with the committed records.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.benchmarks.cache import load_benchmark
from repro.experiments.executor import ShardTask, execute_shard
from repro.experiments.runner import MATRIX_SCHEMA, RunConfig, _matrix_key
from repro.runtime.persist import load_json

CACHE = Path(__file__).resolve().parent.parent / ".repro_cache"

CELLS = {
    "arepair": {
        "Student#0006": ("ICEBAR",),
        "Student#0011": ("ICEBAR",),
        "Student#0012": ("ARepair", "ICEBAR"),
        "Student#0013": ("BeAFix", "ATR"),
    },
    "alloy4fun": {
        "classroom_b#0002": ("BeAFix", "ATR"),
        "cv_a#0003": ("Multi-Round_Auto",),
        "graphs_a#0002": ("ICEBAR",),
    },
}

SCALES = {"arepair": 1.0, "alloy4fun": 0.05}
"""The scales ``repro all`` runs (the Alloy4Fun one is the CLI default)."""


@pytest.mark.parametrize("suite", sorted(CELLS))
def test_committed_matrix_matches_a_fresh_run(suite):
    scale = SCALES[suite]
    techniques = RunConfig(benchmark=suite).technique_list()
    path = CACHE / _matrix_key(suite, 0, scale, techniques)
    committed = load_json(path, schema=MATRIX_SCHEMA)["outcomes"]
    specs = {
        spec.spec_id: spec
        for spec in load_benchmark(suite, seed=0, scale=scale, use_cache=False)
    }
    for spec_id, cells in CELLS[suite].items():
        result = execute_shard(
            ShardTask(spec=specs[spec_id], techniques=cells, seed=0)
        )
        for technique in cells:
            fresh = result.outcomes[technique]
            record = committed[spec_id][technique]
            assert (fresh.rep, fresh.status, fresh.tm, fresh.sm) == (
                record["rep"],
                record["status"],
                record["tm"],
                record["sm"],
            ), f"{path.name}: {spec_id} {technique} is stale"
