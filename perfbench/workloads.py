"""The named workloads and why each was chosen."""

from __future__ import annotations

from batch import BatchWorkload
from service import ServiceWorkload

TRADITIONAL = ("ARepair", "ICEBAR", "BeAFix", "ATR")
LLM = (
    "Single-Round_None",
    "Single-Round_Loc",
    "Single-Round_Loc+Fix",
    "Single-Round_Pass",
    "Single-Round_Loc+Pass",
    "Multi-Round_None",
    "Multi-Round_Generic",
    "Multi-Round_Auto",
)

WORKLOADS = {
    "arepair-traditional": BatchWorkload(
        name="arepair-traditional",
        benchmark="arepair",
        scale=1.0,
        techniques=TRADITIONAL,
    ),
    # Every third spec of the 39-spec Alloy4Fun sample at scale 0.02: 13
    # specs from all six domains, 104 cells, so one pass fits a run.
    "a4f-llm": BatchWorkload(
        name="a4f-llm",
        benchmark="alloy4fun",
        scale=0.02,
        techniques=LLM,
        stride=3,
    ),
    "service-mixed": ServiceWorkload(
        name="service-mixed",
        technique="ATR",
        rate=5.0,
        jobs=150,
        tenants=4,
        reference_workload="arepair-traditional",
        workers=1,
    ),
}
