"""Experiment harness: one driver per table/figure of the paper's §7.

The :mod:`repro.experiments.scenario` runner stands up the full stack
(workload -> LTE network -> monitors -> TLC negotiation) for one charging
cycle and returns the ground truth plus both parties' views.  Per-figure
drivers sweep it:

- :mod:`repro.experiments.congestion` — Figures 3, 13 and the §3.2 numbers,
- :mod:`repro.experiments.intermittent` — Figures 4 and 14,
- :mod:`repro.experiments.overall` — Figure 12 and Table 2,
- :mod:`repro.experiments.plan_sweep` — Figure 15,
- :mod:`repro.experiments.latency` — Figure 16,
- :mod:`repro.experiments.poc_cost` — Figure 17,
- :mod:`repro.experiments.cdr_error` — Figure 18,
- :mod:`repro.experiments.report` — plain-text table/series rendering.

Population scale-out lives in :mod:`repro.experiments.sharding`: a
``ScenarioConfig`` with ``n_ues > 1`` describes a whole cell, and
:func:`~repro.experiments.scheduler.run_stealing_scenario` splits it into
seeded UE chunks on the work-stealing worker pool and merges the
results exactly (see ``docs/architecture.md``).
"""

from repro.experiments.campaign import (
    CampaignEngine,
    CampaignTask,
    run_scenarios,
    set_default_engine,
)
from repro.experiments.scenario import (
    ChargingScheme,
    ScenarioConfig,
    ScenarioResult,
    charge_with_scheme,
    run_scenario,
)
from repro.experiments.scheduler import run_stealing_scenario
from repro.experiments.sharding import (
    ScalingPoint,
    ShardResult,
    run_population,
    scaling_curve,
)

__all__ = [
    "CampaignEngine",
    "CampaignTask",
    "ChargingScheme",
    "ScalingPoint",
    "ScenarioConfig",
    "ScenarioResult",
    "ShardResult",
    "charge_with_scheme",
    "run_population",
    "run_scenario",
    "run_scenarios",
    "run_stealing_scenario",
    "scaling_curve",
    "set_default_engine",
]
