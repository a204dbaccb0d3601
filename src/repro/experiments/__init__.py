"""Experiment harness: one runner per table/figure in the paper's evaluation,
plus campaign orchestration for multi-seed grids."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "CampaignCache": ".campaign",
    "CampaignResult": ".campaign",
    "CampaignRunRecord": ".campaign",
    "CampaignSpec": ".campaign",
    "CampaignTask": ".campaign",
    "ExperimentResult": ".base",
    "ExperimentSpec": ".base",
    "available_experiments": ".registry",
    "find_experiments": ".registry",
    "get_experiment": ".registry",
    "plan_campaign": ".campaign",
    "register_experiment": ".registry",
    "run_experiment": ".runner",
    "run_campaign": ".campaign",
})
