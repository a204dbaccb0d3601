"""Declarative disguise → reconstruct → mine → score pipelines.

This package closes the paper's end-to-end loop: it takes RR schemes (classic
family members or a whole optimized Pareto front), applies the record-level
disguise to a mining workload, reconstructs the original distributions, runs
downstream miners (decision trees, association rules, distribution error) and
scores each scheme's surviving data-mining utility — fanned out over seeds
through the shared grid executor with content-addressed caching.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "Miner": ".miners",
    "PipelineCache": ".runner",
    "PipelineCellRecord": ".runner",
    "PipelineCellTask": ".spec",
    "PipelineResult": ".runner",
    "PipelineScheme": ".spec",
    "PipelineSpec": ".spec",
    "SchemeEvaluation": ".runner",
    "available_miners": ".miners",
    "disguise_workload": ".runner",
    "evaluate_schemes": ".runner",
    "get_miner": ".miners",
    "parse_seed_argument": ".spec",
    "plan_pipeline": ".spec",
    "register_miner": ".miners",
    "resolve_scheme_argument": ".spec",
    "run_pipeline": ".runner",
    "schemes_from_front": ".spec",
})
