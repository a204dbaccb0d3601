"""Pareto-front analysis, comparison, aggregation, plotting and reporting."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ExperimentAggregate": ".aggregate",
    "FrontComparison": ".compare",
    "MetricAggregate": ".aggregate",
    "ParetoFront": ".front",
    "aggregate_campaign_runs": ".aggregate",
    "aggregate_experiment_runs": ".aggregate",
    "aggregate_to_document": ".aggregate",
    "ascii_scatter": ".plot",
    "compare_fronts": ".compare",
    "format_aggregate_table": ".aggregate",
    "format_front_table": ".report",
    "format_comparison_table": ".report",
})
