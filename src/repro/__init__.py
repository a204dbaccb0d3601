"""OptRR: Optimizing Randomized Response Schemes for Privacy-Preserving Data Mining.

A production-quality reproduction of Huang & Du (ICDE 2008).  The library
provides:

* the randomized-response substrate (RR matrices, classic schemes, the
  disguise mechanism, distribution estimators) — :mod:`repro.rr`;
* privacy and utility quantification based on estimation theory —
  :mod:`repro.metrics`;
* a generic evolutionary multi-objective optimization engine (SPEA2,
  NSGA-II, weighted-sum baseline) — :mod:`repro.emoo`;
* the OptRR optimizer that searches for Pareto-optimal RR matrices —
  :mod:`repro.core`;
* data generators matching the paper's workloads — :mod:`repro.data`;
* Pareto-front analysis and comparison — :mod:`repro.analysis`;
* privacy-preserving mining applications — :mod:`repro.mining`;
* an experiment harness reproducing every figure — :mod:`repro.experiments`.

Every package resolves its public names on first access
(:mod:`repro._lazy`), so importing one layer loads no other.

Quickstart
----------
>>> from repro import OptRRConfig, OptRROptimizer, normal_distribution
>>> prior = normal_distribution(10)
>>> config = OptRRConfig(n_generations=50, delta=0.8, seed=0)
>>> result = OptRROptimizer(prior, n_records=10_000, config=config).run()
>>> point = result.best_matrix_for_privacy(0.5)
>>> point.matrix.n_categories
10
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "CategoricalDataset": ".data",
    "CategoricalDistribution": ".data",
    "InversionEstimator": ".rr",
    "IterativeEstimator": ".rr",
    "MatrixEvaluator": ".metrics",
    "OptRRConfig": ".core",
    "OptRROptimizer": ".core",
    "OptimalSet": ".core",
    "OptimizationResult": ".core",
    "ParetoFront": ".analysis",
    "ParetoPoint": ".core",
    "RRMatrix": ".rr",
    "RRMatrixProblem": ".core",
    "RandomizedResponse": ".rr",
    "adult_attribute_distribution": ".data",
    "brute_force_front": ".core",
    "compare_fronts": ".analysis",
    "frapp_matrix": ".rr",
    "gamma_distribution": ".data",
    "load_adult_like": ".data",
    "normal_distribution": ".data",
    "privacy_score": ".metrics",
    "rr_matrix_combinations": ".core",
    "sample_dataset": ".data",
    "uniform_distribution": ".data",
    "uniform_perturbation_matrix": ".rr",
    "utility_score": ".metrics",
    "warner_matrix": ".rr",
    "zipf_distribution": ".data",
})
__all__ += ["__version__"]
