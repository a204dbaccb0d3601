"""Randomized-response substrate.

This package implements everything the paper assumes about the randomized
response technique itself: the RR matrix abstraction, the classic scheme
constructors (Warner, Uniform Perturbation, FRAPP), parametric scheme
families, the disguise mechanism, the inversion and iterative distribution
estimators (Theorem 1 and Eq. 3), and the multi-dimensional extension noted as
future work.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "epsilon_for_delta_bound": ".ldp",
    "k_rr_matrix": ".ldp",
    "ldp_epsilon": ".ldp",
    "satisfies_ldp": ".ldp",
    "CountAccumulator": ".streaming",
    "DistributionEstimate": ".estimation",
    "FrappFamily": ".family",
    "InversionEstimator": ".estimation",
    "IterativeEstimator": ".estimation",
    "MultiDimensionalRR": ".multidim",
    "OnlineEstimator": ".streaming",
    "RRMatrix": ".matrix",
    "RandomizedResponse": ".randomize",
    "SchemeFamily": ".family",
    "StreamingDisguiser": ".streaming",
    "UniformPerturbationFamily": ".family",
    "WarnerFamily": ".family",
    "estimate_distribution": ".estimation",
    "iter_chunks": ".streaming",
    "frapp_matrix": ".schemes",
    "identity_matrix": ".schemes",
    "random_rr_matrix": ".matrix",
    "scheme_family": ".family",
    "total_randomization_matrix": ".schemes",
    "uniform_perturbation_matrix": ".schemes",
    "warner_matrix": ".schemes",
    "warner_stack": ".schemes",
})
