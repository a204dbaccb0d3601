"""Privacy and utility quantification (Section IV of the paper)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "AccuracyFunction": ".accuracy",
    "BatchEvaluation": ".evaluation",
    "MatrixEvaluation": ".evaluation",
    "MatrixEvaluator": ".evaluation",
    "PrivacyReport": ".privacy",
    "UtilityReport": ".utility",
    "ZeroOneAccuracy": ".accuracy",
    "bayes_estimate": ".accuracy",
    "empirical_mse": ".utility",
    "expected_accuracy": ".accuracy",
    "map_estimates": ".privacy",
    "max_posterior": ".privacy",
    "max_posterior_batch": ".privacy",
    "posterior_matrix": ".privacy",
    "posterior_tensor": ".privacy",
    "privacy_score": ".privacy",
    "privacy_score_batch": ".privacy",
    "satisfies_bound": ".privacy",
    "theoretical_mse": ".utility",
    "theoretical_mse_batch": ".utility",
    "utility_score": ".utility",
    "utility_score_batch": ".utility",
})
