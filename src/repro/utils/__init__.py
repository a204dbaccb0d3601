"""Small shared utilities: validation, linear algebra and logging helpers."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "batched_condition_numbers": ".linalg",
    "batched_safe_inverses": ".linalg",
    "check_in_unit_interval": ".scalars",
    "check_matrix_stack": ".validation",
    "check_positive_int": ".scalars",
    "check_probability_vector": ".validation",
    "check_square_matrix": ".validation",
    "check_stochastic_columns": ".validation",
    "condition_number": ".linalg",
    "get_logger": ".logging",
    "normalize_probabilities": ".validation",
    "one_norm_condition_estimate": ".linalg",
    "safe_inverse": ".linalg",
})
