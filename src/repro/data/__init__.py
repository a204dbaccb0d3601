"""Data substrate: categorical distributions, datasets and generators.

The OptRR evaluation only needs single categorical attributes, but the data
layer is written to support multi-attribute datasets so the downstream
privacy-preserving mining applications (``repro.mining``) can consume the same
objects.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "CategoricalAttribute": ".dataset",
    "CategoricalDataset": ".dataset",
    "CategoricalDistribution": ".distribution",
    "adult_attribute_distribution": ".adult",
    "adult_attribute_names": ".adult",
    "custom_distribution": ".synthetic",
    "discretize_equal_frequency": ".discretize",
    "discretize_equal_width": ".discretize",
    "gamma_distribution": ".synthetic",
    "geometric_distribution": ".synthetic",
    "load_adult_like": ".adult",
    "normal_distribution": ".synthetic",
    "sample_dataset": ".synthetic",
    "uniform_distribution": ".synthetic",
    "zipf_distribution": ".synthetic",
})
