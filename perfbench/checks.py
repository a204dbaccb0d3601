"""Output checks for the benchmark's ``optrr`` invocations.

Each check returns a list of error strings (empty when the output is
correct); an invocation with any error counts as failed in ``error_rate``.
The checks read only the documents and files the command wrote, plus the
inputs the benchmark generated, and recompute what they can independently
(column sums, posteriors, dominance, code histograms).
"""

from __future__ import annotations

import json
from itertools import product
from typing import Any, Iterable

import numpy as np

#: Column sums of a stochastic matrix must be 1 within this tolerance.
STOCHASTIC_TOLERANCE = 1e-9

#: Slack allowed above the privacy bound delta (repair converges to delta
#: from below up to floating-point rounding).
POSTERIOR_TOLERANCE = 1e-6

#: Fixed reference point ``(privacy, utility)`` of the 2-D hypervolume.
#: Privacy lies in [0, 1] (higher is better); utility is the estimator's
#: mean squared error (lower is better) and a useful front stays below 2.
HYPERVOLUME_REFERENCE = (0.0, 2.0)


def front_arrays(document: dict[str, Any]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(privacy, utility, matrices)`` of an ``optimization_result`` front."""
    points = document["points"]
    privacy = np.array([point["privacy"] for point in points], dtype=np.float64)
    utility = np.array([point["utility"] for point in points], dtype=np.float64)
    matrices = np.array(
        [point["matrix"]["probabilities"] for point in points], dtype=np.float64
    )
    return privacy, utility, matrices


def max_posteriors(matrices: np.ndarray, prior: np.ndarray) -> np.ndarray:
    """Largest posterior P(true i | reported j) of each ``(n, n)`` matrix,
    where ``matrices[b, j, i]`` = P(report j | true i)."""
    joint = matrices * prior[None, None, :]
    reported = joint.sum(axis=2, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        posterior = np.where(reported > 0, joint / reported, 0.0)
    return posterior.max(axis=(1, 2))


def dominated_mask(privacy: np.ndarray, utility: np.ndarray) -> np.ndarray:
    """True for points another point dominates (privacy up, utility down)."""
    no_worse = (privacy[None, :] >= privacy[:, None]) & (utility[None, :] <= utility[:, None])
    better = (privacy[None, :] > privacy[:, None]) | (utility[None, :] < utility[:, None])
    return (no_worse & better).any(axis=1)


def hypervolume(privacy: np.ndarray, utility: np.ndarray,
                reference: tuple[float, float] = HYPERVOLUME_REFERENCE) -> float:
    """Area dominated by the front and bounded by ``reference``."""
    reference_privacy, reference_utility = reference
    keep = (privacy > reference_privacy) & (utility < reference_utility)
    order = np.argsort(-privacy[keep], kind="stable")
    levels = privacy[keep][order]
    best = np.minimum.accumulate(utility[keep][order])
    widths = levels - np.append(levels[1:], reference_privacy)
    return float(np.sum(widths * (reference_utility - best)))


def check_optimize(document: Any, prior: np.ndarray, delta: float) -> list[str]:
    """Check an ``optimization_result`` document against the run's prior and
    privacy bound ``delta``."""
    if not isinstance(document, dict) or document.get("type") != "optimization_result":
        return ["output is not an optimization_result document"]
    if not document.get("points"):
        return ["the front is empty"]
    errors = []
    privacy, utility, matrices = front_arrays(document)
    n = prior.size
    if matrices.shape[1:] != (n, n):
        return [f"front matrices have shape {matrices.shape[1:]}, expected {(n, n)}"]
    if not np.all(np.isfinite(matrices)) or matrices.min() < -STOCHASTIC_TOLERANCE:
        errors.append("a matrix has a negative or non-finite entry")
    column_error = np.abs(matrices.sum(axis=1) - 1.0).max()
    if column_error > STOCHASTIC_TOLERANCE:
        errors.append(f"a matrix is not column-stochastic (column sum off by {column_error:.3g})")
    posterior = max_posteriors(matrices, prior).max()
    if posterior > delta + POSTERIOR_TOLERANCE:
        errors.append(f"max posterior {posterior:.6f} exceeds delta {delta}")
    recorded = max(point["max_posterior"] for point in document["points"])
    if recorded > delta + POSTERIOR_TOLERANCE:
        errors.append(f"recorded max posterior {recorded:.6f} exceeds delta {delta}")
    dominated = int(dominated_mask(privacy, utility).sum())
    if dominated:
        errors.append(f"{dominated} front point(s) are dominated by another")
    return errors


def parse_codes(text: str) -> np.ndarray:
    """Whitespace-separated integer codes as an int64 array."""
    return np.array(text.split(), dtype=np.int64)


def check_disguise(codes: np.ndarray, output: np.ndarray, report: Any,
                   n_categories: int) -> list[str]:
    """Check ``optrr disguise`` output codes and its ``disguise_report``."""
    errors = []
    if output.size != codes.size:
        errors.append(f"{output.size} output codes for {codes.size} input codes")
    if output.size and (output.min() < 0 or output.max() >= n_categories):
        errors.append(f"an output code lies outside [0, {n_categories})")
    if not isinstance(report, dict) or report.get("type") != "disguise_report":
        return errors + ["report is not a disguise_report document"]
    if report.get("n_records") != codes.size:
        errors.append(f"report n_records {report.get('n_records')} != {codes.size}")
    counts = np.bincount(output.clip(0, n_categories - 1), minlength=n_categories)
    if report.get("disguised_counts") != counts.tolist():
        errors.append("report disguised_counts do not match the output codes")
    return errors


def estimate_l1(codes: np.ndarray, report: dict[str, Any], n_categories: int) -> float:
    """L1 distance between the report's reconstruction and the true histogram."""
    truth = np.bincount(codes, minlength=n_categories) / codes.size
    estimate = np.asarray(report["estimate"]["probabilities"], dtype=np.float64)
    return float(np.abs(estimate - truth).sum())


def check_pipeline(result: Any, cold_aggregate: bytes, warm_aggregate: bytes,
                   required_schemes: Iterable[str], n_schemes: int,
                   miners: Iterable[str], seeds: Iterable[int]) -> list[str]:
    """Check a cold ``pipeline_result`` and the warm replay's aggregate."""
    errors = []
    if not isinstance(result, dict) or result.get("type") != "pipeline_result":
        return ["result is not a pipeline_result document"]
    cells = [(cell["scheme"], cell["miner"], int(cell["seed"]))
             for cell in result.get("cells", [])]
    schemes = sorted({scheme for scheme, _, _ in cells})
    missing_schemes = set(required_schemes) - set(schemes)
    if missing_schemes:
        errors.append(f"schemes missing from the grid: {sorted(missing_schemes)}")
    if len(schemes) != n_schemes:
        errors.append(f"{len(schemes)} schemes in the grid, expected {n_schemes}")
    expected = set(product(schemes, miners, seeds))
    if set(cells) != expected or len(cells) != len(expected):
        errors.append(f"{len(cells)} cells present, expected the {len(expected)} "
                      f"scheme x miner x seed cells once each")
    if not cold_aggregate:
        errors.append("the cold run wrote an empty aggregate")
    elif warm_aggregate != cold_aggregate:
        errors.append("the warm replay's aggregate differs from the cold run's")
    return errors


def load_json(path) -> Any:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
