"""RL006 fixture (fixed): evaluation calls the kernel on the single instance."""

from repro.backend import active_backend
from repro.utils.linalg import DEFAULT_CONDITION_LIMIT


def evaluate_stack(stack, prior, n_records):
    kernels = active_backend()
    return kernels.evaluate_stack(
        stack,
        prior,
        n_records,
        condition_limit=DEFAULT_CONDITION_LIMIT,
    )
