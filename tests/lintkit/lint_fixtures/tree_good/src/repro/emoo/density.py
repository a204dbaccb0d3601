"""RL006 fixture (fixed): distances call the kernel on the single instance."""

from repro.backend import active_backend


def pairwise_distances(points):
    return active_backend().pairwise_distances(points)
