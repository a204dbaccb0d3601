"""The sequential optimal set Ω: one ``Individual`` per slot, offered one
candidate at a time.  :mod:`oracles.optrr_loop` runs on it, and the property
tests check the columnar :class:`repro.core.archive.OptimalSet` against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import OptimizationError
from repro.utils.validation import check_positive_int

from oracles.individual import Individual, non_dominated


@dataclass
class SequentialOptimalSet:
    """Privacy-indexed store of the best individuals found so far; a
    candidate with privacy ``p`` lands in slot ``floor(p * size)``."""

    size: int = 1000

    def __post_init__(self) -> None:
        check_positive_int(self.size, "size")
        self._slots: list[Individual | None] = [None] * self.size
        self._utilities = np.full(self.size, np.inf)
        self._n_updates = 0

    def slot_of(self, privacy: float) -> int:
        """Slot index of a privacy value."""
        if not np.isfinite(privacy):
            raise OptimizationError(f"privacy must be finite, got {privacy}")
        index = int(np.floor(np.clip(privacy, 0.0, 1.0) * self.size))
        return min(index, self.size - 1)

    def offer(self, individual: Individual) -> bool:
        """Offer a candidate carrying ``privacy``/``utility`` metadata; it
        replaces the occupant of its slot when the slot is empty or its
        utility is strictly lower (infeasible candidates are ignored).
        Returns True when Ω was updated."""
        if not individual.feasible:
            return False
        try:
            privacy = float(individual.metadata["privacy"])
            utility = float(individual.metadata["utility"])
        except KeyError as exc:
            raise OptimizationError(
                "individuals offered to the optimal set must carry 'privacy' "
                "and 'utility' metadata"
            ) from exc
        if not np.isfinite(utility):
            return False
        slot = self.slot_of(privacy)
        occupant = self._slots[slot]
        if occupant is None or utility < float(occupant.metadata["utility"]):
            self._slots[slot] = individual.copy()
            self._utilities[slot] = utility
            self._n_updates += 1
            return True
        return False

    def offer_many(self, individuals: list[Individual]) -> int:
        """Offer a batch of candidates; returns the number of accepted updates."""
        return sum(1 for individual in individuals if self.offer(individual))

    def best_for_slot(self, slot: int) -> Individual | None:
        """Current occupant of ``slot`` (None when empty)."""
        if not 0 <= slot < self.size:
            raise OptimizationError(f"slot {slot} out of range [0, {self.size})")
        return self._slots[slot]

    def slot_utilities(self) -> np.ndarray:
        """The per-slot utilities (+inf = empty slot)."""
        return self._utilities.copy()

    @property
    def n_updates(self) -> int:
        """Total number of accepted updates since creation."""
        return self._n_updates

    @property
    def n_occupied(self) -> int:
        """Number of non-empty slots."""
        return sum(1 for slot in self._slots if slot is not None)

    def members(self) -> list[Individual]:
        """All stored individuals, ordered by privacy slot."""
        return [slot for slot in self._slots if slot is not None]

    def pareto_members(self) -> list[Individual]:
        """The non-dominated subset of the stored individuals."""
        return non_dominated(self.members())
