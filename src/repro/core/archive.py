"""The optimal set Ω (Section V-H of the paper).

SPEA2's archive and population are bounded, so good RR matrices are discarded
when the front gets crowded.  The paper's fix is an additional *optimal set*
Ω: a large array of slots indexed by (discretised) privacy value, each slot
keeping the matrix with the best utility seen so far at that privacy level.
Updating Ω is O(1) per candidate, so its size can be much larger than the
archive without affecting the cubic environmental-selection cost.

Ω is stored like a :class:`~repro.emoo.population.Population` with one row
per slot: a ``(size, n, n)`` genome stack, objectives, feasibility and
metadata columns.  The per-slot utility array (``+inf`` = empty slot) is
both the vectorized pre-filter of every offer and the occupancy mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.emoo.dominance import non_dominated
from repro.emoo.population import Population
from repro.exceptions import OptimizationError, ValidationError
from repro.utils.arrays import decode_array, encode_array
from repro.utils.validation import check_positive_int


def _copy_rows(
    target: Population, target_rows: np.ndarray, source: Population, source_rows: np.ndarray
) -> None:
    """Overwrite ``target``'s rows with ``source``'s (fitness untouched)."""
    target.genomes[target_rows] = source.genomes[source_rows]
    target.objectives[target_rows] = source.objectives[source_rows]
    target.feasible[target_rows] = source.feasible[source_rows]
    for key, column in target.metadata.items():
        column[target_rows] = source.metadata[key][source_rows]


def _metadata_columns(document: dict[str, Any], count: int) -> dict[str, np.ndarray]:
    """Decode the ``metadata`` entry of an Ω state document into columns.

    Ω writes one byte array per column.  Checkpoints written before the
    columnar Ω could instead hold the JSON rows of a ``__rows__`` entry
    (written after any resume); they are still read.
    """
    if "__rows__" in document:
        rows = document["__rows__"]
        if len(rows) != count or not all(isinstance(row, dict) for row in rows):
            raise ValidationError("malformed optimal-set metadata rows")
        return {key: np.asarray([row[key] for row in rows]) for key in rows[0]}
    columns = {}
    for key, entry in document.items():
        if not isinstance(entry, dict) or "column" not in entry:
            raise ValidationError(f"unknown optimal-set metadata layout for {key!r}")
        columns[key] = decode_array(entry["column"])
    return columns


@dataclass
class OptimalSet:
    """Privacy-indexed store of the best matrices found so far.

    Parameters
    ----------
    size:
        Number of privacy slots (``N_Ω``).  The privacy range ``[0, 1]`` is
        divided uniformly; a matrix with privacy ``p`` lands in slot
        ``floor(p * size)``.
    """

    size: int = 1000

    def __post_init__(self) -> None:
        check_positive_int(self.size, "size")
        self._utilities = np.full(self.size, np.inf)
        # One row per slot, allocated by the first _store.
        self._rows: Population | None = None
        self._n_updates = 0
        # (n_updates, document) pair reused by state_document while Ω is quiet.
        self._state_cache: tuple[int, dict[str, Any]] | None = None

    def slots_of(self, privacy: np.ndarray) -> np.ndarray:
        """Slot index of every value of a privacy array."""
        privacy = np.asarray(privacy, dtype=np.float64)
        if privacy.size and not np.all(np.isfinite(privacy)):
            raise OptimizationError("privacy values must be finite")
        indices = np.floor(np.clip(privacy, 0.0, 1.0) * self.size).astype(np.intp)
        return np.minimum(indices, self.size - 1)

    def _store(self, source: Population, rows: np.ndarray, slots: np.ndarray) -> None:
        """Copy ``source``'s ``rows`` into ``slots``, allocating the slot
        rows with ``source``'s shapes and dtypes on first use."""
        if self._rows is None:
            def empty(column: np.ndarray) -> np.ndarray:
                return np.zeros((self.size, *column.shape[1:]), dtype=column.dtype)

            self._rows = Population(
                genomes=empty(source.genomes),
                objectives=empty(source.objectives),
                feasible=empty(source.feasible),
                metadata={key: empty(column) for key, column in source.metadata.items()},
            )
        _copy_rows(self._rows, slots, source, rows)

    # -- updates ---------------------------------------------------------------
    def offer_population(self, population: Population) -> int:
        """Offer every row of a population; returns the number of accepted
        updates.

        A feasible row with a finite ``utility`` replaces the occupant of its
        ``privacy`` slot when the slot is empty or the row's utility is
        strictly lower.  Decisions and the count equal offering the rows one
        at a time: one comparison against the slot utilities pre-filters the
        batch (they only ever decrease), and a short loop re-checks the
        survivors in row order.
        """
        try:
            utility = np.asarray(population.metadata["utility"], dtype=np.float64)
            privacy = population.metadata["privacy"]
        except KeyError as exc:
            raise OptimizationError(
                "populations offered to the optimal set must carry 'privacy' "
                "and 'utility' metadata"
            ) from exc
        if self._rows is not None and set(population.metadata) != set(self._rows.metadata):
            raise OptimizationError(
                "offered metadata columns differ from the optimal set's "
                f"({sorted(population.metadata)} != {sorted(self._rows.metadata)})"
            )
        candidates = np.flatnonzero(population.feasible & np.isfinite(utility))
        slots = self.slots_of(privacy[candidates])
        winners: dict[int, int] = {}  # slot -> last accepted row
        updates = 0
        for local in np.flatnonzero(utility[candidates] < self._utilities[slots]):
            row, slot = int(candidates[local]), int(slots[local])
            # Re-check: an earlier row of this batch may have taken the slot.
            if utility[row] < self._utilities[slot]:
                self._utilities[slot] = utility[row]
                winners[slot] = row
                updates += 1
        if updates:
            count = len(winners)
            self._store(
                population,
                np.fromiter(winners.values(), np.intp, count),
                np.fromiter(winners, np.intp, count),
            )
            self._n_updates += updates
        return updates

    def refresh(self, population: Population) -> None:
        """Overwrite, in place, every feasible row of ``population`` whose
        slot holds a strictly better occupant with that occupant (the
        reverse direction of the Ω update).  Replaced rows keep their
        selection fitness, so the population's stamp stays truthful."""
        rows = np.flatnonzero(population.feasible)
        slots = self.slots_of(population.metadata["privacy"][rows])
        better = self._utilities[slots] < population.metadata["utility"][rows]
        if better.any():
            assert self._rows is not None  # a finite slot utility implies a row
            _copy_rows(population, rows[better], self._rows, slots[better])

    # -- checkpointing ---------------------------------------------------------
    def state_document(self) -> dict[str, Any]:
        """Serialize Ω bit-exactly for a ``checkpoint`` document: the
        occupied slots, plus one base64 byte array each for their genomes,
        objectives, feasibility and every metadata column.

        Cached keyed by :attr:`n_updates`: Ω only changes through accepted
        offers, so checkpoints taken while it is quiet reuse the document.
        """
        cached = self._state_cache
        if cached is not None and cached[0] == self._n_updates:
            return cached[1]
        members = self.members()
        document: dict[str, Any] = {
            "size": self.size,
            "n_updates": self._n_updates,
            "slots": np.flatnonzero(np.isfinite(self._utilities)).tolist(),
        }
        if members.size:
            document["genomes"] = encode_array(members.genomes)
            document["objectives"] = encode_array(members.objectives)
            document["feasible"] = encode_array(members.feasible)
            document["metadata"] = {
                key: {"column": encode_array(column)}
                for key, column in members.metadata.items()
            }
        self._state_cache = (self._n_updates, document)
        return document

    def restore_state(self, document: dict[str, Any]) -> None:
        """Restore the state captured by :meth:`state_document`; the slot
        utilities are rebuilt from the ``utility`` column."""
        if int(document["size"]) != self.size:
            raise OptimizationError(
                f"checkpointed optimal set has {document['size']} slots, this one {self.size}"
            )
        self._utilities = np.full(self.size, np.inf)
        self._rows = None
        self._n_updates = int(document.get("n_updates", 0))
        self._state_cache = None
        slots = np.asarray(document.get("slots", []), dtype=np.intp)
        if slots.size:
            members = Population(
                genomes=decode_array(document["genomes"]),
                objectives=decode_array(document["objectives"]),
                feasible=decode_array(document["feasible"]),
                metadata=_metadata_columns(document.get("metadata", {}), slots.size),
            )
            self._store(members, np.arange(slots.size), slots)
            self._utilities[slots] = members.metadata["utility"]

    # -- views ------------------------------------------------------------------
    def slot_utilities(self) -> np.ndarray:
        """Read-only view of the per-slot utilities (+inf = empty slot)."""
        view = self._utilities.view()
        view.flags.writeable = False
        return view

    @property
    def n_updates(self) -> int:
        """Total number of accepted updates since creation."""
        return self._n_updates

    @property
    def n_occupied(self) -> int:
        """Number of non-empty slots."""
        return int(np.count_nonzero(np.isfinite(self._utilities)))

    def __len__(self) -> int:
        return self.n_occupied

    def members(self) -> Population:
        """The stored rows, in privacy-slot order."""
        if self._rows is None:
            return Population(
                genomes=np.empty(0), objectives=np.empty((0, 0)), feasible=np.empty(0)
            )
        return self._rows.take(np.flatnonzero(np.isfinite(self._utilities)))

    def pareto_members(self) -> Population:
        """The non-dominated subset of the stored rows, in slot order."""
        return non_dominated(self.members())
