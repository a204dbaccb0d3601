"""A generic SPEA2 implementation (Zitzler, Laumanns & Thiele).

This is the engine the paper customises.  The algorithm keeps two bounded
sets — a *population* of freshly generated offspring and an *archive* of the
best solutions seen so far — and iterates fitness assignment, environmental
selection, mating selection, crossover and mutation.  Those steps 1–5 exist
once, as :func:`spea2_environmental_selection` and :func:`spea2_generation`;
:class:`SPEA2` runs them on any :class:`~repro.emoo.problem.Problem`, and the
OptRR optimizer (:mod:`repro.core.optimizer`) runs the same
:func:`spea2_generation` on the RR-matrix problem and adds the Ω optimal set
and the Warner seeding around it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.emoo.density import pairwise_distances
from repro.emoo.dominance import non_dominated
from repro.emoo.driver import (
    OptimizationDriver,
    StepOutcome,
    SteppableOptimization,
    build_driver,
    population_from_document,
    population_to_document,
    workload_fingerprint,
)
from repro.emoo.fidelity import FidelitySchedule, FidelityScheduler, evaluate_offspring
from repro.emoo.fitness import spea2_fitness_from_arrays
from repro.emoo.population import Population
from repro.emoo.problem import Problem, make_offspring
from repro.emoo.selection import (
    binary_tournament_indices,
    environmental_selection_indices,
)
from repro.emoo.termination import MaxGenerations, TerminationCriterion
from repro.types import SeedLike, as_rng
from repro.utils.logging import get_logger
from repro.utils.validation import check_in_unit_interval, check_positive_int

logger = get_logger(__name__)

#: Callback invoked after each generation with (generation index, archive);
#: the archive is the run's live state, to be read, not modified.
GenerationCallback = Callable[[int, Population], None]


@dataclass(frozen=True)
class SPEA2Settings:
    """Hyper-parameters of the SPEA2 run.

    Parameters
    ----------
    population_size:
        Size ``N_Q`` of the offspring population generated every iteration.
    archive_size:
        Size ``N_V`` of the elite archive kept between iterations.
    crossover_rate:
        Probability that a parent pair undergoes crossover (otherwise the
        parents are copied).
    mutation_rate:
        Probability that each child is mutated.
    density_k:
        Neighbour index used by the density estimator (the paper uses 1).
    """

    population_size: int = 50
    archive_size: int = 50
    crossover_rate: float = 0.9
    mutation_rate: float = 0.3
    density_k: int = 1

    def __post_init__(self) -> None:
        check_positive_int(self.population_size, "population_size")
        check_positive_int(self.archive_size, "archive_size")
        check_in_unit_interval(self.crossover_rate, "crossover_rate")
        check_in_unit_interval(self.mutation_rate, "mutation_rate")
        check_positive_int(self.density_k, "density_k")


def spea2_environmental_selection(
    union: Population, settings: SPEA2Settings, generation: int
) -> Population:
    """Steps 1–2: fitness assignment over ``union`` and environmental
    selection into the archive, stamped with ``generation`` so mating
    selection reuses the fitness instead of re-assigning it.

    The pairwise objective-distance matrix is computed once and shared
    between the density estimator and (via slicing) archive truncation.
    """
    distances = pairwise_distances(union.objectives)
    _, _, fitness = spea2_fitness_from_arrays(
        union.objectives, union.feasible, settings.density_k, distances=distances
    )
    selected = environmental_selection_indices(
        fitness, settings.archive_size, distances=distances
    )
    archive = union.take(selected)
    archive.set_fitness(fitness[selected], generation)
    return archive


def spea2_generation(
    problem: Problem,
    union: Population,
    settings: SPEA2Settings,
    rng: np.random.Generator,
    generation: int,
) -> tuple[Population, np.ndarray]:
    """SPEA2 steps 1–5 for one generation: environmental selection over the
    ``union`` of population and archive, binary-tournament mating selection
    on the stamped archive fitness, and the shared batched variation and
    repair.

    Returns the new archive and the (unevaluated) offspring genome stack.
    """
    archive = spea2_environmental_selection(union, settings, generation)
    fitness = archive.require_fresh_fitness(generation)
    winners = binary_tournament_indices(fitness, settings.population_size, rng)
    offspring = make_offspring(
        problem,
        archive.genomes[winners],
        rng,
        crossover_rate=settings.crossover_rate,
        mutation_rate=settings.mutation_rate,
    )
    return archive, offspring


@dataclass
class SPEA2Result:
    """Outcome of a SPEA2 run.

    Attributes
    ----------
    archive:
        Final archive (bounded elite set).
    front:
        Non-dominated subset of the final archive.
    n_generations:
        Number of generations executed.
    n_evaluations:
        Total number of objective evaluations performed.
    """

    archive: Population
    front: Population
    n_generations: int
    n_evaluations: int


@dataclass
class SPEA2:
    """The SPEA2 evolutionary multi-objective optimizer.

    Parameters
    ----------
    problem:
        The problem to optimise.
    settings:
        Algorithm hyper-parameters.
    termination:
        Stopping rule; defaults to 100 generations.
    seed:
        Random seed or generator.
    fidelity:
        Optional multi-fidelity schedule (see :mod:`repro.emoo.fidelity`):
        offspring are evaluated at reduced fidelity and only the top fraction
        is promoted to a full re-evaluation.  Requires a problem whose
        ``evaluate_population`` supports the ``fidelity`` keyword; ``None``
        keeps the exact single-fidelity path.
    """

    problem: Problem
    settings: SPEA2Settings = field(default_factory=SPEA2Settings)
    termination: TerminationCriterion = field(default_factory=lambda: MaxGenerations(100))
    seed: SeedLike = None
    fidelity: FidelitySchedule | None = None

    def run(self, on_generation: GenerationCallback | None = None) -> SPEA2Result:
        """Run the optimization and return the result.

        Thin wrapper over the stepwise driver (:meth:`driver`): the
        generation loop is array-native — population and archive are
        structure-of-arrays :class:`~repro.emoo.population.Population`
        objects over genome stacks, the per-generation pairwise distance
        matrix is shared between density estimation and truncation, and
        mating selection reuses the stamped environmental-selection fitness
        instead of re-assigning SPEA2 fitness to the archive.
        """
        driver = self.driver()
        algorithm = driver.optimization
        for snapshot in driver.steps():
            if on_generation is not None:
                on_generation(snapshot.generation, algorithm.archive)
        result = driver.result()
        logger.debug(
            "SPEA2 finished after %d generations (%d evaluations, front size %d)",
            result.n_generations,
            result.n_evaluations,
            len(result.front),
        )
        return result

    def driver(
        self,
        *,
        seed: SeedLike = None,
        checkpoint_path: str | None = None,
        checkpoint_every: int | None = None,
        deadline: float | None = None,
    ) -> OptimizationDriver:
        """Build the stepwise driver for this SPEA2 instance.

        Like :meth:`repro.core.optimizer.OptRROptimizer.driver`, an ambient
        :func:`~repro.emoo.driver.checkpoint_scope` is consulted when no
        explicit checkpoint path is given (auto-claiming a checkpoint file
        and resuming from a matching previous one).
        """
        return build_driver(
            _SPEA2Steppable(self),
            termination=self.termination,
            rng=as_rng(seed if seed is not None else self.seed),
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            deadline=deadline,
        )


class _SPEA2Steppable(SteppableOptimization):
    """The SPEA2 generation loop decomposed for the stepwise driver."""

    algorithm_name = "spea2"

    def __init__(self, algorithm: SPEA2) -> None:
        self._algorithm = algorithm
        self.population: Population | None = None
        self.archive: Population | None = None
        self.n_evaluations = 0
        self.fidelity: FidelityScheduler | None = (
            FidelityScheduler(algorithm.fidelity) if algorithm.fidelity is not None else None
        )

    def setup(self, rng: np.random.Generator) -> None:
        algorithm = self._algorithm
        self.population = algorithm.problem.initial_population(
            algorithm.settings.population_size,
            rng,
            fidelity=1.0 if self.fidelity is not None else None,
        )
        self.archive = None
        self.n_evaluations = self.population.size

    def step(self, rng: np.random.Generator, generation: int) -> StepOutcome:
        algorithm = self._algorithm
        union = (
            self.population
            if self.archive is None
            else Population.concat(self.population, self.archive)
        )
        self.archive, stack = spea2_generation(
            algorithm.problem, union, algorithm.settings, rng, generation
        )
        self.population, spent = evaluate_offspring(algorithm.problem, stack, self.fidelity)
        self.n_evaluations += spent
        front = self.archive.objectives[self.archive.feasible]
        if front.shape[0] == 0:
            front = self.archive.objectives
        n_low = self.fidelity.n_low_evaluations if self.fidelity is not None else 0
        return StepOutcome(
            archive_updates=1,
            front_objectives=front,
            n_evaluations=self.n_evaluations,
            n_full_evaluations=self.n_evaluations - n_low,
            n_low_evaluations=n_low,
        )

    def notify_progress(self, elapsed_seconds: float, deadline_seconds: float | None) -> None:
        if self.fidelity is not None:
            self.fidelity.adapt(elapsed_seconds, deadline_seconds)

    def finish(self, generation: int) -> SPEA2Result:
        # Final selection over the last population and archive.
        algorithm = self._algorithm
        final = spea2_environmental_selection(
            Population.concat(self.population, self.archive), algorithm.settings, generation
        )
        return SPEA2Result(
            archive=final,
            front=non_dominated(final),
            n_generations=generation + 1,
            n_evaluations=self.n_evaluations,
        )

    def setup_fingerprint(self) -> str:
        from dataclasses import asdict

        payload = {
            "algorithm": self.algorithm_name,
            "problem": self._algorithm.problem.fingerprint_document(),
            "settings": asdict(self._algorithm.settings),
        }
        # Keyed only when scheduling is on, so fingerprints of plain runs
        # stay identical to pre-fidelity checkpoints.
        if self._algorithm.fidelity is not None:
            payload["fidelity"] = asdict(self._algorithm.fidelity)
        return workload_fingerprint(payload)

    def state_document(self) -> dict:
        document = {
            "population": population_to_document(self.population),
            "archive": (
                population_to_document(self.archive) if self.archive is not None else None
            ),
            "n_evaluations": self.n_evaluations,
        }
        if self.fidelity is not None:
            document["fidelity"] = self.fidelity.state_document()
        return document

    def restore_state(self, document: dict) -> None:
        self.population = population_from_document(document["population"])
        archive_document = document.get("archive")
        self.archive = (
            population_from_document(archive_document)
            if archive_document is not None
            else None
        )
        self.n_evaluations = int(document["n_evaluations"])
        fidelity_state = document.get("fidelity")
        if self.fidelity is not None and fidelity_state is not None:
            self.fidelity.restore_state(fidelity_state)
