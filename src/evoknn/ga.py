"""Genetic search over binary feature masks, scored by k-NN recognition.

The fitness of an individual is ``alpha * hits - beta * nf``: the number of
correctly recognised evaluation samples, traded off against the number of
active features.  The loop is a canonical generational GA (tournament
selection, single-point crossover, bit-flip mutation, elitism) made fully
reproducible: one seeded generator drives every stochastic draw in a fixed
order.  Individuals are ``FeatureMask`` bit strings, and fitness is a pure
function of the mask, so each distinct mask is scored once per run.

``evolve`` scores a generation's distinct uncached masks through
``knn.mask_predictions``, and ``exhaustive_best`` scores every subset
through ``knn.subset_predictions``; ``knn`` builds, budgets and votes the d2
blocks of both and yields each mask with its row of predictions.
``evolve`` fills one ``knn.term_table`` per run, when it fits
``knn.TERM_BUDGET``, and passes it to ``mask_predictions``, so each
feature's term is computed once per run, not once per chunk of masks.
Both call ``fitness`` on every mask with its row, which returns the mask's
one record, an ``Individual``; that per-mask call stays while the
benchmark's hooks count and time it.

Draw order per run: population init (per mask: L uniform bit coins,
plus one repair index if all bits came up 0), then per bred pair: parent A
tournament indices, parent B tournament indices, crossover coin, cut point
(only when crossing and L >= 2), then for each of the two children a
mutation coin, L flip coins (only when mutating), and one repair index if
the child is all-zero.  The repair applies whether or not the coin fired:
crossover cuts two parents' bit arrays, possibly into an empty child, and
``mutate`` builds each child's one mask after its repair.  Both children
are always drawn even when only one slot remains.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .dataset import ConfigError, Dataset, write_rows
from .knn import (FeatureMask, mask_predictions, recognition_rate, subset_predictions,
                  term_table)


class Individual(NamedTuple):
    """A scored mask: a named tuple, built per subset about 3x faster than a
    frozen dataclass."""

    mask: FeatureMask
    fitness: float
    hits: int
    nf: int


@dataclass(frozen=True)
class GaConfig:
    """Evolution parameters.

    Defaults mirror the reference 117-feature configuration: population 50,
    crossover probability 1.0, per-chromosome mutation probability 0.9,
    alpha = beta = 0.6, k = 1, seed 12957, budget 814 generations.
    ``per_bit_flip_rate=None`` resolves to 1/L at run time.  ``mutation_prob``
    is the probability a chromosome is mutated at all; the flip rate then
    applies independently per bit.  ``stop_on_fitness`` is compared exactly,
    as ``best_fitness >= stop_on_fitness`` in floats: ``0.6 * 46 - 0.6 * 3``
    is ``25.799999999999997``, so 25.8 never fires on a 46-hit, 3-feature
    optimum.  Pass ``repr(alpha * hits - beta * nf)`` as Python computes it.
    ``seed`` must be non-negative, as numpy's generator takes it; a refused
    value is a ``ConfigError`` naming its field.
    """

    population_size: int = 50
    max_generations: int = 814
    crossover_prob: float = 1.0
    mutation_prob: float = 0.9
    per_bit_flip_rate: Optional[float] = None
    alpha: float = 0.6
    beta: float = 0.6
    k: int = 1
    seed: int = 12957
    elite_count: int = 1
    tournament_size: int = 2
    stop_on_fitness: Optional[float] = None
    stall_generations: Optional[int] = None

    def __post_init__(self):
        if self.population_size < 1:
            raise ConfigError("population_size must be positive")
        if self.max_generations < 0:
            raise ConfigError("max_generations must be non-negative")
        for name in ("crossover_prob", "mutation_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1]")
        if self.per_bit_flip_rate is not None and not 0.0 < self.per_bit_flip_rate <= 1.0:
            raise ConfigError("per_bit_flip_rate must be in (0, 1]")
        for name in ("alpha", "beta", "stop_on_fitness"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.alpha < 0 or self.beta < 0:
            raise ConfigError("alpha and beta must be non-negative")
        if self.k < 1:
            raise ConfigError("k must be positive")
        if not 0 <= self.elite_count < self.population_size:
            raise ConfigError("elite_count must be in 0..population_size-1")
        if not 2 <= self.tournament_size <= self.population_size:
            raise ConfigError("tournament_size must be in 2..population_size")
        if self.stall_generations is not None and self.stall_generations < 1:
            raise ConfigError("stall_generations must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")

    def flip_rate(self, length: int) -> float:
        return self.per_bit_flip_rate if self.per_bit_flip_rate is not None else 1.0 / length

    def check_weights(self, train: Dataset, eval_set: Dataset) -> None:
        """Refuse a weight whose fitness could overflow on this problem with a
        ``ConfigError``: ``alpha * eval samples`` and ``beta * features`` must
        be finite.  Then every ``alpha * hits - beta * nf`` is finite, since
        rounding is monotone and it is a difference of two values in [0, MAX].
        ``evolve`` and ``exhaustive_best`` each run it once, before they score
        a mask; ``exhaustive_best`` runs it before its feature-count guard."""
        for name, count in (("alpha", eval_set.n_samples), ("beta", train.feature_count)):
            value = float(getattr(self, name))  # a numpy float would warn on overflow
            if not math.isfinite(value * count):
                raise ConfigError(f"{name} {value!r} times {count} overflows a double: "
                                  "the fitness would not be finite")


class GenerationStats(NamedTuple):
    generation: int
    best_fitness: float
    median_fitness: float
    min_fitness: float
    best_nf: int
    best_hits: int
    best_mask: FeatureMask


TRACE_COLUMNS = GenerationStats._fields


def fitness(
    mask: FeatureMask,
    train: Dataset,
    eval_set: Dataset,
    cfg: GaConfig,
    *,
    predicted: Optional[np.ndarray] = None,
) -> Individual:
    """Evaluate one mask: ``Individual(mask, alpha*hits - beta*nf, hits, nf)``.

    ``predicted``, if given, is the mask's predicted class per evaluation
    sample, passed on to ``recognition_rate`` (which then only counts hits).
    """
    nf = mask.active_count
    hits, _, _ = recognition_rate(train, eval_set, cfg.k, mask, predicted=predicted)
    return Individual(mask, cfg.alpha * hits - cfg.beta * nf, hits, nf)


def _repair(bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    if not bits.any():  # all-zero bits become one uniformly drawn bit, in a new array
        bits = np.arange(bits.size) == rng.integers(0, bits.size)
    return bits


def init_population(cfg: GaConfig, length: int, rng: np.random.Generator) -> list[FeatureMask]:
    """Uniform random masks; all-zero draws get one random bit set."""
    pop = []
    for _ in range(cfg.population_size):
        bits = rng.random(length) < 0.5
        pop.append(FeatureMask(_repair(bits, rng)))
    return pop


def tournament_select(
    pop: list[Individual], cfg: GaConfig, rng: np.random.Generator
) -> Individual:
    """Best of ``tournament_size`` uniform draws (with replacement).

    Fitness ties go to the lower population index, keeping selection a total
    order even when many individuals share a fitness value.
    """
    draws = rng.integers(0, len(pop), size=cfg.tournament_size)
    best = min(draws, key=lambda i: (-pop[i].fitness, i))
    return pop[int(best)]


def crossover(
    a: np.ndarray, b: np.ndarray, cfg: GaConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Single-point crossover of bool bit arrays with probability
    ``crossover_prob``, else the parents themselves.

    The cut position is uniform over 1..L-1, so both children always receive
    material from both parents; length-1 parents have no interior cut and
    pass through unchanged.  A child may be all-zero until ``mutate``.
    """
    if a.size != b.size:
        raise ValueError("parents must have equal length")
    if rng.random() < cfg.crossover_prob and a.size >= 2:
        cut = int(rng.integers(1, a.size))
        return np.concatenate([a[:cut], b[cut:]]), np.concatenate([b[:cut], a[cut:]])
    return a, b


def mutate(bits: np.ndarray, cfg: GaConfig, rng: np.random.Generator) -> FeatureMask:
    """The child ``FeatureMask`` of bool array ``bits``, each bit flipped at
    the per-bit rate with probability ``mutation_prob``.

    An all-zero result, mutated or not, is repaired by setting one uniformly
    chosen bit; ``bits`` itself is left as it is.
    """
    if rng.random() < cfg.mutation_prob:
        bits = bits ^ (rng.random(bits.size) < cfg.flip_rate(bits.size))
    return FeatureMask(_repair(bits, rng))


def _summarize(generation: int, ranked: list[Individual]) -> GenerationStats:
    """Trace entry of a population listed best first."""
    best = ranked[0]
    fits = np.asarray([ind.fitness for ind in ranked])
    return GenerationStats(
        generation=generation,
        best_fitness=best.fitness,
        median_fitness=float(np.median(fits)),
        min_fitness=float(fits.min()),
        best_nf=best.nf,
        best_hits=best.hits,
        best_mask=best.mask,
    )


def evolve(
    train: Dataset,
    eval_set: Dataset,
    cfg: GaConfig,
    on_generation: Optional[Callable[[GenerationStats], None]] = None,
) -> tuple[Individual, list[GenerationStats], str]:
    """Run the generational loop, after ``GaConfig.check_weights``.

    Returns ``(best, trace, stopped_by)``: the best individual ever seen, one
    trace entry per evaluated generation (the initial population included),
    and the stop rule that ended the run.  After each generation is recorded
    the stop rules are checked in order, and the first that holds is
    reported: ``"target_fitness"`` (best fitness reached ``stop_on_fitness``),
    ``"stalled"`` (``stall_generations`` generations without a better best),
    ``"generation_budget"`` (``max_generations`` reached).  Otherwise the
    ``elite_count`` best survive unchanged and the remainder is refilled with
    mutated crossover offspring of tournament winners.
    """
    cfg.check_weights(train, eval_set)
    length = train.feature_count
    rng = np.random.default_rng(cfg.seed)
    cache: dict[FeatureMask, Individual] = {}
    table = term_table(train, eval_set)  # None above knn.TERM_BUDGET: terms per chunk

    def evaluate(masks: list[FeatureMask]) -> list[Individual]:
        fresh = dict.fromkeys(m for m in masks if m not in cache)
        pairs = mask_predictions(train, eval_set, cfg.k, fresh, table=table)
        cache.update((mask, fitness(mask, train, eval_set, cfg, predicted=row))
                     for mask, row in pairs)
        return [cache[mask] for mask in masks]

    population = evaluate(init_population(cfg, length, rng))
    trace: list[GenerationStats] = []
    best_ever: Optional[Individual] = None
    stall = 0

    for gen in itertools.count():
        # best first; sorted is stable, so a fitness tie goes to the lower index
        ranked = sorted(population, key=lambda ind: -ind.fitness)
        stats = _summarize(gen, ranked)
        trace.append(stats)
        if on_generation is not None:
            on_generation(stats)
        if best_ever is None or ranked[0].fitness > best_ever.fitness:
            best_ever = ranked[0]
            stall = 0
        else:
            stall += 1
        if cfg.stop_on_fitness is not None and stats.best_fitness >= cfg.stop_on_fitness:
            return best_ever, trace, "target_fitness"
        if cfg.stall_generations is not None and stall >= cfg.stall_generations:
            return best_ever, trace, "stalled"
        if gen == cfg.max_generations:
            return best_ever, trace, "generation_budget"

        elites = ranked[: cfg.elite_count]
        need = cfg.population_size - len(elites)
        offspring: list[FeatureMask] = []
        while len(offspring) < need:
            pa = tournament_select(population, cfg, rng)
            pb = tournament_select(population, cfg, rng)
            c1, c2 = crossover(pa.mask.bits, pb.mask.bits, cfg, rng)
            offspring += [mutate(c1, cfg, rng), mutate(c2, cfg, rng)]
        population = elites + evaluate(offspring[:need])


EXHAUSTIVE_GUARD = 20


def exhaustive_best(
    train: Dataset, eval_set: Dataset, cfg: GaConfig
) -> tuple[Individual, int]:
    """Evaluate every non-empty feature subset; the global fitness optimum.

    Returns ``(best, scored)``, ``scored`` being the number of subsets
    evaluated.  After ``GaConfig.check_weights``, guarded to
    ``feature_count <= EXHAUSTIVE_GUARD`` since the subset count doubles per
    feature.  Ties are broken by fewer active features, then by the
    lexicographically smaller mask string: ``FeatureMask.key`` orders as the
    text does.
    """
    cfg.check_weights(train, eval_set)
    length = train.feature_count
    if length > EXHAUSTIVE_GUARD:
        raise ValueError(
            f"feature count {length} exceeds the exhaustive guard of {EXHAUSTIVE_GUARD}"
        )
    best = best_key = None  # the smallest key wins
    scored = 0
    for mask, row in subset_predictions(train, eval_set, cfg.k):
        ind = fitness(mask, train, eval_set, cfg, predicted=row)
        scored += 1
        key = (-ind.fitness, ind.nf, ind.mask.key)
        if best is None or key < best_key:
            best, best_key = ind, key
    return best, scored


def write_trace(trace: list[GenerationStats], path) -> None:
    """Write the per-generation trace CSV: one column per ``GenerationStats``
    field, one row per generation, each record's values in order.

    Cells are written by ``dataset.write_rows``, the mask as its 0/1 text.
    """
    write_rows(path, TRACE_COLUMNS, (
        [value.to_string() if isinstance(value, FeatureMask) else value for value in s]
        for s in trace))
