"""Genetic-loop mechanics: operators, determinism, caching, exhaustive search."""

import warnings

import numpy as np
import pytest

from evoknn.dataset import from_rows
from evoknn.ga import (
    GaConfig,
    Individual,
    crossover,
    evolve,
    exhaustive_best,
    fitness,
    init_population,
    mutate,
    tournament_select,
    write_trace,
)
from evoknn.knn import FeatureMask
from evoknn.synth import SynthSpec, generate

from oracles import exhaustive_oracle


def quiet_config(**kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return GaConfig(**kwargs)


def tiny_problem(seed=0):
    spec = SynthSpec(n_classes=3, n_features=6, informative=(1, 4),
                     class_separation=7.0, noise_sd=1.0,
                     train_per_class=5, test_per_class=3, seed=seed)
    return generate(spec)


# ----------------------------------------------------------- config

def test_config_defaults_match_reference_run():
    cfg = quiet_config()
    assert cfg.population_size == 50
    assert cfg.max_generations == 814
    assert cfg.crossover_prob == 1.0
    assert cfg.mutation_prob == 0.9
    assert cfg.alpha == 0.6 and cfg.beta == 0.6
    assert cfg.seed == 12957
    assert cfg.k == 1
    assert cfg.flip_rate(117) == 1.0 / 117
    assert quiet_config(per_bit_flip_rate=0.25).flip_rate(117) == 0.25


def test_config_warns_when_weights_do_not_sum_to_one():
    with pytest.warns(UserWarning, match="alpha \\+ beta"):
        GaConfig(alpha=0.6, beta=0.6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no warning expected here
        GaConfig(alpha=0.4, beta=0.6)


def test_config_validation():
    for bad in (
        dict(population_size=0),
        dict(max_generations=-1),
        dict(crossover_prob=1.5),
        dict(mutation_prob=-0.1),
        dict(per_bit_flip_rate=0.0),
        dict(alpha=-1.0),
        dict(k=0),
        dict(elite_count=50),
        dict(tournament_size=1),
        dict(tournament_size=51),
        dict(stall_generations=0),
    ):
        with pytest.raises(ValueError):
            quiet_config(**bad)


# ----------------------------------------------------------- fitness

def test_fitness_is_alpha_hits_minus_beta_nf():
    train, test = tiny_problem()
    cfg = quiet_config(alpha=0.5, beta=0.25, k=1)
    ch = FeatureMask(np.array([0, 1, 0, 0, 1, 0], dtype=bool))
    fit, hits, nf = fitness(ch, train, test, cfg)
    assert nf == 2
    assert fit == 0.5 * hits - 0.25 * 2


def test_fitness_rejects_empty_chromosome():
    train, test = tiny_problem()
    with pytest.raises(ValueError):
        fitness(FeatureMask(np.zeros(6, dtype=bool)), train, test, quiet_config())


# ----------------------------------------------------------- operators

def test_init_population_shapes_and_no_empty_masks():
    rng = np.random.default_rng(1)
    pop = init_population(quiet_config(population_size=40), 12, rng)
    assert len(pop) == 40
    assert all(ch.length == 12 for ch in pop)
    assert all(ch.active_count >= 1 for ch in pop)


def test_tournament_selection_probabilities_are_exact():
    """Size-2 tournaments over 3 individuals: P = 1/9, 3/9, 5/9 by rank."""
    pop = [
        Individual(FeatureMask(np.array([1, 0, 0], dtype=bool)), 1.0, 0, 1),
        Individual(FeatureMask(np.array([0, 1, 0], dtype=bool)), 2.0, 0, 1),
        Individual(FeatureMask(np.array([0, 0, 1], dtype=bool)), 3.0, 0, 1),
    ]
    cfg = quiet_config(population_size=3, tournament_size=2)
    rng = np.random.default_rng(7)
    draws = 27000
    counts = [0, 0, 0]
    for _ in range(draws):
        winner = tournament_select(pop, cfg, rng)
        counts[int(winner.fitness) - 1] += 1
    assert abs(counts[0] / draws - 1 / 9) < 0.01
    assert abs(counts[1] / draws - 3 / 9) < 0.01
    assert abs(counts[2] / draws - 5 / 9) < 0.01


class _FixedDraws:
    """Stands in for a Generator, returning scripted tournament indices."""

    def __init__(self, values):
        self.values = list(values)

    def integers(self, low, high, size):
        out, self.values = self.values[:size], self.values[size:]
        return np.asarray(out)


def test_tournament_fitness_ties_go_to_the_lower_index():
    pop = [
        Individual(FeatureMask(np.array([1, 0], dtype=bool)), 5.0, 0, 1),
        Individual(FeatureMask(np.array([0, 1], dtype=bool)), 5.0, 0, 1),
        Individual(FeatureMask(np.array([1, 1], dtype=bool)), 1.0, 0, 2),
    ]
    cfg = quiet_config(population_size=3, tournament_size=2)
    # equal fitness: the lower index wins whichever order it was drawn in
    assert tournament_select(pop, cfg, _FixedDraws([0, 1])) is pop[0]
    assert tournament_select(pop, cfg, _FixedDraws([1, 0])) is pop[0]
    # a tournament that never saw index 0 cannot return it
    assert tournament_select(pop, cfg, _FixedDraws([1, 1])) is pop[1]
    assert tournament_select(pop, cfg, _FixedDraws([2, 1])) is pop[1]


def test_crossover_single_point_structure():
    a = FeatureMask(np.zeros(10, dtype=bool))
    b = FeatureMask(np.ones(10, dtype=bool))
    cfg = quiet_config(crossover_prob=1.0)
    rng = np.random.default_rng(3)
    seen_cuts = set()
    for _ in range(200):
        c1, c2 = crossover(a, b, cfg, rng)
        # child 1 is a zero prefix then ones; child 2 the complement
        flips = np.flatnonzero(np.diff(c1.bits.astype(int)))
        assert len(flips) == 1
        cut = int(flips[0]) + 1
        seen_cuts.add(cut)
        assert not c1.bits[:cut].any() and c1.bits[cut:].all()
        assert c2.bits[:cut].all() and not c2.bits[cut:].any()
        # per-position material is conserved
        assert np.array_equal(c1.bits ^ c2.bits, a.bits ^ b.bits)
    assert seen_cuts == set(range(1, 10))  # interior cuts only, all reachable


def test_crossover_disabled_returns_parents():
    a = FeatureMask(np.array([1, 0, 1], dtype=bool))
    b = FeatureMask(np.array([0, 1, 1], dtype=bool))
    cfg = quiet_config(crossover_prob=0.0)
    rng = np.random.default_rng(5)
    for _ in range(20):
        c1, c2 = crossover(a, b, cfg, rng)
        assert c1 == a and c2 == b


def test_mutation_mean_flip_count_is_one_bit():
    length = 20
    base = FeatureMask(np.zeros(length, dtype=bool))
    # popcount-1 repair would skew the count; give the base one set bit
    bits = base.bits.copy()
    bits[0] = True
    base = FeatureMask(bits)
    cfg = quiet_config(mutation_prob=1.0)  # always mutate; default rate 1/L
    rng = np.random.default_rng(11)
    total_flips = 0
    trials = 6000
    for _ in range(trials):
        child = mutate(base, cfg, rng)
        total_flips += int((child.bits ^ base.bits).sum())
    assert abs(total_flips / trials - 1.0) < 0.06


def test_mutation_probability_gate():
    base = FeatureMask(np.array([1, 0, 1, 0], dtype=bool))
    never = quiet_config(mutation_prob=0.0)
    rng = np.random.default_rng(2)
    for _ in range(50):
        assert mutate(base, never, rng) == base


def test_mutation_repairs_all_zero_results():
    base = FeatureMask(np.array([0, 0, 1, 0], dtype=bool))
    cfg = quiet_config(mutation_prob=1.0, per_bit_flip_rate=1.0)
    rng = np.random.default_rng(4)
    for _ in range(100):
        child = mutate(base, cfg, rng)  # flips every bit -> 1110 .. never empty
        assert child.active_count >= 1


def test_mutation_repair_from_certain_extinction():
    base = FeatureMask(np.array([1], dtype=bool))
    cfg = quiet_config(population_size=2, elite_count=0, tournament_size=2,
                       mutation_prob=1.0, per_bit_flip_rate=1.0)
    rng = np.random.default_rng(4)
    for _ in range(50):
        assert mutate(base, cfg, rng).active_count == 1


def test_breeding_repairs_empty_crossover_children():
    """Crossover of sparse parents can cut to an all-zero child; with the
    mutation gate closed the loop must still never evaluate an empty mask."""
    train, test = tiny_problem(seed=9)
    cfg = quiet_config(population_size=10, max_generations=50, seed=13,
                       crossover_prob=1.0, mutation_prob=0.0)
    best, trace, _ = evolve(train, test, cfg)
    assert best.nf >= 1
    assert all(s.best_mask.active_count >= 1 for s in trace)


# ----------------------------------------------------------- evolve

def test_evolve_is_deterministic_for_a_seed():
    train, test = tiny_problem()
    cfg = quiet_config(population_size=12, max_generations=15, seed=99)
    best1, trace1, _ = evolve(train, test, cfg)
    best2, trace2, _ = evolve(train, test, cfg)
    assert best1 == best2
    assert trace1 == trace2

    other = quiet_config(population_size=12, max_generations=15, seed=100)
    _, trace3, _ = evolve(train, test, other)
    assert trace3 != trace1


def test_trace_covers_every_generation_and_stops_on_budget():
    train, test = tiny_problem()
    cfg = quiet_config(population_size=8, max_generations=7, seed=1)
    _, trace, stopped_by = evolve(train, test, cfg)
    assert [s.generation for s in trace] == list(range(8))
    assert stopped_by == "generation_budget"


def test_zero_generation_budget_still_evaluates_the_initial_population():
    train, test = tiny_problem()
    cfg = quiet_config(population_size=8, max_generations=0, seed=1)
    best, trace, _ = evolve(train, test, cfg)
    assert len(trace) == 1
    assert best.fitness == trace[0].best_fitness


def test_stop_on_fitness_halts_early():
    train, test = tiny_problem()
    slow = quiet_config(population_size=10, max_generations=60, seed=2)
    _, full_trace, _ = evolve(train, test, slow)
    target = full_trace[0].best_fitness  # already reached at generation 0
    eager = quiet_config(population_size=10, max_generations=60, seed=2,
                         stop_on_fitness=target)
    _, trace, stopped_by = evolve(train, test, eager)
    assert len(trace) == 1
    assert stopped_by == "target_fitness"


def test_stall_stop_triggers_after_no_improvement():
    train, test = tiny_problem()
    cfg = quiet_config(population_size=10, max_generations=500, seed=3,
                       stall_generations=12)
    best, trace, stopped_by = evolve(train, test, cfg)
    assert len(trace) - 1 < 500
    assert stopped_by == "stalled"
    # the last stall_generations generations brought no better individual
    peak = max(s.best_fitness for s in trace)
    assert best.fitness == peak


def test_stall_reached_at_the_budget_generation_reports_stalled():
    # one informative feature: the generation-0 best is already optimal, so
    # the stall count reaches 3 exactly at the 3-generation budget
    train, test = generate(SynthSpec(n_classes=3, n_features=4, informative=(0,),
                                     train_per_class=5, test_per_class=3, seed=0))
    cfg = quiet_config(alpha=0.5, beta=0.5, max_generations=3, stall_generations=3)
    _, trace, stopped_by = evolve(train, test, cfg)
    assert len(trace) == 4
    assert all(s.best_fitness == trace[0].best_fitness for s in trace)
    assert stopped_by == "stalled"


def test_elitism_keeps_best_fitness_non_decreasing():
    train, test = tiny_problem(seed=8)
    cfg = quiet_config(population_size=14, max_generations=40, seed=21,
                       elite_count=2)
    _, trace, _ = evolve(train, test, cfg)
    values = [s.best_fitness for s in trace]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_on_generation_callback_sees_the_trace():
    train, test = tiny_problem()
    cfg = quiet_config(population_size=8, max_generations=5, seed=1)
    seen = []
    _, trace, _ = evolve(train, test, cfg, on_generation=seen.append)
    assert seen == trace


def test_best_ever_can_precede_the_final_generation():
    # without elitism the population can lose its best; the returned
    # individual must still be the best ever evaluated
    train, test = tiny_problem(seed=4)
    cfg = quiet_config(population_size=6, max_generations=30, seed=17,
                       elite_count=0)
    best, trace, _ = evolve(train, test, cfg)
    assert best.fitness == max(s.best_fitness for s in trace)


def test_write_trace_format(tmp_path):
    train, test = tiny_problem()
    cfg = quiet_config(population_size=8, max_generations=3, seed=1)
    _, trace, _ = evolve(train, test, cfg)
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "generation,best_fitness,median_fitness,min_fitness,best_nf,best_hits,best_mask"
    assert len(lines) == len(trace) + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == trace[0].best_fitness
    assert set(first[6]) <= {"0", "1"} and len(first[6]) == 6


# ----------------------------------------------------------- exhaustive search

def test_exhaustive_best_matches_pure_python_oracle():
    train, test = tiny_problem(seed=6)
    cfg = quiet_config(alpha=0.5, beta=0.3, k=1)
    mask, fit, hits, nf = exhaustive_best(train, test, cfg, max_length=6)
    bits, ofit, ohits, onf = exhaustive_oracle(
        train.features.tolist(), train.labels.tolist(),
        test.features.tolist(), test.labels.tolist(),
        train.feature_count, cfg.alpha, cfg.beta, cfg.k, len(train.classes),
    )
    assert fit == ofit and hits == ohits and nf == onf
    assert tuple(int(b) for b in mask.bits) == bits


def test_exhaustive_best_prefers_fewer_features_on_fitness_ties():
    # class is determined by feature 0 alone, by feature 1 alone, and by
    # both; with beta=0 all three masks tie on fitness, nf breaks the tie
    # and the lexicographically smaller string breaks the remaining pair
    train = from_rows([[0.0, 0.0], [4.0, 4.0]], ["a", "b"])
    test = from_rows([[0.5, 0.5], [3.5, 3.5]], ["a", "b"])
    cfg = quiet_config(alpha=1.0, beta=0.0, k=1)
    mask, fit, hits, nf = exhaustive_best(train, test, cfg, max_length=4)
    assert hits == 2 and nf == 1
    assert mask.to_string() == "01"  # "01" < "10"


def test_exhaustive_guard_rejects_wide_problems():
    wide = from_rows([list(range(16)), list(range(16, 32))], ["a", "b"])
    with pytest.raises(ValueError, match="guard"):
        exhaustive_best(wide, wide, quiet_config(), max_length=15)
