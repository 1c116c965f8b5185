"""Genetic-loop mechanics: operators, determinism, caching, exhaustive search."""

import dataclasses
import gc
import hashlib
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evoknn import ga, knn
from evoknn.dataset import ConfigError, Dataset, from_rows
from evoknn.ga import (
    GaConfig,
    GenerationStats,
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


def tiny_problem(seed=0):
    spec = SynthSpec(n_classes=3, n_features=6, informative=(1, 4),
                     class_separation=7.0, noise_sd=1.0,
                     train_per_class=5, test_per_class=3, seed=seed)
    return generate(spec)


# ----------------------------------------------------------- config

def test_config_defaults_match_reference_run():
    cfg = GaConfig()
    assert cfg.population_size == 50
    assert cfg.max_generations == 814
    assert cfg.crossover_prob == 1.0
    assert cfg.mutation_prob == 0.9
    assert cfg.alpha == 0.6 and cfg.beta == 0.6
    assert cfg.seed == 12957
    assert cfg.k == 1
    assert cfg.flip_rate(117) == 1.0 / 117
    assert GaConfig(per_bit_flip_rate=0.25).flip_rate(117) == 0.25


def test_config_accepts_weights_that_do_not_sum_to_one_without_a_warning():
    # the fitness only ranks masks, so alpha + beta need not be 1: the
    # paper's alpha = beta = 0.6 raises no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        GaConfig(alpha=0.6, beta=0.6)


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
        dict(alpha=float("nan")),
        dict(beta=float("inf")),
        dict(stop_on_fitness=float("nan")),
    ):
        with pytest.raises(ConfigError):
            GaConfig(**bad)


# ----------------------------------------------------------- fitness

def test_fitness_is_alpha_hits_minus_beta_nf():
    train, test = tiny_problem()
    cfg = GaConfig(alpha=0.5, beta=0.25, k=1)
    ch = FeatureMask(np.array([0, 1, 0, 0, 1, 0], dtype=bool))
    _, fit, hits, nf = fitness(ch, train, test, cfg)
    assert nf == 2
    assert fit == 0.5 * hits - 0.25 * 2


def test_fitness_rejects_empty_chromosome():
    train, test = tiny_problem()
    with pytest.raises(ValueError):
        fitness(FeatureMask(np.zeros(6, dtype=bool)), train, test, GaConfig())


# ----------------------------------------------------------- operators

def test_init_population_shapes_and_no_empty_masks():
    rng = np.random.default_rng(1)
    pop = init_population(GaConfig(population_size=40), 12, rng)
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
    cfg = GaConfig(population_size=3, tournament_size=2)
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
    cfg = GaConfig(population_size=3, tournament_size=2)
    # equal fitness: the lower index wins whichever order it was drawn in
    assert tournament_select(pop, cfg, _FixedDraws([0, 1])) is pop[0]
    assert tournament_select(pop, cfg, _FixedDraws([1, 0])) is pop[0]
    # a tournament that never saw index 0 cannot return it
    assert tournament_select(pop, cfg, _FixedDraws([1, 1])) is pop[1]
    assert tournament_select(pop, cfg, _FixedDraws([2, 1])) is pop[1]


def test_crossover_single_point_structure():
    a = np.zeros(10, dtype=bool)
    b = np.ones(10, dtype=bool)
    cfg = GaConfig(crossover_prob=1.0)
    rng = np.random.default_rng(3)
    seen_cuts = set()
    for _ in range(200):
        c1, c2 = crossover(a, b, cfg, rng)
        # child 1 is a zero prefix then ones; child 2 the complement
        flips = np.flatnonzero(np.diff(c1.astype(int)))
        assert len(flips) == 1
        cut = int(flips[0]) + 1
        seen_cuts.add(cut)
        assert not c1[:cut].any() and c1[cut:].all()
        assert c2[:cut].all() and not c2[cut:].any()
        # per-position material is conserved
        assert np.array_equal(c1 ^ c2, a ^ b)
    assert seen_cuts == set(range(1, 10))  # interior cuts only, all reachable


def test_crossover_disabled_returns_parents():
    a = np.array([1, 0, 1], dtype=bool)
    b = np.array([0, 1, 1], dtype=bool)
    cfg = GaConfig(crossover_prob=0.0)
    rng = np.random.default_rng(5)
    for _ in range(20):
        c1, c2 = crossover(a, b, cfg, rng)
        assert np.array_equal(c1, a) and np.array_equal(c2, b)
    with pytest.raises(ValueError, match="parents must have equal length"):
        crossover(a, b[:2], cfg, rng)


def test_crossover_can_cut_an_all_zero_child_that_mutate_repairs():
    # 10 and 01 cut at their one interior point give 11 and 00: the empty
    # child is a bit array, no mask, until mutate repairs it
    a, b = np.array([1, 0], dtype=bool), np.array([0, 1], dtype=bool)
    cfg = GaConfig(crossover_prob=1.0, mutation_prob=0.0)
    rng = np.random.default_rng(8)
    c1, c2 = crossover(a, b, cfg, rng)
    assert c1.tolist() == [True, True] and c2.tolist() == [False, False]
    with pytest.raises(ValueError, match="no active features"):
        FeatureMask(c2)
    # the gate is shut, so only the repair acts: one uniformly drawn bit
    repaired = {mutate(c2, cfg, rng).to_string() for _ in range(20)}
    assert repaired == {"10", "01"}
    assert not c2.any()  # mutate left its argument as it was


def test_mutation_mean_flip_count_is_one_bit():
    length = 20
    base = np.zeros(length, dtype=bool)
    # popcount-1 repair would skew the count; give the base one set bit
    base[0] = True
    cfg = GaConfig(mutation_prob=1.0)  # always mutate; default rate 1/L
    rng = np.random.default_rng(11)
    total_flips = 0
    trials = 6000
    for _ in range(trials):
        child = mutate(base, cfg, rng)
        total_flips += int((child.bits ^ base).sum())
    assert abs(total_flips / trials - 1.0) < 0.06


def test_mutation_probability_gate():
    base = np.array([1, 0, 1, 0], dtype=bool)
    never = GaConfig(mutation_prob=0.0)
    rng = np.random.default_rng(2)
    for _ in range(50):
        assert mutate(base, never, rng) == FeatureMask(base)


def test_mutation_repairs_all_zero_results():
    base = np.array([0, 0, 1, 0], dtype=bool)
    cfg = GaConfig(mutation_prob=1.0, per_bit_flip_rate=1.0)
    rng = np.random.default_rng(4)
    for _ in range(100):
        child = mutate(base, cfg, rng)  # flips every bit -> 1110 .. never empty
        assert child.active_count >= 1


def test_mutation_repair_from_certain_extinction():
    base = np.array([1], dtype=bool)
    cfg = GaConfig(population_size=2, elite_count=0, tournament_size=2,
                   mutation_prob=1.0, per_bit_flip_rate=1.0)
    rng = np.random.default_rng(4)
    for _ in range(50):
        assert mutate(base, cfg, rng).active_count == 1


def test_breeding_repairs_empty_crossover_children():
    """Crossover of sparse parents can cut to an all-zero child; with the
    mutation gate closed the loop must still never evaluate an empty mask."""
    train, test = tiny_problem(seed=9)
    cfg = GaConfig(population_size=10, max_generations=50, seed=13,
                   crossover_prob=1.0, mutation_prob=0.0)
    best, trace, _ = evolve(train, test, cfg)
    assert best.nf >= 1
    assert all(s.best_mask.active_count >= 1 for s in trace)


# ----------------------------------------------------------- evolve

def test_evolve_is_deterministic_for_a_seed():
    train, test = tiny_problem()
    cfg = GaConfig(population_size=12, max_generations=15, seed=99)
    best1, trace1, _ = evolve(train, test, cfg)
    best2, trace2, _ = evolve(train, test, cfg)
    assert best1 == best2
    assert trace1 == trace2

    other = GaConfig(population_size=12, max_generations=15, seed=100)
    _, trace3, _ = evolve(train, test, other)
    assert trace3 != trace1


def test_trace_covers_every_generation_and_stops_on_budget():
    train, test = tiny_problem()
    cfg = GaConfig(population_size=8, max_generations=7, seed=1)
    _, trace, stopped_by = evolve(train, test, cfg)
    assert [s.generation for s in trace] == list(range(8))
    assert stopped_by == "generation_budget"


def test_zero_generation_budget_still_evaluates_the_initial_population():
    train, test = tiny_problem()
    cfg = GaConfig(population_size=8, max_generations=0, seed=1)
    best, trace, _ = evolve(train, test, cfg)
    assert len(trace) == 1
    assert best.fitness == trace[0].best_fitness


def test_stop_on_fitness_halts_early():
    train, test = tiny_problem()
    slow = GaConfig(population_size=10, max_generations=60, seed=2)
    _, full_trace, _ = evolve(train, test, slow)
    target = full_trace[0].best_fitness  # already reached at generation 0
    eager = GaConfig(population_size=10, max_generations=60, seed=2,
                     stop_on_fitness=target)
    _, trace, stopped_by = evolve(train, test, eager)
    assert len(trace) == 1
    assert stopped_by == "target_fitness"


def test_stop_on_fitness_is_compared_exactly_as_a_float():
    # the optimum is {1, 4} at 9/9 hits: 0.6 * 9 - 0.6 * 2 is 4.199999999999999,
    # so its repr fires the stop and the decimal 4.2 is never reached
    train, test = tiny_problem(seed=2)
    best, _ = exhaustive_best(train, test, GaConfig())
    assert (best.mask.to_index_string(), best.hits, best.nf) == ("1,4", 9, 2)
    target = repr(0.6 * 9 - 0.6 * 2)
    assert target == "4.199999999999999" == repr(best.fitness)
    for text, stop in ((target, "target_fitness"), ("4.2", "generation_budget")):
        cfg = GaConfig(population_size=10, max_generations=30, seed=1,
                       stop_on_fitness=float(text))
        found, trace, stopped_by = evolve(train, test, cfg)
        assert (stopped_by, found) == (stop, best), text
    assert len(trace) == 31  # the decimal target ran out the 30-generation budget


def test_stall_stop_triggers_after_no_improvement():
    train, test = tiny_problem()
    cfg = GaConfig(population_size=10, max_generations=500, seed=3,
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
    cfg = GaConfig(alpha=0.5, beta=0.5, max_generations=3, stall_generations=3)
    _, trace, stopped_by = evolve(train, test, cfg)
    assert len(trace) == 4
    assert all(s.best_fitness == trace[0].best_fitness for s in trace)
    assert stopped_by == "stalled"


def test_elitism_keeps_best_fitness_non_decreasing():
    train, test = tiny_problem(seed=8)
    cfg = GaConfig(population_size=14, max_generations=40, seed=21,
                   elite_count=2)
    _, trace, _ = evolve(train, test, cfg)
    values = [s.best_fitness for s in trace]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_on_generation_callback_sees_the_trace():
    train, test = tiny_problem()
    cfg = GaConfig(population_size=8, max_generations=5, seed=1)
    seen = []
    _, trace, _ = evolve(train, test, cfg, on_generation=seen.append)
    assert seen == trace


def test_best_ever_can_precede_the_final_generation():
    # without elitism the population can lose its best; the returned
    # individual must still be the best ever evaluated
    train, test = tiny_problem(seed=4)
    cfg = GaConfig(population_size=6, max_generations=30, seed=17,
                   elite_count=0)
    best, trace, _ = evolve(train, test, cfg)
    assert best.fitness == max(s.best_fitness for s in trace)


def test_write_trace_format(tmp_path):
    train, test = tiny_problem()
    cfg = GaConfig(population_size=8, max_generations=3, seed=1)
    _, trace, _ = evolve(train, test, cfg)
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "generation,best_fitness,median_fitness,min_fitness,best_nf,best_hits,best_mask"
    assert lines[0].split(",") == [f.name for f in dataclasses.fields(GenerationStats)]
    assert len(lines) == len(trace) + 1
    # every cell reads back as the value it was written from
    for line, stats in zip(lines[1:], trace):
        generation, best, median, least, nf, hits, mask = line.split(",")
        assert GenerationStats(int(generation), float(best), float(median), float(least),
                               int(nf), int(hits), FeatureMask.from_string(mask)) == stats
    assert lines[1].split(",")[0] == "0"
    assert all(len(line.split(",")[6]) == 6 for line in lines[1:])


# ----------------------------------------------------------- exhaustive search

def test_exhaustive_best_matches_pure_python_oracle():
    train, test = tiny_problem(seed=6)
    cfg = GaConfig(alpha=0.5, beta=0.3, k=1)
    best, scored = exhaustive_best(train, test, cfg)
    mask, fit, hits, nf = best
    bits, ofit, ohits, onf = exhaustive_oracle(
        train.features.tolist(), train.labels.tolist(),
        test.features.tolist(), test.labels.tolist(),
        train.feature_count, cfg.alpha, cfg.beta, cfg.k, len(train.classes),
    )
    assert best == fitness(best.mask, train, test, cfg)
    assert fit == ofit and hits == ohits and nf == onf
    assert tuple(int(b) for b in mask.bits) == bits
    assert scored == 63


def test_exhaustive_best_prefers_fewer_features_on_fitness_ties():
    # class is determined by feature 0 alone, by feature 1 alone, and by
    # both; with beta=0 all three masks tie on fitness, nf breaks the tie
    # and the lexicographically smaller string breaks the remaining pair
    train = from_rows([[0.0, 0.0], [4.0, 4.0]], ["a", "b"])
    test = from_rows([[0.5, 0.5], [3.5, 3.5]], ["a", "b"])
    cfg = GaConfig(alpha=1.0, beta=0.0, k=1)
    (mask, fit, hits, nf), scored = exhaustive_best(train, test, cfg)
    assert hits == 2 and nf == 1 and scored == 3
    assert mask.to_string() == "01"  # "01" < "10"


def test_exhaustive_guard_rejects_wide_problems():
    wider = from_rows([list(range(21)), list(range(21, 42))], ["a", "b"])
    with pytest.raises(ValueError, match="guard of 20") as refused:
        exhaustive_best(wider, wider, GaConfig())
    # the guard is the problem's size, not a parameter: a data error on the CLI
    assert not isinstance(refused.value, ConfigError)


def test_exhaustive_best_refuses_a_training_set_without_features():
    # Dataset refuses it when it is built, so neither search can be given one
    with pytest.raises(ValueError, match="at least one sample and one feature"):
        Dataset(np.empty((2, 0)), [0, 1], ("a", "b"))


@pytest.mark.parametrize("alpha, beta, named", [
    (1e308, 1e308, "alpha 1e+308 times 2"), (0.6, 1e308, "beta 1e+308 times 3"),
    (1e308, 0.0, "alpha 1e+308 times 2")])
def test_both_searches_refuse_weights_whose_fitness_overflows(monkeypatch, alpha, beta,
                                                               named):
    # finite weights whose products pass the largest double gave a NaN or
    # infinite fitness; each search refuses them before it scores a mask
    train = from_rows([[0, 0, 0], [1, 1, 1], [4, 4, 4], [5, 5, 5]], ["a", "a", "b", "b"])
    test = from_rows([[0, 0, 0], [5, 5, 5]], ["a", "b"])
    monkeypatch.setattr(ga, "fitness", None)  # any scoring would raise a TypeError
    cfg = GaConfig(population_size=4, max_generations=1, alpha=alpha, beta=beta)
    for search in (evolve, exhaustive_best):
        with pytest.raises(ConfigError, match=re.escape(f"{named} overflows a double")):
            search(train, test, cfg)
    # on a problem past the exhaustive guard, the weights are refused first
    wide = from_rows([list(range(21)), list(range(21, 42))], ["a", "b"])
    with pytest.raises(ConfigError, match="overflows a double"):
        exhaustive_best(wide, wide, GaConfig(alpha=1e308, beta=1e308))


def test_weights_just_inside_the_bound_give_a_finite_fitness():
    # alpha * 2 eval samples is the largest double and beta * 3 features is
    # finite, so every score is
    train = from_rows([[0, 0, 0], [1, 1, 1], [4, 4, 4], [5, 5, 5]], ["a", "a", "b", "b"])
    test = from_rows([[0, 0, 0], [5, 5, 5]], ["a", "b"])
    cfg = GaConfig(alpha=np.finfo(float).max / 2, beta=np.finfo(float).max / 4)
    best, scored = exhaustive_best(train, test, cfg)
    assert scored == 7 and np.isfinite(best.fitness)


@pytest.mark.parametrize("width", [5, 2])
def test_an_eval_set_of_another_width_is_refused_by_both_searches(width):
    # the oracle once scored a wider eval set on its first 3 columns and
    # raised an IndexError on a narrower one
    train = from_rows([[0, 0, 0], [1, 1, 1], [4, 4, 4], [5, 5, 5]], ["a", "a", "b", "b"])
    test = from_rows([[0] * width, [5] * width], ["a", "b"])
    for search in (evolve, exhaustive_best):
        with pytest.raises(ValueError, match="training set's 3 features"):
            search(train, test, GaConfig(population_size=4, max_generations=1))


def block_budget(train, test, b):
    """A ``D2_BUDGET`` that gives ``exhaustive_best`` a block of 2**b rows;
    b = -1 gives one byte less than one d2 matrix, which floors to b = 0."""
    matrix = 8 * test.n_samples * train.n_samples
    return (1 << b) * matrix if b >= 0 else matrix - 1


def scored_by_fitness(monkeypatch):
    """Wrap ``ga.fitness`` to log every ``(mask, result)`` it returns."""
    log = []
    inner = ga.fitness

    def logged(*args, **kwargs):
        result = inner(*args, **kwargs)
        log.append((args[0], result))
        return result

    monkeypatch.setattr(ga, "fitness", logged)
    return log


@pytest.mark.parametrize("b", [-1, 0, 2, 6])
def test_exhaustive_best_scores_every_subset_exactly_once(monkeypatch, b):
    # b = 0 visits every subset as a low set, b = 6 fills one block of all 6
    # features, b = 2 splits them; b = -1, a budget below one d2 matrix,
    # floors to blocks of one row as b = 0 does
    train, test = tiny_problem(seed=3)
    monkeypatch.setattr(knn, "D2_BUDGET", block_budget(train, test, b))
    log = scored_by_fitness(monkeypatch)
    rows, vote = [], knn._vote

    def counted_vote(block, *args):
        rows.append(len(block))
        return vote(block, *args)

    monkeypatch.setattr(knn, "_vote", counted_vote)
    _, scored = exhaustive_best(train, test, GaConfig(alpha=0.5, beta=0.5))
    masks = [mask.to_string() for mask, _ in log]
    assert scored == len(masks) == sum(rows) == 63
    assert sorted(masks) == [format(m, "06b") for m in range(1, 64)]
    # one block per low set, the empty one without its empty-mask row
    width = 1 << max(b, 0)
    assert rows == [width - 1] + [width] * (64 // width - 1)


@st.composite
def grid_oracle_problems(draw):
    """(train, test, b) on a coarse integer grid, where squared distances are
    exact and ties common, with a block width b below the feature count."""
    length = draw(st.integers(1, 8))
    n_train, n_test = draw(st.integers(5, 7)), draw(st.integers(1, 3))
    n_classes = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=length, max_size=length),
                         min_size=n_train + n_test, max_size=n_train + n_test))
    labels = draw(st.lists(st.integers(0, n_classes - 1),
                           min_size=n_train + n_test, max_size=n_train + n_test))
    classes = tuple(f"c{c}" for c in range(n_classes))
    rows = np.array(rows, dtype=float)
    return (Dataset(rows[:n_train], labels[:n_train], classes),
            Dataset(rows[n_train:], labels[n_train:], classes),
            draw(st.integers(0, length - 1)))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(grid_oracle_problems())
def test_exhaustive_best_matches_the_oracle_on_integer_grids(problem):
    train, test, b = problem
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(knn, "D2_BUDGET", block_budget(train, test, b))
        for k in range(1, 6):
            cfg = GaConfig(alpha=0.5, beta=0.3, k=k)
            (mask, fit, hits, nf), scored = exhaustive_best(train, test, cfg)
            want = exhaustive_oracle(
                train.features.tolist(), train.labels.tolist(),
                test.features.tolist(), test.labels.tolist(),
                train.feature_count, cfg.alpha, cfg.beta, k, len(train.classes))
            assert (tuple(int(bit) for bit in mask.bits), fit, hits, nf) == want
            assert scored == (1 << train.feature_count) - 1


def all_subsets(length):
    return [FeatureMask((m >> np.arange(length)) & 1) for m in range(1, 1 << length)]


# k: (sha256 of the sorted lines "mask,fitness!r,hits,nf\n" of every subset,
# best mask), recorded before the d2 blocks moved into knn; the noise beats the
# planted features 2 and 7 there
NOISY_SUBSETS = {
    1: ("9aaa9d4ba98654131d3ac994c898bb0810e7f21458fad9667c1360b5e84b0701", "101010010001"),
    3: ("01b9859fe441f84a27fdd94ccf7d7b03f7464d364b8c9e07893a0c5b993377cf", "100011010010"),
}


def test_every_subset_scores_as_score_does_on_a_noisy_problem(monkeypatch):
    # weak separation on 2 of 12 features: many subsets score alike, so a
    # wrong sum or a misplaced row changes hits somewhere
    train, test = generate(SynthSpec(n_classes=5, n_features=12, informative=(2, 7),
                                     class_separation=1.5, seed=4242))
    masks = all_subsets(12)
    log = scored_by_fitness(monkeypatch)
    for k in (1, 2, 3, 5):
        cfg = GaConfig(alpha=0.5, beta=0.5, k=k)
        log.clear()  # only this k's exhaustive_best
        best, scored = exhaustive_best(train, test, cfg)
        got = dict(log)
        assert scored == len(got) == 4095
        pairs = knn.mask_predictions(train, test, k, masks)
        assert got == {mask: fitness(mask, train, test, cfg, predicted=row)
                       for mask, row in pairs}
        if k in NOISY_SUBSETS:
            lines = sorted(f"{mask.to_string()},{fit!r},{hits},{nf}\n"
                           for mask, fit, hits, nf in got.values())
            digest = hashlib.sha256("".join(lines).encode()).hexdigest()
            assert (digest, best.mask.to_string()) == NOISY_SUBSETS[k]


def overflow_problem():
    """Two classes on 6 features, three of them spread by about +-1e200, so
    that their differences square to +inf, which orders last in the vote."""
    rng = np.random.default_rng(7)
    rows = rng.normal(size=(16, 6)) * np.array([1e200, 1.0, -1e200, 1.0, 1e200, 1.0])
    rows[:, 1] += np.repeat([0.0, 3.0], 8)
    labels = ["a", "b"] * 4 + ["b", "a"] * 4
    classes = ("a", "b")
    train = Dataset(rows[:10], [classes.index(c) for c in labels[:10]], classes)
    test = Dataset(rows[10:], [classes.index(c) for c in labels[10:]], classes)
    return train, test


def test_overflowing_distances_pick_the_same_best_mask_as_score():
    train, test = overflow_problem()
    cfg = GaConfig(alpha=0.5, beta=0.5, k=3)
    with np.errstate(over="ignore"):
        assert np.isinf(np.square(np.subtract.outer(test.features[:, 0],
                                                    train.features[:, 0]))).any()
    best, _ = exhaustive_best(train, test, cfg)
    pairs = knn.mask_predictions(train, test, cfg.k, all_subsets(6))
    want = min((fitness(mask, train, test, cfg, predicted=row) for mask, row in pairs),
               key=lambda s: (-s.fitness, s.nf, s.mask.bits.tobytes()))
    assert best == want


def assert_the_term_table_scores_bit_for_bit(train, test, k):
    """Every subset's d2, predictions (plain and in reject mode), fitness and
    hits read from ``knn.term_table`` equal those computed per chunk, as
    int64 bit patterns."""
    table = knn.term_table(train, test)
    assert table.shape == (train.feature_count, test.n_samples, train.n_samples)
    assert not table.flags.writeable
    masks = all_subsets(train.feature_count)
    with np.errstate(over="ignore"):
        assert np.array_equal(knn._d2(train, test.features, masks, table=table).view(np.int64),
                              knn._d2(train, test.features, masks).view(np.int64))
    for reject in (False, True):
        rows = [np.stack([row for _, row in knn.mask_predictions(train, test, k, masks, reject,
                                                                 table=t)]).astype(np.int64)
                for t in (table, None)]
        assert np.array_equal(*rows)
    cfg = GaConfig(alpha=0.5, beta=0.3, k=k)
    scores = [[fitness(mask, train, test, cfg, predicted=row)
               for mask, row in knn.mask_predictions(train, test, k, masks, table=t)]
              for t in (table, None)]
    assert [ind.mask for ind in scores[0]] == masks == [ind.mask for ind in scores[1]]
    for name in ("fitness", "hits"):
        with_table, without = (np.array([getattr(ind, name) for ind in scored])
                               for scored in scores)
        assert np.array_equal(with_table.view(np.int64), without.view(np.int64)), name


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(grid_oracle_problems())
def test_the_term_table_scores_integer_grids_bit_for_bit(problem):
    # exact squared distances with many ties, in chunks narrower than the
    # subset count
    train, test, b = problem
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(knn, "D2_BUDGET", block_budget(train, test, b))
        for k in range(1, 6):
            assert_the_term_table_scores_bit_for_bit(train, test, k)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_the_term_table_scores_overflowing_distances_bit_for_bit(k):
    train, test = overflow_problem()
    assert np.isinf(knn.term_table(train, test)).any()
    assert_the_term_table_scores_bit_for_bit(train, test, k)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_the_term_table_scores_a_noisy_problem_bit_for_bit(k):
    # weak separation on 2 of 6 features: the noise features decide many votes
    train, test = generate(SynthSpec(n_classes=5, n_features=6, informative=(1, 4),
                                     class_separation=1.5, seed=4242))
    assert_the_term_table_scores_bit_for_bit(train, test, k)


def test_the_term_table_is_only_built_within_term_budget():
    train, test = tiny_problem()
    size = 8 * train.feature_count * test.n_samples * train.n_samples
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(knn, "TERM_BUDGET", size)
        assert knn.term_table(train, test).nbytes == size
        mp.setattr(knn, "TERM_BUDGET", size - 1)
        assert knn.term_table(train, test) is None


# perfbench's oracle-k3 problem 0: 60 train and 30 test samples on 14 features
ORACLE_BENCH = SynthSpec(n_classes=6, n_features=14, informative=(1, 5, 9),
                         class_separation=6.0, seed=12957)


def test_exhaustive_best_on_the_oracle_bench_shape_allocates_under_1_5_mib():
    # one block of at most D2_BUDGET bytes, its vote, the high features' terms
    # and one prefix per level of the walk; a stack of blocks would not fit.
    # With the cycle collector off, what is left after the return shows that
    # the block was freed then, not whenever a reference cycle holding it is
    # collected.
    train, test = generate(ORACLE_BENCH)
    cfg = GaConfig(alpha=0.5, beta=0.5, k=3)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        best, scored = exhaustive_best(train, test, cfg)
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert scored == 16383 and best.mask.to_index_string() == "1,5,9"
    assert peak < 1.5 * (1 << 20)
    assert left < 64 * 1024


def test_exhaustive_best_on_the_oracle_bench_shape_computes_each_term_once_per_walk(
        monkeypatch):
    # 64-row blocks of 30 x 60 matrices: the top b = 6 features span a block
    # and their terms are computed first, once; each of the 255 non-empty low
    # sets of the other 8 adds one term, its highest feature's.  One term per
    # high feature per low set made 255 + 256 * 6 = 1,791 calls
    train, test = generate(ORACLE_BENCH)
    calls = []
    term = knn._term
    monkeypatch.setattr(knn, "_term", lambda *args: calls.append(args[2]) or term(*args))
    best, scored = exhaustive_best(train, test, GaConfig(alpha=0.5, beta=0.5, k=3))
    assert scored == 16383 and best.mask.to_index_string() == "1,5,9"
    assert len(calls) == 261
    assert calls[:6] == list(range(8, 14)) and set(calls[6:]) == set(range(8))
