"""Acceptance gate: one test per shipping criterion, strictest stated tolerance.

Each test prints a single ``AC-n: PASS/FAIL`` line (visible with ``pytest -s``)
and fails hard if its criterion is not met.  These are the checks the package
must satisfy before a release; everything here runs on synthetic data with
fixed seeds, so a failure is reproducible bit for bit.
"""

import time

import numpy as np
import pytest

from evoknn import cli
from evoknn.dataset import from_rows, load_csv, split_random, unify_vocabulary
from evoknn.ga import GaConfig, evolve, exhaustive_best, fitness
from evoknn.knn import FeatureMask, _d2, _vote, recognition_rate
from evoknn.pca import fit_pca2
from evoknn.synth import SynthSpec, generate, generate_pool

from oracles import classify_oracle, jacobi_eigh

POOL_CLASS_SIZES = (20, 20, 8, 4, 20, 20, 20, 20, 20, 15, 20, 10, 20, 20)
PLANTED = (70, 101, 112)


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"{criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{criterion}: {detail}"


def reference_problem(seed: int):
    """117 features, 14 classes, 3 planted informative features, 187/50 split."""
    spec = SynthSpec(seed=seed)  # defaults carry the reference geometry
    pool = generate_pool(spec, POOL_CLASS_SIZES)
    return split_random(pool, 50, seed)


def test_ac1_classifier_matches_bruteforce_oracle():
    """Masked k-NN equals an independent compute-all/sort/vote reference
    on 200 randomized instances (<=50 train rows, <=20 features, k in 1/3/5),
    with zero mismatches, in under 10 seconds."""
    rng = np.random.default_rng(424242)
    started = time.perf_counter()
    mismatches = 0
    instances = 200
    for _ in range(instances):
        n_train = int(rng.integers(3, 51))
        length = int(rng.integers(2, 21))
        n_classes = int(rng.integers(2, 6))
        k = min(int(rng.choice([1, 3, 5])), n_train)
        # integer grids keep every squared distance exact, so ties are honest
        rows = rng.integers(-4, 5, size=(n_train, length)).astype(float)
        labels = [f"c{int(c)}" for c in rng.integers(0, n_classes, size=n_train)]
        for c in range(n_classes):
            labels[c % n_train] = f"c{c}"
        train = from_rows(rows.tolist(), labels)
        bits = rng.random(length) < 0.5
        if not bits.any():
            bits[int(rng.integers(0, length))] = True
        mask = FeatureMask(bits)
        active = [int(j) for j in mask.active_indices()]
        for _ in range(3):
            query = rng.integers(-4, 5, size=length).astype(float)
            for reject in (False, True):
                d2 = _d2(train, [query], [mask])[0]
                got = int(_vote(d2, train.labels, len(train.classes), k, reject)[2][0])
                want = classify_oracle(rows.tolist(), train.labels.tolist(),
                                       query, k, active, len(train.classes),
                                       reject_ties=reject)
                mismatches += got != want
    elapsed = time.perf_counter() - started
    _report(
        "AC-1",
        mismatches == 0 and elapsed < 10.0,
        f"{instances} randomized instances, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_ac2_planted_reference_run_reaches_perfect_recognition():
    """On the 117-feature / 14-class planted problem (187 train, 50 test),
    the reference GA settings reach 50/50 hits with exactly the 3 planted
    features in at least 4 of 5 seeds, under 300 seconds per seed."""
    seeds = (12957, 1547, 1, 2, 3)
    target = 0.6 * 50 - 0.6 * 3  # = 28.2, the planted optimum
    successes = 0
    times = []
    worst = 0.0
    for seed in seeds:
        train, test = reference_problem(seed)
        cfg = GaConfig(seed=seed, stop_on_fitness=target)
        started = time.perf_counter()
        best, trace, _ = evolve(train, test, cfg)
        elapsed = time.perf_counter() - started
        times.append(f"{elapsed:.1f}")
        worst = max(worst, elapsed)
        mask = set(int(i) for i in best.mask.active_indices())
        if best.hits == 50 and best.nf == 3 and mask >= set(PLANTED):
            successes += 1
    _report(
        "AC-2",
        successes >= 4 and worst < 300.0,
        f"{successes}/5 seeds reached hits=50, nf=3, planted mask "
        f"(per-seed {'/'.join(times)}s)",
    )


def test_planted_mask_recognises_every_sample_of_an_independent_draw():
    """AC-2's 100% counts hits on the eval set that the fitness maximised.
    Fitted on the training set of seed 12957, the planted mask also scores
    187/187 on the training split and 50/50 on the eval split of each
    independent draw of the same problem (the class means do not depend on
    the seed), so on this problem the 100% is not selection bias."""
    train, _ = reference_problem(12957)
    mask = FeatureMask.from_indices(PLANTED, train.feature_count)
    for seed in (1, 2, 3, 1547):
        fresh_train, fresh_eval = reference_problem(seed)
        hits = [recognition_rate(train, fresh, 1, mask)[0]
                for fresh in (fresh_train, fresh_eval)]
        assert hits == [187, 50], seed


def test_at_separation_3_the_eval_rate_overstates_the_selected_mask(tmp_path, capsys):
    """On a harder draw of the reference problem (``--separation 3``) the
    eval set that the fitness maximised flatters the GA's pick.  Run with
    ``--stall-generations 100``, the GA stops after 403 generations on 10
    features that score 38/50 on eval but 111/187 (59.36%) on the training
    split of an independent draw (``synth --seed 1``).  The planted
    {70, 101, 112} scores only 28/50 on eval, yet 131/187 on the draw."""
    for name, seed in (("data", 12957), ("fresh", 1)):
        assert cli.main(["synth", "--out-dir", str(tmp_path / name), "--seed", str(seed),
                         "--separation", "3"]) == 0
    data, fresh, out = tmp_path / "data", tmp_path / "fresh", tmp_path / "run"
    assert cli.main(["select", str(data / "train.csv"), str(data / "test.csv"),
                     "--out-dir", str(out), "--stall-generations", "100",
                     "--holdout", str(fresh / "train.csv")]) == 0
    capsys.readouterr()
    summary = dict(line.split(" = ", 1)
                   for line in (out / "summary.txt").read_text().splitlines())
    assert {key: summary[key] for key in (
        "generations_run", "stopped_by", "selected_features", "final_recognition_hits",
        "holdout_hits", "holdout_samples", "holdout_rate_percent")} == {
        "generations_run": "403", "stopped_by": "stalled",
        "selected_features": "15,25,29,38,41,60,70,101,103,112",
        "final_recognition_hits": "38", "holdout_hits": "111", "holdout_samples": "187",
        "holdout_rate_percent": "59.36"}
    train, eval_set, draw = unify_vocabulary(
        *(load_csv(path) for path in (data / "train.csv", data / "test.csv",
                                      fresh / "train.csv")))
    planted = FeatureMask.from_indices(PLANTED, train.feature_count)
    assert [recognition_rate(train, s, 1, planted)[0] for s in (eval_set, draw)] == [28, 131]


def test_ac3_ga_attains_exhaustive_optimum_on_small_problems():
    """With 10 features the GA (population 50, 150 generations) matches the
    enumerated optimum exactly on >=4 of 5 planted instances and stays within
    5% on all, with enumeration plus GA under 60 seconds total."""
    started = time.perf_counter()
    exact = 0
    all_within_5pct = True
    details = []
    for seed in (1, 2, 3, 4, 5):
        spec = SynthSpec(n_classes=5, n_features=10, informative=(1, 4, 7),
                         class_separation=6.0, noise_sd=1.0,
                         train_per_class=8, test_per_class=4, seed=seed)
        train, test = generate(spec)
        cfg = GaConfig(population_size=50, max_generations=150, seed=seed)
        optimum, _ = exhaustive_best(train, test, cfg)
        best_fit = optimum.fitness
        best, _, _ = evolve(train, test, cfg)
        exact += best.fitness == best_fit
        if best.fitness < best_fit - 0.05 * abs(best_fit):
            all_within_5pct = False
        details.append(f"{best.fitness:g}/{best_fit:g}")
    elapsed = time.perf_counter() - started
    _report(
        "AC-3",
        exact >= 4 and all_within_5pct and elapsed < 60.0,
        f"exact on {exact}/5 (ga/oracle: {', '.join(details)}), {elapsed:.1f}s",
    )


def test_ga_attains_the_exhaustive_optimum_of_a_16_feature_problem():
    """Beyond AC-3's 10 features: the enumerator scores all 65,535 subsets of
    16 features, finds the planted set, and the GA (population 50, 150
    generations) reaches the same fitness."""
    spec = SynthSpec(n_classes=5, n_features=16, informative=(2, 8, 13),
                     class_separation=6.0, noise_sd=1.0,
                     train_per_class=8, test_per_class=4, seed=1)
    train, test = generate(spec)
    cfg = GaConfig(population_size=50, max_generations=150, seed=1)
    optimum, scored = exhaustive_best(train, test, cfg)
    best, _, _ = evolve(train, test, cfg)
    assert scored == (1 << 16) - 1
    assert optimum.mask.to_index_string() == "2,8,13"
    assert best.fitness == optimum.fitness


def test_ac4_fitness_arithmetic_is_exact():
    """alpha*hits - beta*nf reproduces the reference figures to the last bit:
    (50 hits, 3 features, 0.6/0.6) -> 28.2 and (50, 5, 0.4/0.4) -> 18.0."""
    literal_ok = (0.6 * 50 - 0.6 * 3 == 28.2) and (0.4 * 50 - 0.4 * 5 == 18.0)

    # the same equalities through the real evaluation path: a train set that
    # classifies all 50 test samples correctly, masks of 3 and 5 features
    train = from_rows([[0.0, 0.0, 0.0]], ["a"])
    test = from_rows([[0.1 * i, 0.0, 0.0] for i in range(50)], ["a"] * 50)
    _, fit3, hits3, nf3 = fitness(FeatureMask(np.ones(3, dtype=bool)), train, test,
                                 GaConfig(alpha=0.6, beta=0.6))
    train5 = from_rows([[0.0] * 5], ["a"])
    test5 = from_rows([[0.1 * i] + [0.0] * 4 for i in range(50)], ["a"] * 50)
    _, fit5, hits5, nf5 = fitness(FeatureMask(np.ones(5, dtype=bool)), train5, test5,
                                 GaConfig(alpha=0.4, beta=0.4))
    functional_ok = (hits3, nf3, fit3) == (50, 3, 28.2) and \
                    (hits5, nf5, fit5) == (50, 5, 18.0)
    _report(
        "AC-4",
        literal_ok and functional_ok,
        f"0.6*50-0.6*3 == 28.2 and 0.4*50-0.4*5 == 18.0 exactly "
        f"(evaluated: {fit3!r}, {fit5!r})",
    )


def test_ac5_elitist_best_fitness_never_decreases():
    """Property over 24 randomized configurations with elite_count >= 1:
    the per-generation best fitness is a non-decreasing sequence."""
    rng = np.random.default_rng(777)
    violations = 0
    runs = 24
    for _ in range(runs):
        n_classes = int(rng.integers(2, 5))
        n_features = int(rng.integers(5, 10))
        informative = tuple(
            int(i) for i in
            rng.choice(n_features, size=int(rng.integers(1, 4)), replace=False)
        )
        spec = SynthSpec(
            n_classes=n_classes, n_features=n_features, informative=informative,
            class_separation=float(rng.uniform(2.0, 8.0)),
            noise_sd=float(rng.uniform(0.5, 2.0)),
            train_per_class=int(rng.integers(3, 7)),
            test_per_class=int(rng.integers(2, 5)),
            seed=int(rng.integers(0, 10_000)),
        )
        train, test = generate(spec)
        pop = int(rng.integers(4, 17))
        cfg = GaConfig(
            population_size=pop,
            max_generations=int(rng.integers(5, 26)),
            crossover_prob=float(rng.uniform(0.0, 1.0)),
            mutation_prob=float(rng.uniform(0.0, 1.0)),
            per_bit_flip_rate=None if rng.random() < 0.5 else float(rng.uniform(0.05, 0.9)),
            alpha=float(rng.uniform(0.1, 1.0)),
            beta=float(rng.uniform(0.0, 1.0)),
            k=int(rng.choice([1, 3])),
            seed=int(rng.integers(0, 10_000)),
            elite_count=int(rng.integers(1, min(4, pop))),
            tournament_size=int(rng.integers(2, min(5, pop + 1))),
        )
        _, trace, _ = evolve(train, test, cfg)
        values = [s.best_fitness for s in trace]
        violations += any(b < a for a, b in zip(values, values[1:]))
    _report("AC-5", violations == 0,
            f"best-fitness monotone in {runs - violations}/{runs} random elitist runs")


def test_ac6_pca_recovers_known_covariance_and_matches_dense_solver():
    """Data manufactured with sample covariance diag(4, 1, 0.25) (n=2000):
    eigenvalues recovered within 1e-2 and axes within |cos| >= 0.99 of the
    coordinate axes; on fixed matrices the plain-Python Jacobi oracle agrees
    with numpy.linalg.eigh to 1e-6, and fit_pca2's two eigenpairs match both
    the oracle and numpy.linalg.eigh to 1e-6."""
    rng = np.random.default_rng(2024)
    raw = rng.normal(size=(2000, 3))
    centred = raw - raw.mean(axis=0)
    unit = centred / centred.std(axis=0, ddof=1)  # exact unit sample variance
    data = unit * np.array([2.0, 1.0, 0.5])
    d = from_rows(data.tolist(), ["a"] * len(data))

    model = fit_pca2(d)
    ev_err = max(abs(model.eigenvalue1 - 4.0), abs(model.eigenvalue2 - 1.0))
    cos1 = abs(float(model.axis1 @ np.array([1.0, 0.0, 0.0])))
    cos2 = abs(float(model.axis2 @ np.array([0.0, 1.0, 0.0])))

    # all three eigenvalues via the Jacobi oracle
    cov = (data - data.mean(axis=0)).T @ (data - data.mean(axis=0)) / (len(data) - 1)
    values, vectors = map(np.array, jacobi_eigh(cov, residual=1e-12))
    spectrum_err = float(np.max(np.abs(np.sort(values) - np.array([0.25, 1.0, 4.0]))))

    # fit_pca2's two eigenpairs against the oracle and against eigh
    top = np.argsort(values)[::-1]
    ref_values, ref_vectors = np.linalg.eigh(cov)
    fit_ok = True
    for j, (value, axis) in enumerate([(model.eigenvalue1, model.axis1),
                                       (model.eigenvalue2, model.axis2)]):
        for ref_value, ref_vector in [(values[top[j]], vectors[:, top[j]]),
                                      (ref_values[-1 - j], ref_vectors[:, -1 - j])]:
            fit_ok &= abs(value - ref_value) <= 1e-6
            fit_ok &= abs(abs(float(axis @ ref_vector)) - 1.0) <= 1e-6

    solver_ok = True
    for matrix in (np.diag([4.0, 1.0, 0.25]),
                   np.array([[2.0, 1.0], [1.0, 2.0]]),
                   np.array([[6.0, 2.0, 0.0], [2.0, 3.0, 1.0], [0.0, 1.0, 1.0]])):
        got, vec = map(np.array, jacobi_eigh(matrix, residual=1e-12))
        order = np.argsort(got)
        ref_values, ref_vectors = np.linalg.eigh(matrix)
        if not np.allclose(got[order], ref_values, atol=1e-6):
            solver_ok = False
        for j, col in enumerate(order):
            if abs(abs(float(vec[:, col] @ ref_vectors[:, j])) - 1.0) > 1e-6:
                solver_ok = False

    _report(
        "AC-6",
        ev_err < 1e-2 and spectrum_err < 1e-2 and cos1 >= 0.99 and cos2 >= 0.99
        and solver_ok and fit_ok,
        f"eigenvalue error {ev_err:.2e} (full spectrum {spectrum_err:.2e}), "
        f"axis cosines {cos1:.4f}/{cos2:.4f}, dense-solver agreement @1e-6: {solver_ok}, "
        f"fit_pca2 vs oracle and eigh @1e-6: {fit_ok}",
    )


def test_ac7_selection_runs_are_byte_identical(tmp_path, capsys):
    """The same selection flags twice produce byte-identical trace and
    summary files."""
    data = tmp_path / "data"
    code = cli.main([
        "synth", "--out-dir", str(data), "--classes", "4", "--features", "12",
        "--informative", "2,7", "--separation", "8", "--seed", "11",
        "--train-per-class", "6", "--test-per-class", "3",
    ])
    assert code == 0
    flags = ["--pop", "16", "--generations", "30", "--seed", "9",
             "--alpha", "0.5", "--beta", "0.5"]
    runs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code = cli.main(["select", str(data / "train.csv"), str(data / "test.csv"),
                         "--out-dir", str(out)] + flags)
        assert code == 0
        runs.append(out)
    capsys.readouterr()
    trace_identical = (runs[0] / "trace.csv").read_bytes() == (runs[1] / "trace.csv").read_bytes()
    summary_identical = (runs[0] / "summary.txt").read_bytes() == (runs[1] / "summary.txt").read_bytes()
    _report(
        "AC-7",
        trace_identical and summary_identical,
        f"replay trace/summary byte-identical: {trace_identical}/{summary_identical}",
    )


def test_ac8_summary_reports_97_percent_feature_reduction(tmp_path, capsys):
    """A reference 117-feature selection that converges to the 3 planted
    features reports a reduction rate of (117-3)/117 = 97.44% in its summary."""
    seed = 12957
    data = tmp_path / "data"
    code = cli.main(["synth", "--out-dir", str(data), "--seed", str(seed)])
    assert code == 0
    out = tmp_path / "run"
    code = cli.main([
        "select", str(data / "train.csv"), str(data / "test.csv"),
        "--out-dir", str(out), "--seed", str(seed), "--stop-on-fitness", "28.2",
    ])
    assert code == 0
    capsys.readouterr()
    summary = {}
    for line in (out / "summary.txt").read_text().splitlines():
        key, _, value = line.partition(" = ")
        summary[key] = value
    reduction = float(summary["reduction_rate_percent"])
    expected = 100.0 * (117 - 3) / 117
    _report(
        "AC-8",
        summary["final_feature_count"] == "3"
        and summary["selected_features"] == "70,101,112"
        and summary["final_recognition_rate_percent"] == "100.00"
        and summary["reduction_rate_percent"] == f"{expected:.2f}"
        and round(reduction) == 97,
        f"reduction_rate_percent = {summary['reduction_rate_percent']} "
        f"(expected {expected:.2f}), selected = {summary['selected_features']}",
    )
