"""Masked k-NN behaviour, metric properties, and oracle equivalence."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evoknn import cli, ga, knn
from evoknn.dataset import Dataset, from_rows, load_csv, unify_vocabulary
from evoknn.ga import GaConfig, fitness
from evoknn.knn import (
    REJECT,
    FeatureMask,
    _d2,
    _term,
    _vote,
    mask_predictions,
    recognition_rate,
)

from oracles import classify_oracle, nearest_oracle


# ----------------------------------------------------------- FeatureMask

def test_mask_string_round_trip():
    m = FeatureMask.from_string("01101")
    assert m.length == 5
    assert m.active_count == 3
    assert m.active_indices().tolist() == [1, 2, 4]
    assert m.to_string() == "01101"
    assert m.to_index_string() == "1,2,4"
    assert FeatureMask.from_indices([1, 2, 4], 5) == m
    assert FeatureMask(np.ones(3, bool)).to_string() == "111"


def test_mask_equality_and_hash():
    a = FeatureMask.from_string("0110")
    b = FeatureMask.from_indices([1, 2], 4)
    c = FeatureMask.from_string("0111")
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert len({a, b, c}) == 2


@st.composite
def mask_text_pairs(draw):
    """Two 0/1 texts, equal, of one length, or of any two lengths."""
    text = st.text(alphabet="01", min_size=1, max_size=12)
    a = draw(text)
    b = draw(st.one_of(st.just(a), st.text(alphabet="01", min_size=len(a),
                                           max_size=len(a)), text))
    return a, b


@settings(derandomize=True, database=None)
@given(mask_text_pairs())
def test_mask_key_is_its_text_in_bytes(pair):
    a, b = pair
    texts = [text for text in pair if "1" in text]
    for text in set(pair) - set(texts):  # an all-zero text makes no mask
        with pytest.raises(ValueError, match="no active features"):
            FeatureMask.from_string(text)
    if len(texts) == 2:
        ma, mb = FeatureMask.from_string(a), FeatureMask.from_string(b)
        assert (ma == mb) == (a == b)
        assert (hash(ma) == hash(mb)) == (a == b)
        if len(a) == len(b):
            assert (ma.key < mb.key) == (a < b)
    for text in texts:
        mask = FeatureMask.from_string(text)
        bits = [c == "1" for c in text]
        assert mask.key == bytes(bits)
        assert mask.bits.tolist() == bits and mask.bits.tobytes() == mask.key
        assert not mask.bits.flags.writeable
        with pytest.raises(ValueError):
            mask.bits[0] = True
        indices = [i for i, bit in enumerate(bits) if bit]
        assert (FeatureMask.from_indices(indices, len(text)) == FeatureMask(np.array(bits))
                == FeatureMask(np.array(bits, dtype=np.uint8)) == mask)
        assert (mask.to_string(), mask.length, mask.active_count) == (
            text, len(text), len(indices))


@pytest.mark.parametrize("length", [1, 3, 117])
def test_every_constructor_refuses_a_mask_with_no_active_feature(length):
    for make in (lambda: FeatureMask(np.zeros(length, dtype=bool)),
                 lambda: FeatureMask(np.zeros(length, dtype=np.uint8)),
                 lambda: FeatureMask.from_string("0" * length),
                 lambda: FeatureMask.from_indices([], length)):
        with pytest.raises(ValueError, match="no active features"):
            make()


def test_mask_rejects_bad_input():
    with pytest.raises(ValueError):
        FeatureMask.from_string("01x1")
    with pytest.raises(ValueError):
        FeatureMask.from_string("")
    with pytest.raises(ValueError):
        FeatureMask.from_indices([4], 4)
    with pytest.raises(ValueError):
        FeatureMask.from_indices([-1], 4)
    # a repeat is refused, naming every repeat; it was merged into a mask with
    # fewer features than the list
    with pytest.raises(ValueError, match="names feature index 4 more than once"):
        FeatureMask.from_indices([1, 4, 4], 6)
    with pytest.raises(ValueError, match="names feature index 1,4 more than once"):
        FeatureMask.from_indices([4, 1, 4, 1, 1], 6)
    assert FeatureMask.from_indices([4, 1], 6).to_string() == "010010"


# ----------------------------------------------------------- distance

def nearest(train, x, k, mask):
    """(sample index, distance) of the k training samples nearest ``x``, in
    ``_vote``'s neighbour order, each distance the square root of its d2."""
    order, d2, _ = _vote(_d2(train, [x], [mask])[0], train.labels, len(train.classes), k)
    return [(i, math.sqrt(d)) for i, d in zip(order[0].tolist(), d2[0].tolist())]


def predict(train, x, k, mask, reject_ties=False):
    """``_vote``'s predicted class for the one query ``x``."""
    d2 = _d2(train, [x], [mask])[0]
    return int(_vote(d2, train.labels, len(train.classes), k, reject_ties)[2][0])


def distance(x, y, mask):
    """The masked distance from x to y, as ``_vote`` reports it."""
    return nearest(from_rows([y], ["a"]), x, 1, mask)[0][1]


def test_masked_distance_uses_active_coordinates_only():
    mask = FeatureMask.from_string("101")
    assert distance([0, 99, 0], [3, -7, 4], mask) == 5.0
    full = FeatureMask(np.ones(3, bool))
    assert distance([0, 0, 0], [1, 2, 2], full) == 3.0


def test_masked_distance_metric_axioms(rng):
    mask = FeatureMask.from_string("11011")
    for _ in range(50):
        x, y, z = rng.normal(size=(3, 5))
        dxy = distance(x, y, mask)
        assert dxy >= 0.0
        assert distance(x, x, mask) == 0.0
        assert dxy == distance(y, x, mask)
        assert dxy <= distance(x, z, mask) + distance(z, y, mask) + 1e-12


def test_masked_distance_validates_shapes():
    two = from_rows([[1.0, 2.0]], ["a"])
    with pytest.raises(ValueError, match="2 features"):
        _d2(two, [[1, 2, 3]], [FeatureMask(np.ones(2, bool))])
    with pytest.raises(ValueError, match="2 features"):
        recognition_rate(two, from_rows([[1.0, 2.0, 3.0]], ["a"]), 1,
                         FeatureMask(np.ones(2, bool)))
    with pytest.raises(ValueError, match="mask length 3"):
        _d2(two, [[1, 2]], [FeatureMask(np.ones(3, bool))])
    # one chunk, one width check: a short mask after a good one is refused too
    with pytest.raises(ValueError, match="mask length 1"):
        _d2(two, [[1, 2]], [FeatureMask(np.ones(1, bool))] * 2)
    with pytest.raises(ValueError):
        _d2(two, [[1, 2]], [FeatureMask(np.ones(2, bool)), FeatureMask(np.ones(1, bool))])
    with pytest.raises(ValueError, match="no active features"):
        _d2(two, [[3, 4]], [FeatureMask.from_string("00")])


# ----------------------------------------------------------- neighbours

def test_k_nearest_orders_by_distance_then_index(grid_dataset):
    mask = FeatureMask(np.ones(3, bool))
    neigh = nearest(grid_dataset, [9.0, 0.5, 2.0], 3, mask)
    # samples 4 and 5 are equidistant from the query; index order breaks the tie
    assert [i for i, _ in neigh] == [4, 5, 3]
    assert neigh[0][1] == neigh[1][1] == 0.5
    assert grid_dataset.labels[neigh[0][0]] == 2


def test_k_nearest_validates_k(grid_dataset):
    d2 = _d2(grid_dataset, [[0.0, 0.0, 0.0]], [FeatureMask(np.ones(3, bool))])[0]
    n_classes = len(grid_dataset.classes)
    with pytest.raises(ValueError):
        _vote(d2.copy(), grid_dataset.labels, n_classes, 0)
    with pytest.raises(ValueError):
        _vote(d2.copy(), grid_dataset.labels, n_classes, 7)


# ----------------------------------------------------------- classification

def test_classify_k1_is_minimum_distance(grid_dataset):
    mask = FeatureMask(np.ones(3, bool))
    assert predict(grid_dataset, [0.2, 0.1, 0.0], 1, mask) == 0
    assert predict(grid_dataset, [4.4, 4.0, 0.5], 1, mask) == 1
    assert predict(grid_dataset, [8.0, 0.0, 2.0], 1, mask) == 2


def test_classify_masking_changes_the_answer(grid_dataset):
    # on feature 2 alone, the query value 1.0 sits on class b's prototypes
    q = [0.0, 0.0, 1.0]
    assert predict(grid_dataset, q, 1, FeatureMask(np.ones(3, bool))) == 0
    assert predict(grid_dataset, q, 1, FeatureMask.from_string("001")) == 1


def test_classify_vote_tie_prefers_closer_class():
    train = from_rows([[0.0], [2.0]], ["a", "b"])
    # 1 vote each at k=2; class a's neighbour is nearer
    assert predict(train, [0.9], 2, FeatureMask(np.ones(1, bool))) == 0
    assert predict(train, [1.1], 2, FeatureMask(np.ones(1, bool))) == 1


def test_classify_vote_tie_equal_distance_prefers_smaller_id():
    train = from_rows([[-1.0], [1.0]], ["b", "a"])  # first appearance: b -> 0
    assert predict(train, [0.0], 2, FeatureMask(np.ones(1, bool))) == 0


def test_k1_equal_distance_goes_to_the_lower_index_and_is_never_rejected():
    # samples 1 (class b, id 1) and 2 (class a, id 0) both lie at d2 = 1: one
    # neighbour is kept, the lower index, so b wins though a has the smaller id
    train = from_rows([[5.0], [-1.0], [1.0]], ["a", "b", "a"])
    for reject in (False, True):
        order, near, predicted = _vote(np.array([[25.0, 1.0, 1.0]]), train.labels,
                                       len(train.classes), 1, reject)
        assert (order.tolist(), near.tolist(), predicted.tolist()) == ([[1]], [[1.0]], [1])
        assert predict(train, [0.0], 1, FeatureMask(np.ones(1, bool)), reject) == 1


def test_classify_reject_mode():
    train = from_rows([[0.0], [2.0]], ["a", "b"])
    one = FeatureMask(np.ones(1, bool))
    assert predict(train, [1.0], 2, one, reject_ties=True) == REJECT
    # an unambiguous vote is unaffected by reject mode
    assert predict(train, [0.1], 1, one, reject_ties=True) == 0


def test_scale_invariance_of_predictions(rng):
    # multiplying all features by one positive constant preserves the ordering
    rows = rng.integers(-5, 6, size=(20, 4)).astype(float)
    labels = [f"c{int(v) % 3}" for v in rng.integers(0, 3, size=20)]
    train = from_rows(rows.tolist(), labels)
    scaled = from_rows((rows * 7.0).tolist(), labels)
    mask = FeatureMask.from_string("1011")
    for _ in range(25):
        q = rng.integers(-5, 6, size=4).astype(float)
        for k in (1, 3):
            assert predict(train, q, k, mask) == predict(scaled, q * 7.0, k, mask)


def test_adding_masked_out_features_never_matters(rng):
    rows = rng.normal(size=(15, 3))
    labels = [f"c{i % 2}" for i in range(15)]
    plain = from_rows(rows.tolist(), labels)
    noisy = from_rows(np.hstack([rows, rng.normal(size=(15, 2)) * 100]).tolist(), labels)
    mask3 = FeatureMask(np.ones(3, bool))
    mask5 = FeatureMask.from_string("11100")
    for _ in range(20):
        q = rng.normal(size=3)
        q5 = np.concatenate([q, rng.normal(size=2) * 100])
        assert predict(plain, q, 3, mask3) == predict(noisy, q5, 3, mask5)


# ----------------------------------------------------------- recognition rate

def test_recognition_rate_counts_and_pairs(grid_dataset):
    test = from_rows(
        [[0.0, 0.5, 0.0], [4.5, 4.0, 0.5], [9.0, 0.5, 2.0], [4.0, 0.0, 0.0]],
        ["a", "b", "c", "c"],
    )
    hits, rate, predicted = recognition_rate(grid_dataset, test, 1,
                                             FeatureMask(np.ones(3, bool)))
    assert hits == 3
    assert rate == 3 / 4
    assert list(zip(predicted.tolist(), test.labels.tolist())) == [
        (0, 0), (1, 1), (2, 2), (0, 2)]


def test_recognition_rate_requires_matching_vocabulary(grid_dataset):
    other = from_rows([[0.0, 0.0, 0.0]], ["different"])
    with pytest.raises(ValueError):
        recognition_rate(grid_dataset, other, 1, FeatureMask(np.ones(3, bool)))


def test_recognition_rate_refuses_predictions_of_the_wrong_shape(grid_dataset):
    test = from_rows([[0.0, 0.5, 0.0], [4.5, 4.0, 0.5]], ["a", "b"])
    train, test = unify_vocabulary(grid_dataset, test)
    mask = FeatureMask(np.ones(3, bool))
    predicted = _vote(_d2(train, test.features, [mask]), train.labels,
                      len(train.classes), 1)[2]
    hits, rate, row = recognition_rate(train, test, 1, mask)
    given = recognition_rate(train, test, 1, mask, predicted=predicted[0])
    assert given[:2] == (hits, rate)
    assert given[2].tolist() == row.tolist() == predicted[0].tolist()
    for bad in (predicted, predicted.T, predicted[0, :1]):
        with pytest.raises(ValueError, match="not \\(test,\\)"):
            recognition_rate(train, test, 1, mask, predicted=bad)


def test_rejected_samples_never_count_as_hits():
    train = from_rows([[0.0], [0.4], [2.0]], ["a", "a", "b"])
    # first query's 2 nearest split a/b (vote tie); second's are both a
    test = from_rows([[1.2], [0.1]], ["a", "a"])
    train, test = unify_vocabulary(train, test)
    hits, rate, predicted = recognition_rate(train, test, 2,
                                             FeatureMask(np.ones(1, bool)),
                                             reject_ties=True)
    assert (predicted[0], test.labels[0]) == (REJECT, 0)
    assert hits == 1 and rate == 0.5


# ----------------------------------------------------------- oracle equivalence

def test_classify_matches_naive_oracle_on_random_integer_instances(rng):
    """Exact agreement of ``_vote(_d2(...))`` and ``recognition_rate`` with an
    independent compute-all/sort/vote reference.

    Integer-valued features keep every squared distance exactly representable,
    so the comparison is meaningful even on manufactured distance ties.
    """
    mismatches = 0
    for _ in range(250):
        n_train = int(rng.integers(3, 51))
        length = int(rng.integers(2, 21))
        n_classes = int(rng.integers(2, 5))
        k = int(rng.choice([1, 3, 5]))
        k = min(k, n_train)
        # a coarse grid manufactures plenty of exact distance ties
        rows = rng.integers(-3, 4, size=(n_train, length)).astype(float)
        labels = [f"c{int(c)}" for c in rng.integers(0, n_classes, size=n_train)]
        # every class must appear so the vocabulary is dense
        for c in range(n_classes):
            labels[c % n_train] = f"c{c}"
        train = from_rows(rows.tolist(), labels)
        bits = rng.random(length) < 0.5
        if not bits.any():
            bits[int(rng.integers(0, length))] = True
        mask = FeatureMask(bits)
        active = [int(j) for j in mask.active_indices()]
        queries = []
        for _ in range(4):
            q = rng.integers(-3, 4, size=length).astype(float)
            queries.append(q)
            for reject in (False, True):
                got = predict(train, q, k, mask, reject_ties=reject)
                want = classify_oracle(rows.tolist(), train.labels.tolist(), q,
                                       k, active, len(train.classes),
                                       reject_ties=reject)
                if got != want:
                    mismatches += 1
        # the same queries as one test set, through the path the GA scores with
        actual = np.arange(4) % len(train.classes)
        test = Dataset(np.array(queries), actual, train.classes)
        for k_all in (1, 3, 5):
            k_all = min(k_all, n_train)
            for reject in (False, True):
                hits, _, predicted = recognition_rate(train, test, k_all, mask,
                                                      reject_ties=reject)
                want = [classify_oracle(rows.tolist(), train.labels.tolist(), q,
                                        k_all, active, len(train.classes),
                                        reject_ties=reject) for q in queries]
                if list(zip(predicted.tolist(), actual.tolist())) != list(
                        zip(want, actual.tolist())):
                    mismatches += 1
                if hits != sum(p == a for p, a in zip(want, actual.tolist())):
                    mismatches += 1
    assert mismatches == 0


@st.composite
def grid_problems(draw):
    """(train, test, masks) on a coarse integer grid, where squared distances
    are exact and distance and vote ties are common."""
    n_train = draw(st.integers(1, 9))
    length = draw(st.integers(1, 5))
    n_classes = draw(st.integers(1, 3))
    n_test = draw(st.integers(1, 4))
    cell = st.integers(-2, 2)
    rows = draw(st.lists(st.lists(cell, min_size=length, max_size=length),
                         min_size=n_train + n_test, max_size=n_train + n_test))
    labels = draw(st.lists(st.integers(0, n_classes - 1),
                           min_size=n_train + n_test, max_size=n_train + n_test))
    bits = st.lists(st.booleans(), min_size=length, max_size=length).filter(any)
    masks = draw(st.lists(bits, min_size=2, max_size=4))
    classes = tuple(f"c{c}" for c in range(n_classes))
    rows = np.array(rows, dtype=float)
    return (Dataset(rows[:n_train], labels[:n_train], classes),
            Dataset(rows[n_train:], labels[n_train:], classes),
            [FeatureMask(np.array(m)) for m in masks])


@settings(derandomize=True, database=None)
@given(grid_problems())
def test_every_k_and_reject_mode_matches_the_oracle_on_integer_grids(problem):
    train, test, masks = problem
    rows, labels = train.features.tolist(), train.labels.tolist()
    n_classes = len(train.classes)
    # every mask's d2 stacked on a leading axis, voted in one call per k and mode
    stacked = _d2(train, test.features, masks)
    for k in range(1, train.n_samples + 1):
        for reject in (False, True):
            order, near, predicted = _vote(stacked.copy(), train.labels, n_classes,
                                           k, reject)
            # the same masks through the generator every caller scores with
            yielded = [row for _, row in mask_predictions(train, test, k, masks, reject)]
            assert order.shape == near.shape == (len(masks), test.n_samples, k)
            for m, mask in enumerate(masks):
                active = mask.active_indices().tolist()
                for q, got_order, got_near in zip(test.features, order[m], near[m]):
                    want = nearest_oracle(rows, q.tolist(), k, active)
                    assert list(zip(got_order.tolist(), got_near.tolist())) == want
                    assert nearest(train, q, k, mask) == [
                        (i, math.sqrt(d2)) for i, d2 in want]
                _, _, row = recognition_rate(train, test, k, mask, reject_ties=reject)
                want = [classify_oracle(rows, labels, q.tolist(), k, active,
                                        n_classes, reject_ties=reject)
                        for q in test.features]
                assert list(zip(row.tolist(), test.labels.tolist())) == list(
                    zip(want, test.labels.tolist()))
                assert predicted[m].tolist() == want
                assert yielded[m].tolist() == want


@pytest.mark.parametrize("lead", [(2, 1, 3), (1, 2, 2), (2, 0, 3), (0, 1, 1)])
def test_vote_matches_the_oracle_on_random_integer_stacks(rng, lead):
    """``_vote`` on stacks ``grid_problems`` does not make: up to 6 classes,
    some of them with no training sample, three leading axes, one of length 0
    in two cases, and +inf distances.  Each row's d2 is a one-feature
    training set's distances to a query at 0, so the oracles see the same
    values."""
    for _ in range(100):
        n_train = int(rng.integers(1, 9))
        n_classes = int(rng.integers(1, 7))
        present = rng.choice(n_classes, size=int(rng.integers(1, n_classes + 1)),
                             replace=False)
        labels = rng.choice(present, size=n_train)
        values = rng.integers(-3, 4, size=lead + (int(rng.integers(1, 4)), n_train))
        values = np.where(rng.random(values.shape) < 0.2, 1e200, values)
        with np.errstate(over="ignore"):
            d2 = np.square(values)  # 1e200 squares to +inf
        for k in range(1, n_train + 1):
            for reject in (False, True):
                order, near, predicted = _vote(d2.copy(), labels, n_classes, k, reject)
                assert order.shape == near.shape == d2.shape[:-1] + (k,)
                assert predicted.shape == d2.shape[:-1]
                for row in np.ndindex(d2.shape[:-1]):
                    train_rows = [[v] for v in values[row].tolist()]
                    want = nearest_oracle(train_rows, [0.0], k, [0])
                    assert list(zip(order[row].tolist(), near[row].tolist())) == want
                    assert predicted[row] == classify_oracle(
                        train_rows, labels.tolist(), [0.0], k, [0], n_classes,
                        reject_ties=reject)


def test_k_nearest_distances_are_the_sequential_sums_bit_for_bit(rng):
    # magnitudes spread over six decades make the rounding of every addition
    # depend on the order the terms are added in
    for _ in range(20):
        n_train, length = int(rng.integers(2, 40)), int(rng.integers(1, 40))
        scale = 10.0 ** rng.integers(-3, 4, size=length)
        rows = rng.normal(size=(n_train, length)) * scale
        q = rng.normal(size=length) * scale
        train = from_rows(rows.tolist(), ["a"] * n_train)
        bits = rng.random(length) < 0.7
        bits[int(rng.integers(0, length))] = True
        mask = FeatureMask(bits)
        want = nearest_oracle(rows.tolist(), q.tolist(), n_train,
                              mask.active_indices().tolist())
        assert nearest(train, q, n_train, mask) == [
            (i, math.sqrt(d2)) for i, d2 in want]


def test_overflowed_distances_tie_to_the_lower_index():
    # four squared distances overflow to inf; among them, and in the vote,
    # the lower sample index still comes first
    train = from_rows([[1e200], [5.0], [-1e200], [2e200], [3.0], [-3e200]],
                      ["a", "b", "b", "a", "b", "a"])
    one = FeatureMask(np.ones(1, bool))
    neigh = nearest(train, [0.0], 6, one)
    assert [i for i, _ in neigh] == [4, 1, 0, 2, 3, 5]
    assert [d for _, d in neigh] == [3.0, 5.0] + [math.inf] * 4
    # k=4: votes b, b, a, b
    assert predict(train, [0.0], 4, one) == 1
    # far query: every distance is inf, so samples 0 and 1 tie the k=2 vote
    # at summed distance inf; it goes to the smaller class id, or to REJECT
    for reject, want in ((False, 0), (True, REJECT)):
        got = predict(train, [1e300], 2, one, reject_ties=reject)
        assert got == want == classify_oracle(
            train.features.tolist(), train.labels.tolist(), [1e300], 2, [0], 2,
            reject_ties=reject)


def test_full_mask_call_on_the_reference_pair_allocates_under_1_mb(tmp_path, capsys):
    # the kernel's working set is a few (queries x train) matrices; a
    # per-feature table or a 3-D difference array would be about 9 MB here
    assert cli.main(["synth", "--out-dir", str(tmp_path), "--seed", "12957"]) == 0
    capsys.readouterr()
    train, test = unify_vocabulary(load_csv(tmp_path / "train.csv"),
                                   load_csv(tmp_path / "test.csv"))
    assert train.feature_count == 117
    tracemalloc.start()
    try:
        recognition_rate(train, test, 1, FeatureMask(np.ones(117, bool)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ----------------------------------------------------------- chunked scoring

@pytest.fixture(scope="module")
def reference_pair(tmp_path_factory):
    """The reference synth pool's 187/50 train/test pair."""
    out = tmp_path_factory.mktemp("reference")
    assert cli.main(["synth", "--out-dir", str(out), "--seed", "12957"]) == 0
    return unify_vocabulary(load_csv(out / "train.csv"), load_csv(out / "test.csv"))


def scored_at_widths(masks, train, test, cfg):
    """``ga._scored``'s output at chunk widths 1, 2 and more than len(masks),
    then at a budget below one d2 matrix, which floors the width at 1."""
    matrix = 8 * test.n_samples * train.n_samples
    runs = []
    for width, budget in [(w, w * matrix) for w in (1, 2, len(masks) + 1)] + [(1, matrix - 1)]:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(knn, "D2_BUDGET", budget)
            assert knn._block_rows(train, test) == width
            pairs = mask_predictions(train, test, cfg.k, masks)
            runs.append(list(ga._scored(pairs, train, test, cfg)))
    return runs


def test_stacked_d2_is_each_masks_sequential_sum_bit_for_bit(rng):
    # one feature-outer pass over masks that share features must still add
    # each mask's terms in its own ascending feature order
    for _ in range(10):
        n_train, length = int(rng.integers(2, 30)), int(rng.integers(1, 30))
        scale = 10.0 ** rng.integers(-3, 4, size=length)
        rows = rng.normal(size=(n_train, length)) * scale
        queries = rng.normal(size=(3, length)) * scale
        train = from_rows(rows.tolist(), ["a"] * n_train)
        bits = rng.random((int(rng.integers(1, 8)), length)) < 0.6
        bits[np.arange(len(bits)), rng.integers(0, length, size=len(bits))] = True
        masks = [FeatureMask(b) for b in bits]
        stacked = _d2(train, queries, masks)
        for mask, got in zip(masks, stacked):
            active = mask.active_indices().tolist()
            for q, row in zip(queries.tolist(), got.tolist()):
                assert row == [d2 for _, d2 in sorted(
                    nearest_oracle(rows.tolist(), q, n_train, active))]


def test_term_is_the_outer_difference_squared_bit_for_bit(rng):
    # the gathered train column minus the query column, squared, must equal
    # the square of q - t bit for bit: magnitudes over six decades, signed
    # zeros, one query or many, one training sample or many, and +inf where
    # the square overflows
    for n_queries, n_train in ((1, 1), (1, 9), (6, 1), (6, 9)):
        length = 7
        scale = 10.0 ** rng.integers(-3, 4, size=length)
        rows = rng.normal(size=(n_train, length)) * scale
        queries = rng.normal(size=(n_queries, length)) * scale
        rows[0, :3], queries[0, :3] = (1e200, 0.0, -0.0), (-1e200, -0.0, 0.0)
        train = from_rows(rows.tolist(), ["a"] * n_train)
        out = np.empty((n_queries, n_train))
        with np.errstate(over="ignore"):
            for j in range(length):
                want = np.square(np.subtract.outer(queries[:, j], rows[:, j])).view(np.int64)
                assert np.array_equal(_term(train, queries, j).view(np.int64), want)
                assert _term(train, queries, j, out=out) is out
                assert np.array_equal(out.view(np.int64), want)
            assert _term(train, queries, 0)[0, 0] == math.inf  # 1e200 - -1e200, squared


def test_d2_of_no_queries_is_an_empty_block():
    train = from_rows([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], ["a", "b", "a"])
    masks = [FeatureMask.from_indices([0], 2), FeatureMask.from_indices([0, 1], 2)]
    assert _term(train, np.empty((0, 2)), 1).shape == (0, 3)
    assert _d2(train, np.empty((0, 2)), masks).shape == (2, 0, 3)


@settings(derandomize=True, database=None)
@given(grid_problems())
def test_chunked_scores_equal_one_mask_fitness_on_integer_grids(problem):
    train, test, masks = problem
    for k in range(1, train.n_samples + 1):
        cfg = GaConfig(k=k, alpha=0.5, beta=0.5)
        want = [fitness(mask, train, test, cfg) for mask in masks]
        assert scored_at_widths(masks, train, test, cfg) == [want] * 4


def test_chunked_scores_equal_one_mask_fitness_on_the_reference_pair(reference_pair):
    train, test = reference_pair
    length = train.feature_count
    rng = np.random.default_rng(12957)
    # overlapping masks of every density, then masks with no feature in common
    shared = [FeatureMask(rng.random(length) < p) for p in (0.05, 0.3, 0.5, 0.7, 0.95)]
    disjoint = [FeatureMask.from_indices(range(i, length, 5), length) for i in range(5)]
    masks = shared + disjoint + [FeatureMask.from_indices([70, 101, 112], length),
                                 FeatureMask(np.ones(length, bool))]
    assert all(m.active_count for m in masks)
    assert np.array_equal(_d2(train, test.features, masks),
                          [_d2(train, test.features, [m])[0] for m in masks])
    for k in (1, 3):
        cfg = GaConfig(k=k, alpha=0.5, beta=0.5)
        want = [fitness(mask, train, test, cfg) for mask in masks]
        assert scored_at_widths(masks, train, test, cfg) == [want] * 4


def test_scoring_a_generation_on_the_reference_pair_allocates_under_1_5_mib(reference_pair):
    # one d2 block of at most D2_BUDGET bytes, freed before the next chunk's, plus one
    # (queries x train) term; a whole-generation block would be 3.7 MB here
    train, test = reference_pair
    rng = np.random.default_rng(12957)
    masks = [FeatureMask(rng.random(train.feature_count) < 0.5) for _ in range(50)]
    cfg = GaConfig(alpha=0.5, beta=0.5)
    tracemalloc.start()
    try:
        scored = list(ga._scored(mask_predictions(train, test, cfg.k, masks), train, test, cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(scored) == 50
    assert peak < 1.5 * (1 << 20)
