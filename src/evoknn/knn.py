"""Masked Euclidean k-nearest-neighbour classification and recognition rate.

All operations are pure functions of immutable inputs; neighbour ordering and
vote ties are fully specified so identical inputs always yield identical
labels, regardless of evaluation order.  ``k_nearest``, ``classify`` and
``recognition_rate`` are one-query and whole-test-set calls of one kernel,
``_knn``, which is ``_vote(_d2(...))``.  ``_d2`` checks the query shape and
mask, then fills the (queries x train) squared-distance matrix one active
feature at a time, in ascending feature order.  Each distance is therefore
the plain left-to-right sum a scalar loop makes, whatever order a library
routine would choose.  ``_vote`` takes d2 of shape (..., queries, train) and
votes every row of every leading index (one per mask, say) in the same
passes.  The k neighbours of a row come from k argmin passes, so distance
ties go to the lower sample index.  That costs O(k * queries * train) where
a sort costs O(queries * train * log train); the paper and its workloads use
k <= 3.  A vote tie goes to the class whose voting neighbours have the
smallest summed distance, then to the smaller class id, or to ``REJECT`` in
reject mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import Dataset

REJECT = -1  # returned by classify(reject_ties=True) when no class wins the vote


@dataclass(frozen=True)
class FeatureMask:
    """Fixed-length bit string selecting which features enter the metric.

    Bit n corresponds to feature n; the leftmost character of the text form
    is feature 0.
    """

    bits: np.ndarray

    def __post_init__(self):
        bits = np.ascontiguousarray(self.bits, dtype=bool)
        if bits.ndim != 1 or bits.size == 0:
            raise ValueError("mask must be a non-empty 1D bit string")
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)

    @classmethod
    def from_string(cls, text: str) -> "FeatureMask":
        if not text or set(text) - {"0", "1"}:
            raise ValueError(f"mask string must be '0'/'1' characters, got {text!r}")
        return cls(np.frombuffer(text.encode("ascii"), dtype=np.uint8) == ord("1"))

    @classmethod
    def from_indices(cls, indices: Sequence[int], length: int) -> "FeatureMask":
        bits = np.zeros(length, dtype=bool)
        for i in indices:
            if not 0 <= i < length:
                raise ValueError(f"feature index {i} out of range for length {length}")
            bits[i] = True
        return cls(bits)

    @classmethod
    def full(cls, length: int) -> "FeatureMask":
        return cls(np.ones(length, dtype=bool))

    @property
    def length(self) -> int:
        return self.bits.size

    @property
    def active_count(self) -> int:
        return int(self.bits.sum())

    def active_indices(self) -> np.ndarray:
        return np.flatnonzero(self.bits)

    def to_string(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)

    def to_index_string(self) -> str:
        return ",".join(str(i) for i in self.active_indices())

    def __eq__(self, other):
        return isinstance(other, FeatureMask) and np.array_equal(self.bits, other.bits)

    def __hash__(self):
        return hash(self.bits.tobytes())


@dataclass(frozen=True)
class Neighbor:
    sample_index: int
    distance: float
    label: int


def _d2(train: Dataset, queries, mask: FeatureMask) -> np.ndarray:
    """(queries x train) squared distances, one term per active feature in
    ascending order.  A sum too large for a double is +inf, which orders last."""
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != train.feature_count:
        raise ValueError(f"queries must have the training set's {train.feature_count} features")
    if mask.length != train.feature_count:
        raise ValueError(
            f"mask length {mask.length} does not match feature count {train.feature_count}"
        )
    active = mask.active_indices()
    if active.size == 0:
        raise ValueError("mask has no active features")
    d2 = np.zeros((queries.shape[0], train.n_samples))
    term = np.empty_like(d2)
    with np.errstate(over="ignore"):
        for j in active:
            np.subtract.outer(queries[:, j], train.features[:, j], out=term)
            d2 += np.square(term, out=term)
    return d2


def _vote(
    d2: np.ndarray, labels: np.ndarray, n_classes: int, k: int, reject_ties: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(neighbour indices, their d2, predicted class) for every row of ``d2``.

    ``d2`` is (..., queries, train); leading axes, one per mask say, are voted
    as more rows and kept in the outputs.  The picks are overwritten in ``d2``
    itself, so the caller's array is spent.
    """
    n_train = d2.shape[-1]
    if not 1 <= k <= n_train:
        raise ValueError(f"k must be in 1..{n_train}, got {k}")
    lead = d2.shape[:-1]
    d2 = d2.reshape(-1, n_train)

    # k argmin passes over the bit patterns, which order non-negative doubles
    # (+inf included) as their values do; argmin returns the first index of a
    # tie, so equal distances go to the lower sample index.  A pick is retired
    # with the largest int64, which lies above +inf's pattern.
    n_rows = d2.shape[0]
    rows = np.arange(n_rows)
    keys = d2.view(np.int64)
    order = np.empty((n_rows, k), dtype=np.intp)
    near = np.empty((n_rows, k))
    for i in range(k):
        order[:, i] = pick = keys.argmin(axis=1)
        near[:, i] = d2[rows, pick]
        keys[rows, pick] = np.iinfo(np.int64).max

    # one bincount over (row, class) cells counts every row's votes at once
    cells = (rows[:, None] * n_classes + labels[order]).ravel()
    counts = np.bincount(cells, minlength=n_rows * n_classes)
    counts = counts.reshape(n_rows, n_classes)
    tied = counts == counts.max(axis=1, keepdims=True)
    if reject_ties:
        predicted = np.where(tied.sum(axis=1) == 1, tied.argmax(axis=1), REJECT)
    else:
        # tie rule: smallest summed distance of the class's voting neighbours,
        # added in neighbour order, then smallest class id
        sums = np.bincount(cells, weights=np.sqrt(near).ravel(), minlength=counts.size)
        sums = sums.reshape(counts.shape)
        closest = np.where(tied, sums, np.inf).min(axis=1, keepdims=True)
        predicted = (tied & (sums == closest)).argmax(axis=1)
    return order.reshape(*lead, k), near.reshape(*lead, k), predicted.reshape(lead)


def _knn(
    train: Dataset, queries, k: int, mask: FeatureMask, reject_ties: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One mask's (neighbour indices, their d2, predicted class) per query row."""
    return _vote(_d2(train, queries, mask), train.labels, len(train.classes), k, reject_ties)


def k_nearest(train: Dataset, x, k: int, mask: FeatureMask) -> list[Neighbor]:
    """The k closest training samples, ties broken by ascending sample index."""
    order, d2, _ = _knn(train, [x], k, mask)
    return [
        Neighbor(int(i), math.sqrt(float(d)), int(train.labels[i]))
        for i, d in zip(order[0], d2[0])
    ]


def classify(
    train: Dataset, x, k: int, mask: FeatureMask, reject_ties: bool = False
) -> int:
    """Plurality vote among the k nearest prototypes; k=1 is minimum-distance.

    With ``reject_ties=True`` an unresolved vote returns ``REJECT`` instead of
    applying the summed-distance/class-id tie rule.
    """
    return int(_knn(train, [x], k, mask, reject_ties)[2][0])


def recognition_rate(
    train: Dataset,
    test: Dataset,
    k: int,
    mask: FeatureMask,
    reject_ties: bool = False,
) -> tuple[int, float, list[tuple[int, int]]]:
    """Classify every test sample; returns (hits, hit rate, per-sample pairs).

    ``per_sample`` lists (predicted, actual) label ids in test order, so
    error listings can be reconstructed.  A rejected prediction never counts
    as a hit.
    """
    if train.classes != test.classes:
        raise ValueError("train and test class vocabularies differ")
    predicted = _knn(train, test.features, k, mask, reject_ties)[2]
    hits = int(np.count_nonzero(predicted == test.labels))
    per_sample = list(zip(predicted.tolist(), test.labels.tolist()))
    return hits, hits / test.n_samples, per_sample
