"""Masked Euclidean k-nearest-neighbour classification and recognition rate.

All operations are pure functions of immutable inputs; neighbour ordering and
vote ties are fully specified so identical inputs always yield identical
labels, regardless of evaluation order.  ``recognition_rate`` scores one mask
on a whole test set through one kernel, ``_vote(_d2(...))``.

This module owns the d2 block: a (masks x queries x train) array of squared
distances, at most ``D2_BUDGET`` bytes, or one (queries x train) matrix when
a single one exceeds it (``_block_rows``).  Two generators fill one block,
vote it with one ``_vote`` call and yield each mask with its row of
predicted classes:

- ``mask_predictions`` scores a list of masks, ``_block_rows`` at a time, in
  one feature-outer ``_d2`` pass each: every active feature's ``_term`` is
  computed once and added into every mask that uses it.
- ``subset_predictions`` scores every non-empty subset by prefix extension
  (Narendra & Fukunaga, 1977).  The top ``b`` features, ``2**b`` rows, span
  one block; the low sets ``s`` are visited in ascending order, low feature
  ``j`` being bit ``low - 1 - j`` of ``s``.  The parent ``s & (s - 1)``,
  which lacks the highest feature, comes first, and every value between has
  more features, so ``prefix[level - 1]`` still holds the parent's sum.  Row
  ``r | 2**i`` of the block is row ``r`` plus high feature ``i``'s term.
  Terms are not kept, so what is held is the block and one prefix per level
  (keeping the high ones put the oracle bench's allocation peak over 1.5 MiB).

Either way each mask receives its terms in ascending feature order, so each
distance is the plain left-to-right sum a scalar loop makes, bit for bit.
A sum too large for a double is +inf, which orders last.  ``_vote`` takes d2
of shape (..., queries, train) and votes every row of every leading index
in the same passes.  ``recognition_rate(..., predicted=...)`` then only
counts one mask's hits in its row of that vote; the GA keeps this per-mask
call while the benchmark's hooks count and time it.  The k neighbours of a
row come from k argmin passes, so distance ties go to the lower sample
index.  That costs O(k * queries * train) where a sort costs
O(queries * train * log train); the paper and its workloads use k <= 3.  A
vote tie goes to the class whose voting neighbours have the smallest summed
distance, then to the smaller class id, or to ``REJECT`` in reject mode.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .dataset import Dataset

REJECT = -1  # the predicted class in reject mode when no class wins the vote
_RETIRED = np.iinfo(np.int64).max  # key of a picked neighbour in _vote
D2_BUDGET = 1 << 20  # bytes of one d2 block: the summed distances held at once


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


def _term(train: Dataset, queries: np.ndarray, j: int, out=None) -> np.ndarray:
    """Feature ``j``'s (queries x train) squared differences, into ``out`` if
    given.  The one place this term is written: both ways of filling a d2
    block add it, so their sums agree bit for bit."""
    term = np.subtract.outer(queries[:, j], train.features[:, j], out=out)
    return np.square(term, out=term)


def _queries(train: Dataset, queries) -> np.ndarray:
    """``queries`` as a (queries x features) float array of the training set's
    width; any other shape is refused."""
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != train.feature_count:
        raise ValueError(f"queries must have the training set's {train.feature_count} features")
    return queries


def _d2(train: Dataset, queries, masks: Sequence[FeatureMask], out=None) -> np.ndarray:
    """(masks x queries x train) squared distances in one feature-outer pass.

    ``out``, if given, holds at least ``len(masks)`` such matrices and is
    overwritten."""
    queries = _queries(train, queries)
    for mask in masks:
        if mask.length != train.feature_count:
            raise ValueError(
                f"mask length {mask.length} does not match feature count {train.feature_count}"
            )
        if not mask.bits.any():
            raise ValueError("mask has no active features")
    shape = (len(masks), queries.shape[0], train.n_samples)
    d2 = np.empty(shape) if out is None else out[: len(masks)]
    d2.fill(0.0)
    term = np.empty(shape[1:])
    # (feature, mask) pairs, feature-major
    features, owners = np.nonzero(np.stack([mask.bits for mask in masks]).T)
    last = -1
    with np.errstate(over="ignore"):
        for j, m in zip(features.tolist(), owners.tolist()):
            if j != last:
                _term(train, queries, j, out=term)
                last = j
            d2[m] += term
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
        keys[rows, pick] = _RETIRED

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
    return _vote(_d2(train, queries, [mask])[0], train.labels, len(train.classes), k, reject_ties)


def _block_rows(train: Dataset, test: Dataset) -> int:
    """How many (queries x train) d2 matrices fit ``D2_BUDGET``, at least 1."""
    return max(1, D2_BUDGET // (8 * test.n_samples * train.n_samples))


def mask_predictions(
    train: Dataset, test: Dataset, k: int, masks: Iterable[FeatureMask]
) -> Iterator[tuple[FeatureMask, np.ndarray]]:
    """``(mask, predicted class per test sample)`` for each of ``masks``, in
    order.  Each chunk of ``_block_rows`` masks is one ``_d2`` pass into a
    block allocated once per call, then one ``_vote``."""
    masks = iter(masks)
    width = _block_rows(train, test)
    block = None
    while chunk := list(itertools.islice(masks, width)):
        if block is None:
            block = np.empty((len(chunk), test.n_samples, train.n_samples))
        d2 = _d2(train, test.features, chunk, out=block)
        yield from zip(chunk, _vote(d2, train.labels, len(train.classes), k)[2])


def subset_predictions(
    train: Dataset, test: Dataset, k: int
) -> Iterator[tuple[FeatureMask, np.ndarray]]:
    """``(mask, predicted class per test sample)`` for every non-empty subset
    of the training set's features, by prefix extension one block of
    ``2**b`` rows at a time (see the module docstring)."""
    queries = _queries(train, test.features)
    length = train.feature_count
    b = min(length, _block_rows(train, test).bit_length() - 1)
    low = length - b
    low_shifts = np.arange(low - 1, -1, -1)
    high_bits = (np.arange(1 << b)[:, None] >> np.arange(b) & 1).astype(bool)
    block = np.empty((1 << b, test.n_samples, train.n_samples))
    prefix = [0.0] * (low + 1)  # prefix[level]: d2 of the last low set at that level
    for s in range(1 << low):
        level = s.bit_count()
        with np.errstate(over="ignore"):
            if s:
                j = low - (s & -s).bit_length()  # the highest feature of s
                prefix[level] = prefix[level - 1] + _term(train, queries, j)
            block[0] = prefix[level]
            for i in range(b):
                np.add(block[: 1 << i], _term(train, queries, low + i),
                       out=block[1 << i : 2 << i])
        first = 0 if s else 1  # the empty low set's row 0 is the empty mask
        bits = (s >> low_shifts & 1).astype(bool)
        masks = [FeatureMask(np.concatenate([bits, high])) for high in high_bits[first:]]
        yield from zip(masks, _vote(block[first:], train.labels, len(train.classes), k)[2])


def recognition_rate(
    train: Dataset,
    test: Dataset,
    k: int,
    mask: FeatureMask,
    reject_ties: bool = False,
    *,
    predicted: Optional[np.ndarray] = None,
) -> tuple[int, float, list[tuple[int, int]]]:
    """Classify every test sample; returns (hits, hit rate, per-sample pairs).

    ``per_sample`` lists (predicted, actual) label ids in test order, so
    error listings can be reconstructed.  A rejected prediction never counts
    as a hit.  ``predicted``, if given, is the mask's predicted class per test
    sample as ``_vote`` returns it; the call then only counts hits.
    """
    if train.classes != test.classes:
        raise ValueError("train and test class vocabularies differ")
    if predicted is None:
        predicted = _knn(train, test.features, k, mask, reject_ties)[2]
    elif predicted.shape != (test.n_samples,):
        raise ValueError(
            f"predicted has shape {predicted.shape}, not (test,) = {(test.n_samples,)}"
        )
    hits = int(np.count_nonzero(predicted == test.labels))
    per_sample = list(zip(predicted.tolist(), test.labels.tolist()))
    return hits, hits / test.n_samples, per_sample
