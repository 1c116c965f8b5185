"""Masked Euclidean k-nearest-neighbour classification and recognition rate.

All operations are pure functions of immutable inputs; neighbour ordering and
vote ties are fully specified so identical inputs always yield identical
labels, regardless of evaluation order.  Every caller's predictions come
from one of the two generators below, ``mask_predictions`` or
``subset_predictions``.

This module owns the d2 block: a (masks x queries x train) array of squared
distances, at most ``D2_BUDGET`` bytes, or one (queries x train) matrix when
a single one exceeds it (``_block_rows``).  Two generators fill one block,
vote it with one ``_vote`` call and yield each mask with its row of
predicted classes:

- ``mask_predictions`` scores a list of masks, ``_block_rows`` at a time, in
  one feature-outer ``_d2`` pass each, adding every active feature's term
  into every mask that uses it.  A term is the train column gathered once
  and broadcast down the query rows, minus the query column, squared
  (``_term``).  Given a ``term_table``, a (features x queries x train)
  array of every feature's term filled once, the pass adds ``table[j]``;
  without one it computes each term once per chunk into a scratch matrix.
  The GA holds one table per run, when it fits ``TERM_BUDGET``; every
  other caller scores without one, so its working set stays one block:
  each chunk fills its own, freed after its vote, before the next is filled.
- ``subset_predictions`` scores every non-empty subset by prefix extension
  (Narendra & Fukunaga, 1977).  The top ``b`` features, ``2**b`` rows, span
  one block; the low sets ``s`` are visited in ascending order, low feature
  ``j`` being bit ``low - 1 - j`` of ``s``.  The parent ``s & (s - 1)``,
  which lacks the highest feature, comes first, and every value between has
  more features, so ``prefix[level - 1]`` still holds the parent's sum.  Row
  ``r | 2**i`` of the block is row ``r`` plus high feature ``i``'s term.
  The ``b`` high terms are computed once per walk and kept; a low term is
  computed once per low set that adds it, and not kept.  So what is held is
  the block, the high terms and one prefix per level: on the oracle bench's
  shape (30 x 60 matrices, ``b`` = 6) that peaks at about 1.45 MiB.
  A block's masks are the rows of one (``2**b`` x features) bit matrix, the
  low set's bits broadcast beside the fixed high bits; each ``FeatureMask``
  copies its row into its key, so the matrix is reused.

Either way each mask receives its terms in ascending feature order, so each
distance is the plain left-to-right sum a scalar loop makes, bit for bit.
A sum too large for a double is +inf, which orders last.  ``_vote`` takes d2
of shape (..., queries, train) and votes every row of every leading index
in the same passes.  ``recognition_rate`` counts one mask's hits in its
row and returns the row; the GA keeps this per-mask call while the
benchmark's hooks count and time it.  The k neighbours of a row come from k
argmin passes, so distance ties go to the lower sample index; each pick is
read and retired through its flat index.  That costs O(k * queries * train)
where a sort costs O(queries * train * log train); the paper and its
workloads use k <= 3.  At k = 1 the nearest sample's class is the
prediction, with no vote: one neighbour cannot tie, in either mode.
Otherwise the votes are counted class-major: one bincount over (class, row)
cells makes (classes x rows) counts and summed distances, so each per-row
step runs along the short class axis over contiguous rows.  A vote tie goes
to the class whose voting neighbours have the smallest summed distance,
added in neighbour order, then to the smaller class id, or to ``REJECT`` in
reject mode.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .dataset import Dataset

REJECT = -1  # the predicted class in reject mode when no class wins the vote
_RETIRED = np.iinfo(np.int64).max  # key of a picked neighbour in _vote
D2_BUDGET = 1 << 20  # bytes of one d2 block: the summed distances held at once
TERM_BUDGET = 16 << 20  # bytes of the largest term table a GA run holds


@dataclass(frozen=True, init=False)
class FeatureMask:
    """Fixed-length bit string selecting which features enter the metric.

    Bit n corresponds to feature n; the leftmost character of the text form
    is feature 0.  ``key``, the one field, holds one 0/1 byte per feature;
    equality and hashing come from it, and at equal length key order is text
    order, so ``(-fitness, nf, key)`` sorts ties by fewer features, then by
    the smaller 0/1 text.  ``bits`` is a read-only bool view of ``key``.
    Every mask has an active feature: k-NN cannot score one that selects none.
    """

    key: bytes

    def __init__(self, bits):
        bits = np.asarray(bits, dtype=bool)
        if bits.ndim != 1 or bits.size == 0:
            raise ValueError("mask must be a non-empty 1D bit string")
        key = bits.tobytes()
        if 1 not in key:  # not bits.any(): a numpy call per subset would slow the oracle
            raise ValueError("mask has no active features")
        object.__setattr__(self, "key", key)

    @property
    def bits(self) -> np.ndarray:
        return np.frombuffer(self.key, dtype=bool)

    @classmethod
    def from_string(cls, text: str) -> "FeatureMask":
        if not text or set(text) - {"0", "1"}:
            raise ValueError(f"mask string must be '0'/'1' characters, got {text!r}")
        return cls(np.frombuffer(text.encode("ascii"), dtype=np.uint8) == ord("1"))

    @classmethod
    def from_indices(cls, indices: Sequence[int], length: int) -> "FeatureMask":
        """The mask of ``indices``, each in 0..length-1 and named once: a
        repeat is refused, naming each repeated index, never merged."""
        for i in indices:
            if not 0 <= i < length:
                raise ValueError(f"feature index {i} out of range for length {length}")
        counts = np.bincount(np.asarray(indices, dtype=np.intp), minlength=length)
        if (repeated := np.flatnonzero(counts > 1)).size:
            raise ValueError(
                f"mask names feature index {','.join(map(str, repeated))} more than once")
        return cls(counts > 0)

    @property
    def length(self) -> int:
        return len(self.key)

    @property
    def active_count(self) -> int:
        return self.key.count(1)

    def active_indices(self) -> np.ndarray:
        return np.flatnonzero(self.bits)

    def to_string(self) -> str:
        return self.key.translate(bytes.maketrans(b"\0\1", b"01")).decode("ascii")

    def to_index_string(self) -> str:
        return ",".join(str(i) for i in self.active_indices())


def _term(train: Dataset, queries: np.ndarray, j: int, out=None) -> np.ndarray:
    """Feature ``j``'s (queries x train) squared differences, into ``out`` if
    given.  The one place this term is written: every way of filling a d2
    block adds it, so their sums agree bit for bit.

    The train column is gathered once into row 0 and broadcast down, then
    the query column is subtracted in place: faster than
    ``np.subtract.outer(q, t)``, and since ``t - q`` is exactly ``-(q - t)``
    its square is the same bit for bit.  Row 0 is written through ``[:1]``,
    so zero queries give an empty term."""
    term = np.empty((queries.shape[0], train.n_samples)) if out is None else out
    term[:1] = train.features[:, j]
    term[1:] = term[:1]
    term -= queries[:, j, None]
    return np.square(term, out=term)


def _queries(train: Dataset, queries) -> np.ndarray:
    """``queries`` as a (queries x features) float array of the training set's
    width; any other shape is refused."""
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != train.feature_count:
        raise ValueError(f"queries must have the training set's {train.feature_count} features")
    return queries


def term_table(train: Dataset, test: Dataset) -> Optional[np.ndarray]:
    """Every feature's ``_term`` of ``test`` against ``train``: a read-only
    (features x test x train) array, filled in place one feature at a time,
    or None when it would take more than ``TERM_BUDGET`` bytes."""
    queries = _queries(train, test.features)
    shape = (train.feature_count, test.n_samples, train.n_samples)
    if 8 * math.prod(shape) > TERM_BUDGET:
        return None
    table = np.empty(shape)
    with np.errstate(over="ignore"):
        for j in range(train.feature_count):
            _term(train, queries, j, out=table[j])
    table.setflags(write=False)
    return table


def _d2(train: Dataset, queries, masks: Sequence[FeatureMask], table=None) -> np.ndarray:
    """(masks x queries x train) squared distances in one feature-outer pass,
    into a new zeroed block.  ``table``, if given, is ``term_table``'s, and
    each term is read from it instead of computed.  The stacked masks must
    have the training set's width: a short one would score a prefix."""
    queries = _queries(train, queries)
    bits = np.stack([mask.bits for mask in masks])
    if bits.shape[1] != train.feature_count:
        raise ValueError(
            f"mask length {bits.shape[1]} does not match feature count {train.feature_count}")
    shape = (len(masks), queries.shape[0], train.n_samples)
    d2 = np.zeros(shape)
    scratch = np.empty(shape[1:]) if table is None else None
    features, owners = np.nonzero(bits.T)  # (feature, mask) pairs, feature-major
    rows = list(d2)  # one view per mask, built once: cheaper than d2[m] per add
    last = -1
    with np.errstate(over="ignore"):
        for j, m in zip(features.tolist(), owners.tolist()):
            if j != last:
                term = _term(train, queries, j, out=scratch) if table is None else table[j]
                last = j
            rows[m] += term
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
    d2 = d2.reshape(-1)

    # k argmin passes over the bit patterns, which order non-negative doubles
    # (+inf included) as their values do; argmin returns the first index of a
    # tie, so equal distances go to the lower sample index.  A pick is read
    # and retired through its flat index, with the largest int64, which lies
    # above +inf's pattern.
    keys = d2.view(np.int64)
    rows = keys.reshape(-1, n_train)
    n_rows = rows.shape[0]
    starts = np.arange(0, d2.size, n_train)
    order = np.empty((k, n_rows), dtype=np.intp)
    near = np.empty((k, n_rows))
    for i in range(k):
        order[i] = pick = rows.argmin(axis=1)
        pick = pick + starts
        near[i] = d2[pick]
        keys[pick] = _RETIRED
    if k == 1:
        # one neighbour cannot tie, in either mode: its class is the prediction
        predicted = labels[order[0]]
    else:
        # one bincount over class-major (class, row) cells counts every row's
        # votes at once; each per-row step below then runs along the short
        # class axis 0, across contiguous rows
        cells = (labels[order] * n_rows + np.arange(n_rows)).ravel()
        counts = np.bincount(cells, minlength=n_classes * n_rows).reshape(n_classes, n_rows)
        tied = counts == counts.max(axis=0)
        del counts  # freed before sums is allocated, which lowers the peak
        if reject_ties:
            predicted = np.where(np.count_nonzero(tied, axis=0) == 1, tied.argmax(axis=0), REJECT)
        else:
            # tie rule: smallest summed distance of the class's voting
            # neighbours, then smallest class id; bincount adds each cell's
            # weights in input order, which is neighbour order
            sums = np.bincount(cells, weights=np.sqrt(near).ravel(), minlength=tied.size)
            sums = np.where(tied, sums.reshape(tied.shape), np.inf)
            predicted = (tied & (sums == sums.min(axis=0))).argmax(axis=0)
    return order.T.reshape(*lead, k), near.T.reshape(*lead, k), predicted.reshape(lead)


def _block_rows(train: Dataset, test: Dataset) -> int:
    """How many (queries x train) d2 matrices fit ``D2_BUDGET``, at least 1."""
    return max(1, D2_BUDGET // (8 * test.n_samples * train.n_samples))


def mask_predictions(
    train: Dataset, test: Dataset, k: int, masks: Iterable[FeatureMask],
    reject_ties: bool = False, table: Optional[np.ndarray] = None,
) -> Iterator[tuple[FeatureMask, np.ndarray]]:
    """``(mask, predicted class per test sample)`` for each of ``masks``, in
    order.  Each chunk of ``_block_rows`` masks is one ``_d2`` pass into its
    own block, freed once ``_vote`` returns its predicted classes.  ``table``,
    if given, is ``term_table(train, test)``, read for the passes' terms."""
    masks = iter(masks)
    width = _block_rows(train, test)
    while chunk := list(itertools.islice(masks, width)):
        predicted = _vote(_d2(train, test.features, chunk, table=table), train.labels,
                          len(train.classes), k, reject_ties)[2]
        yield from zip(chunk, predicted)


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
    bits = np.empty((1 << b, length), dtype=bool)
    bits[:, low:] = np.arange(1 << b)[:, None] >> np.arange(b) & 1
    block = np.empty((1 << b, test.n_samples, train.n_samples))
    with np.errstate(over="ignore"):
        high = [_term(train, queries, low + i) for i in range(b)]
    prefix = [0.0] * (low + 1)  # prefix[level]: d2 of the last low set at that level
    for s in range(1 << low):
        level = s.bit_count()
        with np.errstate(over="ignore"):
            if s:
                j = low - (s & -s).bit_length()  # the highest feature of s
                prefix[level] = prefix[level - 1] + _term(train, queries, j)
            block[0] = prefix[level]
            for i in range(b):
                np.add(block[: 1 << i], high[i], out=block[1 << i : 2 << i])
        first = 0 if s else 1  # the empty low set's row 0 is the empty mask
        bits[:, :low] = s >> low_shifts & 1
        masks = [FeatureMask(row) for row in bits[first:]]
        yield from zip(masks, _vote(block[first:], train.labels, len(train.classes), k)[2])


def recognition_rate(
    train: Dataset,
    test: Dataset,
    k: int,
    mask: FeatureMask,
    reject_ties: bool = False,
    *,
    predicted: Optional[np.ndarray] = None,
) -> tuple[int, float, np.ndarray]:
    """(hits, hit rate, predicted row) of ``mask`` on the test set.

    The row is one class id per test sample, ``REJECT`` included, which never
    counts as a hit: ``predicted`` if given, as a generator yielded it, else
    ``mask_predictions`` on ``[mask]``."""
    if train.classes != test.classes:
        raise ValueError("train and test class vocabularies differ")
    if predicted is None:
        ((_, predicted),) = mask_predictions(train, test, k, [mask], reject_ties)
    elif predicted.shape != (test.n_samples,):
        raise ValueError(
            f"predicted has shape {predicted.shape}, not (test,) = {(test.n_samples,)}"
        )
    hits = int(np.count_nonzero(predicted == test.labels))
    return hits, hits / test.n_samples, predicted
