"""Labelled tabular datasets: CSV loading, splitting, optional min-max scaling.

Also home of ``atomic_write``, the one way evoknn writes a file, of
``write_rows``, the one way it writes a CSV file (the datasets of
``write_csv``, ``project``'s coordinates and ``ga.write_trace``'s trace), and
of ``cell_text``, the one way a value becomes text in a CSV cell, a manifest
or a stdout report.
"""

from __future__ import annotations

import csv
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

DEFAULT_LABEL_COLUMN = "label"
_CONTROL = re.compile(r"[\x00-\x08\x0a-\x1f\x7f]")  # control characters but tab


class DatasetError(ValueError):
    """Raised when a dataset file or construction violates the format contract."""


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix with integer labels and a class vocabulary.

    ``features`` is (n_samples, feature_count) float64, ``labels`` is
    (n_samples,) int, and ``classes`` is a tuple of unique, non-empty class
    names without leading or trailing whitespace or any control character
    but tab: label ``c`` names ``classes[c]``.  A dataset has at least one
    sample and at least one feature, so every consumer can rely on both.
    All arrays are write-protected after construction so the dataset can be
    shared freely across readers.
    """

    features: np.ndarray
    labels: np.ndarray
    classes: tuple[str, ...] = ()

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        labs = np.asarray(self.labels, dtype=np.intp)
        if feats.ndim != 2:
            raise DatasetError("features must be a 2D array")
        if feats.size == 0:
            raise DatasetError("dataset is empty: it needs at least one sample and one feature")
        if labs.shape != (feats.shape[0],):
            raise DatasetError("labels must be one per sample")
        if not np.isfinite(feats).all():
            raise DatasetError("features contain NaN or infinite values")
        classes = tuple(self.classes)
        if len(set(classes)) != len(classes) or any(not n for n in classes):
            raise DatasetError("class names must be unique and non-empty")
        # load_csv strips names, so "a" and "a " would merge on reload
        if any(n != n.strip() for n in classes):
            raise DatasetError("class names must not start or end with whitespace")
        # a line break splits eval's one line per sample, and XML refuses most
        # other controls in an SVG; tab is allowed
        if any(_CONTROL.search(n) for n in classes):
            raise DatasetError("class names must not hold control characters other than tab")
        if labs.size and (labs.min() < 0 or labs.max() >= len(classes)):
            raise DatasetError("sample label outside the class vocabulary")
        feats.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)
        object.__setattr__(self, "classes", classes)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def feature_count(self) -> int:
        return self.features.shape[1]


def from_rows(rows: Sequence[Sequence[float]], label_names: Sequence[str]) -> Dataset:
    """Build a Dataset from feature rows and per-row label names.

    Class ids are assigned by first appearance, so permuting rows permutes
    samples while ids keep following the first occurrence of each name.
    """
    if len(rows) != len(label_names):
        raise DatasetError("one label per row required")
    order: dict[str, int] = {}
    labels = []
    for name in label_names:
        if name not in order:
            order[name] = len(order)
        labels.append(order[name])
    return Dataset(np.asarray(rows, dtype=np.float64), np.asarray(labels), tuple(order))


def load_csv(path, label_column=DEFAULT_LABEL_COLUMN, has_header: bool = True) -> Dataset:
    """Load a labelled dataset from a comma-separated file.

    ``label_column`` selects the label column by header name or 0-based
    index (an int, or a digit string when there is no header).  Remaining
    columns become features in file order; each feature cell is an ASCII
    number without ``_``.  Blank lines are ignored; a ragged or non-numeric
    row is reported with its 1-based row number.  A leading UTF-8 byte-order
    mark is skipped.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        raw = [(i + 1, row) for i, row in enumerate(csv.reader(fh)) if row]
    if not raw:
        raise DatasetError(f"{path}: empty file")

    width = len(raw[0][1])  # the header's, when there is one
    header: list[str] | None = None
    if has_header:
        header = [cell.strip() for cell in raw[0][1]]
        if len(set(header)) != len(header):
            raise DatasetError(f"{path}: duplicate header names")
        raw = raw[1:]
        if not raw:
            raise DatasetError(f"{path}: no data rows")

    if width < 2:
        raise DatasetError(f"{path}: need at least one feature column besides the label")
    label_idx = _resolve_label_column(label_column, header, width, path)

    rows: list[list[float]] = []
    names: list[str] = []
    for lineno, row in raw:
        if len(row) != width:
            raise DatasetError(
                f"{path}: ragged row {lineno} has {len(row)} columns, expected {width}"
            )
        names.append(row[label_idx].strip())
        cells = row[:label_idx] + row[label_idx + 1 :]
        # _is_float's ASCII and underscore checks, made once on the joined
        # cells, which keeps this loop as fast as float() alone
        text = "".join(cells)
        try:
            if not text.isascii() or "_" in text:
                raise ValueError
            rows.append([float(cell) for cell in cells])
        except ValueError:
            bad = next(
                j for j, cell in enumerate(row)
                if j != label_idx and not _is_float(cell)
            )
            raise DatasetError(
                f"{path}: non-numeric feature value {row[bad]!r} at row {lineno}, column {bad}"
            ) from None
    try:
        return from_rows(rows, names)
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from None


def _resolve_label_column(label_column, header, width, path) -> int:
    if isinstance(label_column, int):
        idx = label_column
    elif isinstance(label_column, str) and header is not None and label_column in header:
        return header.index(label_column)
    elif isinstance(label_column, str) and re.fullmatch(r"-?[0-9]+", label_column):
        idx = int(label_column)
    else:
        raise DatasetError(f"{path}: label column {label_column!r} not found")
    if idx < 0:
        idx += width
    if not 0 <= idx < width:
        raise DatasetError(f"{path}: label column index {label_column} out of range")
    return idx


def _is_float(cell: str) -> bool:
    """Whether ``cell`` is a feature value: ASCII without ``_``, and read by
    ``float``, which alone would also take "1_000" and other scripts' digits."""
    if not cell.isascii() or "_" in cell:
        return False
    try:
        float(cell)
        return True
    except ValueError:
        return False


@contextmanager
def atomic_write(path):
    """Yield a text handle whose bytes replace ``path`` when the block succeeds.

    Missing parent directories are made.  The handle writes UTF-8 with no
    newline translation to a temp file beside ``path``, opened with ``open``
    so its mode follows the umask.  On success ``os.replace`` moves it over
    ``path``; on any exception the temp file is deleted and the exception
    re-raised, so ``path`` keeps its previous bytes or stays absent.  There is
    no fsync: this survives a killed process, not a power loss.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def cell_text(value) -> str:
    """A float with ``float.__repr__``, so a finite value round-trips exactly
    through ``float`` and a numpy float prints as Python's (``28.2``, not
    ``np.float64(28.2)``); anything else with ``str``."""
    return float.__repr__(value) if isinstance(value, float) else str(value)


def write_rows(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV file through ``atomic_write``: ``header``, then ``rows``,
    each line ended by ``\n`` and each cell written by ``cell_text``.  The
    csv module quotes a cell that holds a comma or a quote."""
    with atomic_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell_text(v) for v in row])


def write_csv(d: Dataset, path) -> None:
    """Write a dataset as CSV: a header ``f0..f{n-1},label``, then one row per
    sample, features then its class name."""
    write_rows(path, [f"f{j}" for j in range(d.feature_count)] + ["label"],
               (row + [d.classes[lab]] for row, lab in zip(d.features.tolist(), d.labels)))


def split_random(
    d: Dataset, test_count: int, seed: int, stratified: bool = False
) -> tuple[Dataset, Dataset]:
    """Split off ``test_count`` random samples, fully determined by ``seed``.

    Returns disjoint (train, test) whose union is the input; both parts keep
    the complete class vocabulary even when a class ends up with no test
    samples.  ``stratified=True`` allocates per-class test counts by largest
    remainder of the class proportions instead of uniform sampling.
    """
    n = d.n_samples
    if not 0 < test_count < n:
        raise DatasetError(f"test_count must be in 1..{n - 1}, got {test_count}")
    rng = np.random.default_rng(seed)
    if stratified:
        test_idx = _stratified_pick(d.labels, len(d.classes), test_count, rng)
    else:
        test_idx = rng.permutation(n)[:test_count]
    test_mask = np.zeros(n, dtype=bool)
    test_mask[test_idx] = True
    train = Dataset(d.features[~test_mask], d.labels[~test_mask], d.classes)
    test = Dataset(d.features[test_mask], d.labels[test_mask], d.classes)
    return train, test


def _stratified_pick(labels, n_classes, test_count, rng) -> np.ndarray:
    counts = np.bincount(labels, minlength=n_classes)
    exact = counts * (test_count / labels.size)
    take = np.floor(exact).astype(int)
    # largest-remainder rounding, ties by class id; never exceed class size
    remainders = exact - take
    for c in np.lexsort((np.arange(n_classes), -remainders)):
        if take.sum() >= test_count:
            break
        if take[c] < counts[c]:
            take[c] += 1
    picked = []
    for c in range(n_classes):
        members = np.flatnonzero(labels == c)
        picked.extend(rng.permutation(members)[: take[c]])
    return np.asarray(sorted(picked), dtype=np.intp)


def unify_vocabulary(*datasets: Dataset) -> tuple[Dataset, ...]:
    """Remap datasets onto one shared class vocabulary, matching by name.

    Needed after loading datasets from separate files, where first-appearance
    ids were assigned per file.  The first dataset's order wins; names first
    seen in a later dataset are appended in argument order.
    """
    order: dict[str, int] = {}
    for d in datasets:
        for name in d.classes:
            order.setdefault(name, len(order))
    classes = tuple(order)
    remapped = []
    for d in datasets:
        remap = np.asarray([order[name] for name in d.classes], dtype=np.intp)
        remapped.append(Dataset(d.features, remap[d.labels], classes))
    return tuple(remapped)


def normalize_minmax(
    train: Dataset, others: Sequence[Dataset] = ()
) -> tuple[Dataset, list[Dataset], tuple[np.ndarray, np.ndarray]]:
    """Affinely map each feature so the train min/max land on 0/1.

    The train-set bounds are applied unchanged to ``others``, so their values
    may fall outside [0, 1].  Constant train features map to 0 everywhere.
    Returns (scaled train, scaled others, (per-feature min, per-feature max)).
    """
    lo = train.features.min(axis=0)
    hi = train.features.max(axis=0)
    span = hi - lo
    safe = np.where(span > 0, span, 1.0)

    def apply(d: Dataset) -> Dataset:
        scaled = (d.features - lo) / safe
        scaled[:, span == 0] = 0.0
        return Dataset(scaled, d.labels, d.classes)

    return apply(train), [apply(d) for d in others], (lo.copy(), hi.copy())
