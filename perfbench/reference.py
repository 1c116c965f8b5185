"""Independent recounts of evoknn's outputs, in plain numpy.

Nothing here imports evoknn: the files the program wrote are parsed again
and every checked number is recomputed from the CSVs, so agreement is
evidence and not a tautology.  The tie rules are the documented ones:
distance ties go to the lower sample index; vote ties go to the class whose
voting neighbours have the smaller summed distance, then the lower class id.
Class ids follow first appearance in the training file, then in the
evaluation file.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np


def read_csv(path: Path) -> tuple[np.ndarray, list[str]]:
    """(features, label names) of a CSV whose last column is ``label``."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    if header[-1] != "label":
        raise ValueError(f"{path}: last column is {header[-1]!r}, not 'label'")
    features = np.loadtxt(lines[1:], delimiter=",", usecols=range(len(header) - 1), ndmin=2)
    return features, [line.rsplit(",", 1)[1] for line in lines[1:]]


def read_pairs(text: str) -> dict[str, str]:
    """``key = value`` lines (manifests, summaries, stdout reports)."""
    pairs = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            pairs[key.strip()] = value.strip()
    return pairs


def knn_hits(train_csv: Path, eval_csv: Path, active: list[int], k: int) -> int:
    """Correctly classified evaluation rows under masked Euclidean k-NN."""
    x_train, names_train = read_csv(train_csv)
    x_eval, names_eval = read_csv(eval_csv)
    ids: dict[str, int] = {}
    for name in names_train + names_eval:
        ids.setdefault(name, len(ids))
    y_train = np.array([ids[n] for n in names_train])
    y_eval = np.array([ids[n] for n in names_eval])
    a_train = x_train[:, active]
    index = np.arange(len(y_train))
    hits = 0
    for row, actual in zip(x_eval[:, active], y_eval):
        d2 = ((a_train - row) ** 2).sum(axis=1)
        nearest = np.lexsort((index, d2))[:k]
        counts = np.bincount(y_train[nearest], minlength=len(ids))
        tied = np.flatnonzero(counts == counts.max())
        if tied.size == 1:
            predicted = int(tied[0])
        else:
            sums = {int(c): 0.0 for c in tied}
            for i in nearest:
                if int(y_train[i]) in sums:
                    sums[int(y_train[i])] += math.sqrt(d2[i])
            predicted = min(sums, key=lambda c: (sums[c], c))
        hits += int(predicted == actual)
    return hits


def top_eigenvalues(x: np.ndarray, active: list[int] | None) -> tuple[float, float]:
    """The two largest covariance eigenvalues (divisor n-1) by numpy.linalg.eigh."""
    if active is not None:
        x = x[:, active]
    centred = x - x.mean(axis=0)
    values = np.linalg.eigh(centred.T @ centred / (len(x) - 1))[0]
    return float(values[-1]), float(values[-2])


def close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(abs(want), 1e-300)
