"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written in plain Python (lists, loops,
``math``) with no shared code paths with the package under test, so an
agreement between the two is meaningful evidence rather than a tautology.
"""

from __future__ import annotations

import math

REJECT = -1


def nearest_oracle(train_rows, x, k, active):
    """The k nearest training rows as (sample index, squared distance) pairs.

    ``active`` is the list of feature indices entering the metric; each
    squared distance is summed over them in the order given.  Distance ties
    fall back to ascending sample index.
    """
    d2 = []
    for row in train_rows:
        s = 0.0
        for j in active:
            diff = float(row[j]) - float(x[j])
            s += diff * diff
        d2.append(s)
    order = sorted(range(len(train_rows)), key=lambda i: (d2[i], i))[:k]
    return [(i, d2[i]) for i in order]


def classify_oracle(train_rows, train_labels, x, k, active, n_classes,
                    reject_ties=False):
    """Compute-all / sort / vote nearest-neighbour reference.

    Neighbours come from ``nearest_oracle``; vote ties go to the class whose
    voting neighbours have the smallest summed distance, then to the smaller
    class id (or to REJECT when ``reject_ties``).
    """
    counts = [0] * n_classes
    dist_sums = [0.0] * n_classes
    for i, d2 in nearest_oracle(train_rows, x, k, active):
        c = int(train_labels[i])
        counts[c] += 1
        dist_sums[c] += math.sqrt(d2)
    top = max(counts)
    tied = [c for c in range(n_classes) if counts[c] == top]
    if len(tied) == 1:
        return tied[0]
    if reject_ties:
        return REJECT
    return min(tied, key=lambda c: (dist_sums[c], c))


def hits_oracle(train_rows, train_labels, test_rows, test_labels, k, active,
                n_classes):
    """Number of correctly classified test rows under the reference voter."""
    hits = 0
    for row, actual in zip(test_rows, test_labels):
        if classify_oracle(train_rows, train_labels, row, k, active, n_classes) == int(actual):
            hits += 1
    return hits


def exhaustive_oracle(train_rows, train_labels, test_rows, test_labels,
                      n_features, alpha, beta, k, n_classes):
    """Best feature subset by brute force over all 2^L - 1 candidates.

    Returns (bit tuple, fitness, hits, nf) with the same tie rules the
    library documents: higher fitness, then fewer features, then the
    lexicographically smaller bit tuple.
    """
    best = None
    for m in range(1, 1 << n_features):
        active = [j for j in range(n_features) if (m >> j) & 1]
        hits = hits_oracle(train_rows, train_labels, test_rows, test_labels,
                           k, active, n_classes)
        nf = len(active)
        fit = alpha * hits - beta * nf
        bits = tuple((m >> j) & 1 for j in range(n_features))
        key = (-fit, nf, bits)
        if best is None or key < best[0]:
            best = (key, bits, fit, hits, nf)
    return best[1], best[2], best[3], best[4]


def jacobi_eigh(a, residual, max_sweeps=60):
    """Diagonalise a symmetric matrix by cyclic threshold-Jacobi rotations
    (Golub & Van Loan, *Matrix Computations*, section 8.5).

    Stops once the off-diagonal Frobenius norm is at most ``residual`` times
    the matrix norm.  Returns (eigenvalues, V) in the internal (unsorted)
    order, where V is a list of rows whose column j is eigenvector j.
    """
    a = [[float(x) for x in row] for row in a]
    n = len(a)
    v = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    scale = math.sqrt(sum(x * x for row in a for x in row))
    if scale == 0.0:
        return [0.0] * n, v
    target = residual * scale
    skip = target / (2.0 * n)  # elements this small cannot keep off-norm above target
    for _ in range(max_sweeps):
        off2 = sum(a[i][j] ** 2 for i in range(n) for j in range(n) if i != j)
        if off2 <= target * target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if abs(apq) <= skip:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                if abs(theta) > 1e150:
                    t = 1.0 / (2.0 * theta)
                else:
                    root = math.sqrt(theta * theta + 1.0)
                    t = 1.0 / (theta + root) if theta >= 0 else 1.0 / (theta - root)
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for row in a + v:  # rotate columns p and q
                    row[p], row[q] = c * row[p] - s * row[q], s * row[p] + c * row[q]
                a[p], a[q] = ([c * x - s * y for x, y in zip(a[p], a[q])],
                              [s * x + c * y for x, y in zip(a[p], a[q])])
                a[p][q] = a[q][p] = 0.0
    return [a[i][i] for i in range(n)], v
