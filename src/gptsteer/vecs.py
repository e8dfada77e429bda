"""Tuple-based exact vectors and matrices.

Everything here is immutable-in, immutable-out, except ``pivot``, the
in-place Gauss-Jordan step that elimination shares with the ``exactlp``
simplex; matrices are tuples of row tuples. Gaussian elimination uses
first-nonzero pivoting, which is all exact arithmetic needs.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .ratio import ONE, ZERO, Rational, as_ratio


def qvec(values: Iterable) -> tuple[Rational, ...]:
    return tuple(as_ratio(v) for v in values)


def qmat(rows: Iterable[Iterable]) -> tuple[tuple[Rational, ...], ...]:
    return tuple(qvec(row) for row in rows)


def vzero(n: int) -> tuple[Rational, ...]:
    return (ZERO,) * n


def dot(a: Sequence, b: Sequence) -> Rational:
    total = ZERO
    for x, y in zip(a, b, strict=True):
        if x and y:
            total += x * y
    return total


def combine(weights: Sequence, vectors: Sequence[Sequence]) -> tuple[Rational, ...]:
    """sum_i weights[i] * vectors[i], skipping zero weights and zero entries.

    The only weighted sum of vectors here; row times matrix is
    combine(row, matrix). Needs at least one vector, whose length is the result's."""
    if not vectors:
        raise ValueError("need at least one vector")
    n = len(vectors[0])
    total = [ZERO] * n
    for w, vec in zip(weights, vectors, strict=True):
        if len(vec) != n:
            raise ValueError("vectors differ in length")
        if w:
            for j, x in enumerate(vec):
                if x:
                    total[j] += w * x
    return tuple(total)


def outer(a: Sequence, b: Sequence) -> tuple[tuple[Rational, ...], ...]:
    return tuple(tuple(x * y for y in b) for x in a)


def transpose(matrix: Sequence[Sequence]) -> tuple[tuple[Rational, ...], ...]:
    return tuple(zip(*matrix, strict=True))


def matrix_times_col(matrix: Sequence[Sequence], col: Sequence) -> tuple[Rational, ...]:
    return tuple(dot(row, col) for row in matrix)


def pivot(rows: list[list], r: int, c: int) -> None:
    """Gauss-Jordan step in place: rows[r][c] becomes one and column c of
    every other row zero, touching only the columns where row r is nonzero."""
    prow = rows[r]
    piv = prow[c]
    if piv != ONE:
        inv = ONE / piv
        for j, x in enumerate(prow):
            if x:
                prow[j] = x * inv
    entries = [(j, b) for j, b in enumerate(prow) if b]
    for i, row in enumerate(rows):
        if i != r:
            f = row[c]
            if f:
                for j, b in entries:
                    row[j] -= f * b


def _eliminate(work: list[list], ncols: int) -> int:
    """Gauss-Jordan elimination of work, in place, over its first ncols columns.

    Returns the rank r. Rows 0..r-1 then have a one in their own pivot
    column, pivot columns increasing with the row, and a zero in every
    other row's pivot column.
    """
    r = 0
    for col in range(ncols):
        found = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if found is None:
            continue
        work[r], work[found] = work[found], work[r]
        pivot(work, r, col)
        r += 1
        if r == len(work):
            break
    return r


def rank(rows: Sequence[Sequence]) -> int:
    if not rows:
        return 0
    return _eliminate([list(r) for r in rows], len(rows[0]))


def affine_rank(points: Sequence[Sequence]) -> int:
    """Rank of the difference vectors to the first point (0 for a single point)."""
    if len(points) <= 1:
        return 0
    base = points[0]
    return rank([combine((ONE, -ONE), (p, base)) for p in points[1:]])


def solve_unique(matrix: Sequence[Sequence], rhs: Sequence) -> tuple[Rational, ...] | None:
    """Solve matrix . x = rhs; None unless the solution exists and is unique."""
    if not matrix:
        return None
    n = len(matrix[0])
    aug = [list(row) + [r] for row, r in zip(matrix, rhs, strict=True)]
    if _eliminate(aug, n) < n:
        return None  # underdetermined
    for row in aug[n:]:
        if row[n] != 0:
            return None  # inconsistent
    # Every column is a pivot column, so row i holds x_i.
    return qvec(row[n] for row in aug[:n])
