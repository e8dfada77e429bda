"""Tuple-based exact vectors and matrices.

Everything here is immutable-in, immutable-out, except ``pivot``, the
in-place Gauss-Jordan step that elimination shares with the ``exactlp``
simplex; matrices are tuples of row tuples. ``pivot`` works fraction-free
on sparse rows: each row is a dict of its nonzero Python ints by column,
over one positive denominator, and is kept primitive, so no rational is
built while a matrix is reduced and no zero is stored or touched; values
become rationals again only where they leave it. ``primitive_row`` gives
a row's dense ints and ``sparse_row`` its nonzeros. The two sums, ``dot``
and the weighted sum ``combine``, read each value's .numerator and
.denominator, accumulate an int numerator over one running positive
denominator per result, and build one normalized rational per result.
Gaussian elimination pivots on the first nonzero, once per call of
``independent_rows`` or ``solve_unique``, the start of ``exactlp.vertex_enumerate``.

Hot paths build tuples from lists (``tuple([...])``), not generators:
CPython sizes a generator's tuple by resizing, and its tuple free lists
keep the resized blocks, which over a long run shows as peak memory.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .ratio import ZERO, Rational, as_ratio


def qvec(values: Iterable) -> tuple[Rational, ...]:
    return tuple([as_ratio(v) for v in values])


def qmat(rows: Iterable[Iterable]) -> tuple[tuple[Rational, ...], ...]:
    return tuple(qvec(row) for row in rows)


def vzero(n: int) -> tuple[Rational, ...]:
    return (ZERO,) * n


def dot(a: Sequence, b: Sequence) -> Rational:
    """sum_i a[i] * b[i], skipping zero entries; a and b must have the
    same length. Rational or int entries, read through .numerator and
    .denominator only; the sum is kept as one int numerator over the
    least common multiple of the terms' denominators and normalized once."""
    num, den = 0, 1
    for x, y in zip(a, b, strict=True):
        if x and y:
            n = x.numerator * y.numerator
            d = x.denominator * y.denominator
            q, rem = divmod(den, d)
            if rem:
                g = math.gcd(den, d)
                num = num * (d // g) + n * (den // g)
                den = den // g * d
            else:
                num += n * q
    return as_ratio(num, den)


def combine(weights: Sequence, vectors: Sequence[Sequence]) -> tuple[Rational, ...]:
    """sum_i weights[i] * vectors[i], skipping zero weights and zero entries.

    The only weighted sum of vectors here; row times matrix is
    combine(row, matrix). Needs at least one vector, whose length is the
    result's. Accumulates each coordinate as ``dot`` does, one int
    numerator over its own running denominator, and normalizes each once."""
    if not vectors:
        raise ValueError("need at least one vector")
    n = len(vectors[0])
    nums = [0] * n
    dens = [1] * n
    for w, vec in zip(weights, vectors, strict=True):
        if len(vec) != n:
            raise ValueError("vectors differ in length")
        if w:
            wn, wd = w.numerator, w.denominator
            for j, x in enumerate(vec):
                if x:
                    t = wn * x.numerator
                    d = wd * x.denominator
                    den = dens[j]
                    q, rem = divmod(den, d)
                    if rem:
                        g = math.gcd(den, d)
                        nums[j] = nums[j] * (d // g) + t * (den // g)
                        dens[j] = den // g * d
                    else:
                        nums[j] += t * q
    return tuple([as_ratio(p, q) for p, q in zip(nums, dens)])


def outer(a: Sequence, b: Sequence) -> tuple[tuple[Rational, ...], ...]:
    return tuple(tuple(x * y for y in b) for x in a)


def transpose(matrix: Sequence[Sequence]) -> tuple[tuple[Rational, ...], ...]:
    return tuple(zip(*matrix, strict=True))


def matrix_times_col(matrix: Sequence[Sequence], col: Sequence) -> tuple[Rational, ...]:
    return tuple(dot(row, col) for row in matrix)


def primitive_row(values: Iterable) -> tuple[list[int], int]:
    """Rationals as (ints, den): integers over their least common
    denominator. Each value is read through .numerator and .denominator
    only, and is in lowest terms, so the row is primitive:
    math.gcd(den, *ints) == 1."""
    values = list(values)
    den = math.lcm(*[x.denominator for x in values])
    return [x.numerator * (den // x.denominator) for x in values], den


def _primitive_ray(values) -> list[int]:
    """The positive multiple of a nonzero rational vector whose entries are
    integers with no common factor."""
    ints = primitive_row(values)[0]
    g = math.gcd(*ints)
    return [x // g for x in ints]


def sparse_row(ints: Iterable[int]) -> dict[int, int]:
    """The nonzero ints by column, the row form of ``pivot``."""
    return {j: x for j, x in enumerate(ints) if x}


def pivot(rows: list[dict[int, int]], dens: list[int], r: int, c: int) -> None:
    """Integer Gauss-Jordan step in place: afterwards rows[r][c] / dens[r]
    is one and column c of every other row zero.

    Row i stands for the rationals rows[i].get(j, 0) / dens[i]: it stores
    only its nonzero ints, by column, with dens[i] > 0 and the row
    primitive (math.gcd(dens[i], *rows[i].values()) == 1). With p =
    rows[r][c], row r becomes row_r / p, p's sign moved into the row so
    that its denominator stays positive; every other row i with f =
    rows[i][c] != 0 loses column c and, with g = gcd(p, f), becomes
    (scale row_i - (f / g) row_r) over dens[i] scale, scale = p / g. Each
    changed row is divided by its gcd with its denominator, so every row
    stays primitive and one value has one representation, and an entry
    that becomes zero is deleted. Rows change in place (callers may pass
    a fresh list of their rows); the subtraction touches only the
    columns where row r is nonzero, and every pass only stored entries.

    That gcd is gcd(dens[i], *new row), without the factor scale: row r
    is primitive once divided by its own gcd, so each prime q of scale,
    which divides p, fails to divide some entry b of row r outside column
    c; as gcd(scale, f / g) = 1, the new entry there, scale x - (f / g) b,
    is -(f / g) b mod q, not zero. So no prime of scale divides the whole
    new row, a row over dens[i] == 1 needs no gcd at all, and every row
    comes out as it would from the gcd with dens[i] scale.
    """
    prow = rows[r]
    g = math.gcd(*prow.values())
    if prow[c] < 0:
        g = -g
    if g != 1:
        for j, b in prow.items():
            prow[j] = b // g
    p = dens[r] = prow[c]
    entries = [(j, b) for j, b in prow.items() if j != c]
    for i, row in enumerate(rows):
        if i != r:
            f = row.pop(c, 0)
            if f:
                g = math.gcd(p, f)
                scale, f = p // g, f // g
                if scale != 1:
                    for j, x in row.items():
                        row[j] = scale * x
                get = row.get
                for j, b in entries:
                    x = get(j, 0) - f * b
                    if x:
                        row[j] = x
                    else:
                        del row[j]
                den = dens[i]
                if den != 1:
                    g = math.gcd(den, *row.values())
                    if g != 1:
                        for j, x in row.items():
                            row[j] = x // g
                        den //= g
                dens[i] = den * scale


def _eliminate(work: list[dict[int, int]], dens: list[int], ncols: int) -> list[int]:
    """Gauss-Jordan elimination of the sparse integer rows work / dens, in
    place, over their first ncols columns.

    Returns the pivot columns, increasing; their count is the rank r.
    Rows 0..r-1 then have a one in their own pivot column and a zero in
    every other row's pivot column.
    """
    cols: list[int] = []
    for col in range(ncols):
        r = len(cols)
        found = next((i for i in range(r, len(work)) if col in work[i]), None)
        if found is None:
            continue
        work[r], work[found] = work[found], work[r]
        dens[r], dens[found] = dens[found], dens[r]
        pivot(work, dens, r, col)
        cols.append(col)
        if r + 1 == len(work):
            break
    return cols


def _integer_rows(rows: Iterable[Iterable]) -> tuple[list[dict[int, int]], list[int]]:
    """The rows in ``pivot``'s sparse form, as the work and dens of _eliminate."""
    pairs = [primitive_row(row) for row in rows]
    return [sparse_row(ints) for ints, _ in pairs], [den for _, den in pairs]


def independent_rows(rows: Sequence[Sequence]) -> list[int]:
    """Indices, in order, of the rows independent of the rows before them:
    the pivot columns of one elimination of their integer rows' transpose."""
    return _eliminate(*_integer_rows(transpose(rows)), len(rows))


def solve_unique(matrix: Sequence[Sequence],
                 rhs: Sequence[Sequence]) -> tuple[tuple[Rational, ...], ...] | None:
    """Solve matrix . X = rhs, rhs a row of right-hand sides per matrix row,
    X a row per variable; None unless every column of X exists and is unique."""
    if not matrix:
        return None
    n, width = len(matrix[0]), len(rhs[0])
    aug, dens = _integer_rows((*row, *r) for row, r in zip(matrix, rhs, strict=True))
    if len(_eliminate(aug, dens, n)) < n:
        return None  # underdetermined
    if any(aug[n:]):
        return None  # inconsistent: a row left with only right-hand sides
    # Every column is a pivot column, so row i holds x_i for each right-hand side.
    return tuple([tuple([as_ratio(row.get(j, 0), den) for j in range(n, n + width)])
                  for row, den in zip(aug[:n], dens)])
