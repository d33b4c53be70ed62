"""Exact simplex over the rationals (two-phase, Bland's rule), run in
integers.

Problems here are tiny (at most a few dozen variables and rows).  The
dense tableau holds integer rows and one common denominator ``den > 0``
(entry ``T[i][j]`` stands for ``T[i][j] / den``), and each pivot is
integer-preserving (Edmonds 1967): every other row becomes
``(T[i]·p − T[i][c]·T[r]) // den``, which divides exactly, and ``den``
becomes the pivot ``|p|``.  The pivot sequence is the one a rational
tableau would take, so the optima are the same.  :func:`null_space`
uses fraction-free elimination (Bareiss 1968) and divides once at the
end.  :class:`fractions.Fraction` appears only in the returned values.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class Unbounded(RuntimeError):
    """The LP is unbounded; the callers' polytopes are bounded, so this
    signals a modeling bug."""


def scaled_ints(values):
    """Rational values (ints or Fractions) scaled to integers: (scale,
    ints), where scale is the lcm of their denominators and ints[i] is
    values[i] * scale."""
    scale = lcm(*[x.denominator for x in values])
    return scale, [x.numerator * (scale // x.denominator) for x in values]


def _pivot(tab, basis, den, row, col):
    """Integer-preserving pivot on (row, col); returns the new denominator.

    Rows are replaced, never edited in place.
    """
    prow = tab[row]
    p = prow[col]
    if p < 0:
        prow = tab[row] = [-x for x in prow]
        p = -p
    for i, r in enumerate(tab):
        if i == row:
            continue
        f = r[col]
        if f:
            tab[i] = [(a * p - f * b) // den for a, b in zip(r, prow)]
        elif p != den:
            tab[i] = [a * p // den for a in r]
    basis[row] = col
    return p


def _iterate(tab, basis, den, ncols):
    """Run simplex steps on a tableau whose last row is the (minimization)
    objective in reduced form.  Bland's rule throughout; the ratio test
    compares by cross-multiplication.  Returns the final denominator."""
    m = len(tab) - 1
    while True:
        obj = tab[-1]
        col = next((j for j in range(ncols) if obj[j] < 0), None)
        if col is None:
            return den
        best = None
        for i in range(m):
            a = tab[i][col]
            if a > 0:
                if best is None:
                    best, num, div = i, tab[i][-1], a
                    continue
                lhs, rhs = tab[i][-1] * div, num * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                    best, num, div = i, tab[i][-1], a
        if best is None:
            raise Unbounded("no leaving variable")
        den = _pivot(tab, basis, den, best, col)


def _feasible_tableau(a_rows, b, n):
    """Phase 1: a basic feasible tableau of a_rows @ x == b, x >= 0.

    Returns None when the system is infeasible, else (rows, basis, den),
    each integer row holding the n variable coefficients and the
    right-hand side over the common denominator den.  Redundant rows are
    dropped.  The objective is never read, so one phase 1 serves every
    objective over the same system.
    """
    m = len(a_rows)
    # one multiple for the whole system: scaling rows separately would
    # change the phase-1 objective (the sum of the rows) and its pivots
    _, flat = scaled_ints([x for ai, bi in zip(a_rows, b) for x in (*ai, bi)])
    tab = []
    for i in range(m):
        ints = flat[i * (n + 1):(i + 1) * (n + 1)]
        if ints[-1] < 0:
            ints = [-x for x in ints]
        # artificial variable per row
        art = [0] * m
        art[i] = 1
        tab.append(ints[:n] + art + ints[n:])
    width = n + m
    basis = list(range(n, width))
    objrow = [-sum(col) for col in zip(*tab)] if tab else [0] * (width + 1)
    objrow[n:width] = [0] * m
    tab.append(objrow)
    den = _iterate(tab, basis, 1, width)
    if tab[-1][-1] != 0:
        return None
    # drive artificials out of the basis where possible; rows that cannot
    # be pivoted are redundant and get dropped
    tab.pop()
    drop = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is None:
                drop.append(i)
            else:
                den = _pivot(tab, basis, den, i, col)
    for i in reversed(drop):
        tab.pop(i)
        basis.pop(i)
    return [row[:n] + [row[-1]] for row in tab], basis, den


def _optimize(start, c, n, maximize):
    """Phase 2 from a feasible tableau, which is left unchanged."""
    rows, basis, den = start
    tab = list(rows)  # _pivot replaces rows, it never edits one in place
    basis = list(basis)
    sign = -den if maximize else den
    scale, ints = scaled_ints(c)
    # the objective times scale, carried at the tableau's denominator
    objrow = [sign * x for x in ints] + [0]
    for i, bv in enumerate(basis):
        f = objrow[bv]
        if f:
            # basic columns are den times a unit vector, so this divides
            objrow = [a - f * b_ // den for a, b_ in zip(objrow, tab[i])]
    tab.append(objrow)
    den = _iterate(tab, basis, den, n)
    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        x[bv] = Fraction(tab[i][-1], den)
    value = Fraction(tab[-1][-1] if maximize else -tab[-1][-1], den * scale)
    return value, x


def solve_equality_lp(a_rows, b, objectives, maximize=False):
    """Optimize each objective c.x subject to a_rows @ x == b, x >= 0,
    exactly.

    Phase 1 runs once; phase 2 runs for each objective, in order, from a
    fresh copy of the feasible tableau.  Returns None when the system is
    infeasible, else one (value, x) per objective, with Fraction entries.
    Raises :class:`Unbounded` when an objective is unbounded.
    """
    objectives = list(objectives)
    n = len(objectives[0]) if objectives else (len(a_rows[0]) if a_rows else 0)
    start = _feasible_tableau(a_rows, b, n)
    if start is None:
        return None
    return [_optimize(start, c, n, maximize) for c in objectives]


def _rref_ints(rows, ncols):
    """Fraction-free Gauss-Jordan elimination.

    Returns (integer rows, pivot column list, den): the reduced row
    echelon form is the returned rows divided by den, and every pivot
    entry equals den.
    """
    mat = [scaled_ints(row)[1] for row in rows]
    pivots = [None] * len(mat)
    den = 1
    r = 0
    for col in range(ncols):
        if r == len(mat):
            break
        pr = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        den = _pivot(mat, pivots, den, r, col)
        r += 1
    return mat[:r], pivots[:r], den


def null_space(rows, ncols):
    """Basis of the null space of the matrix, as rational vectors: one
    per free column, 1 there and 0 at the other free columns."""
    mat, pivots, den = _rref_ints(rows, ncols)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(mat, pivots):
            v[p] = Fraction(-row[f], den)
        basis.append(v)
    return basis
