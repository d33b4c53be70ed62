"""Exact simplex over the rationals (two-phase, Bland's rule).

Problems here are tiny (at most a few dozen variables and rows), so a
dense tableau with :class:`fractions.Fraction` entries is plenty.
"""

from __future__ import annotations

from fractions import Fraction


class Unbounded(RuntimeError):
    """The LP is unbounded; the callers' polytopes are bounded, so this
    signals a modeling bug."""


def _pivot(tab, basis, row, col):
    piv = tab[row][col]
    tab[row] = [x / piv for x in tab[row]]
    for i, r in enumerate(tab):
        if i != row and r[col]:
            f = r[col]
            tab[i] = [a - f * b for a, b in zip(r, tab[row])]
    basis[row] = col


def _iterate(tab, basis, ncols):
    """Run simplex steps on a tableau whose last row is the (minimization)
    objective in reduced form.  Bland's rule throughout."""
    m = len(tab) - 1
    while True:
        obj = tab[-1]
        col = next((j for j in range(ncols) if obj[j] < 0), None)
        if col is None:
            return
        best = None
        for i in range(m):
            if tab[i][col] > 0:
                ratio = tab[i][-1] / tab[i][col]
                if best is None or ratio < best[0] or (
                    ratio == best[0] and basis[i] < basis[best[1]]
                ):
                    best = (ratio, i)
        if best is None:
            raise Unbounded("no leaving variable")
        _pivot(tab, basis, best[1], col)


def _feasible_tableau(a_rows, b, n):
    """Phase 1: a basic feasible tableau of a_rows @ x == b, x >= 0.

    Returns None when the system is infeasible, else (rows, basis), each
    row holding the n variable coefficients and the right-hand side.
    Redundant rows are dropped.  The objective is never read, so one
    phase 1 serves every objective over the same system.
    """
    m = len(a_rows)
    fr = Fraction
    rows = []
    rhs = []
    for ai, bi in zip(a_rows, b):
        ai = [fr(x) for x in ai]
        bi = fr(bi)
        if bi < 0:
            ai = [-x for x in ai]
            bi = -bi
        rows.append(ai)
        rhs.append(bi)

    # artificial variable per row
    width = n + m
    tab = []
    for i in range(m):
        row = rows[i] + [fr(0)] * m + [rhs[i]]
        row[n + i] = fr(1)
        tab.append(row)
    basis = list(range(n, n + m))
    objrow = [fr(0)] * (width + 1)
    for i in range(m):
        objrow = [a - b_ for a, b_ in zip(objrow, tab[i])]
    for j in range(n, n + m):
        objrow[j] = fr(0)
    tab.append(objrow)
    _iterate(tab, basis, width)
    if -tab[-1][-1] != 0:
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
                _pivot(tab, basis, i, col)
    for i in reversed(drop):
        tab.pop(i)
        basis.pop(i)
    return [row[:n] + [row[-1]] for row in tab], basis


def _optimize(start, c, n, maximize):
    """Phase 2 from a feasible tableau, which is left unchanged."""
    rows, basis = start
    tab = list(rows)  # _pivot replaces rows, it never edits one in place
    basis = list(basis)
    objrow = [Fraction(x) for x in c] + [Fraction(0)]
    if maximize:
        objrow = [-x for x in objrow]
    for i, bv in enumerate(basis):
        if objrow[bv]:
            f = objrow[bv]
            objrow = [a - f * b_ for a, b_ in zip(objrow, tab[i])]
    tab.append(objrow)
    _iterate(tab, basis, n)
    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        x[bv] = tab[i][-1]
    value = -tab[-1][-1]
    if maximize:
        value = -value
    return value, x


def solve_equality_lp(a_rows, b, objectives, maximize=False):
    """Optimize each objective c.x subject to a_rows @ x == b, x >= 0,
    exactly.

    Phase 1 runs once; phase 2 runs for each objective, in order, from a
    fresh copy of the feasible tableau.  Returns None when the system is
    infeasible, else one (value, x) per objective.  Raises
    :class:`Unbounded` when an objective is unbounded.
    """
    objectives = list(objectives)
    n = len(objectives[0]) if objectives else (len(a_rows[0]) if a_rows else 0)
    start = _feasible_tableau(a_rows, b, n)
    if start is None:
        return None
    return [_optimize(start, c, n, maximize) for c in objectives]


def rref(rows, ncols):
    """Reduced row echelon form over the rationals.

    Returns (reduced rows, pivot column list).
    """
    fr = Fraction
    mat = [[fr(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        piv = mat[r][col]
        mat[r] = [x / piv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def null_space(rows, ncols):
    """Basis of the null space of the matrix, as rational vectors."""
    red, pivots = rref(rows, ncols)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(v)
    return basis
