import random
from fractions import Fraction as F
from math import lcm

import numpy as np
import pytest
from scipy.optimize import linprog

from cisgraphs import lp
from cisgraphs.lp import Unbounded, null_space, solve_equality_lp

import oracles


def rational(optimum):
    """An integer optimum (value, x, den) as the rational (value, x) it
    stands for."""
    value, x, den = optimum
    assert den > 0
    return F(value, den), [F(v, den) for v in x]


def solve_all(a, b, objectives, maximize=True):
    """Every optimum of solve_equality_lp, read in order, or None when the
    system is infeasible.  The LP only maximizes: a minimum of c is read
    as the maximum of -c with the value negated."""
    sign = 1 if maximize else -1
    optimum = solve_equality_lp(a, b, [[sign * x for x in c]
                                       for c in objectives])
    if optimum is None:
        return None
    out = []
    for k in range(len(objectives)):
        value, x, den = optimum(k)
        out.append((sign * value, x, den))
    return out


def rational_lp(a, b, objectives, maximize=True):
    """solve_all with every optimum read as rationals."""
    optima = solve_all(a, b, objectives, maximize)
    return None if optima is None else [rational(o) for o in optima]


def solve_one(a, b, c, maximize=True):
    res = solve_all(a, b, [c], maximize)
    return None if res is None else res[0]


def test_simple_max():
    value, x = rational(solve_one([[1, 1, 1]], [1], [2, 1, 0],
                                  maximize=True))
    assert value == 2
    assert x == [F(1), F(0), F(0)]


def test_simple_min():
    value, _ = rational(solve_one([[1, 1]], [1], [3, 5], maximize=False))
    assert value == 3


def test_exact_fractions():
    # x + 2y = 1, 3x + y = 1 -> x = 1/5, y = 2/5
    value, x = rational(solve_one([[1, 2], [3, 1]], [1, 1], [1, 1],
                                  maximize=False))
    assert x == [F(1, 5), F(2, 5)]
    assert value == F(3, 5)


def test_infeasible():
    assert solve_equality_lp([[1, 1], [1, 1]], [1, 2], [[1, 0]]) is None
    # negativity makes it infeasible even with consistent equalities
    assert solve_one([[1, -1]], [-1], [0, 0]) is not None  # x=0, y=1 works
    assert solve_equality_lp([[-1, -1]], [1], [[0, 0]]) is None
    # infeasibility is found without any objective
    assert solve_equality_lp([[-1, -1]], [1], []) is None
    assert solve_all([[1, 1]], [1], []) == []


def test_redundant_rows():
    value, _ = rational(solve_one([[1, 1], [2, 2]], [1, 2], [1, 0],
                                  maximize=True))
    assert value == 1


def test_unbounded():
    with pytest.raises(Unbounded):
        solve_all([[1, -1]], [0], [[1, 0]])
    # a bounded objective listed first does not hide a later unbounded one
    with pytest.raises(Unbounded):
        solve_all([[1, -1]], [0], [[-1, 0], [1, 0]])


def test_degenerate_cycling_guard():
    # classic degenerate instance; Bland's rule must terminate
    rows = [[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0], [1, 1, 0, 0, 0, 1]]
    value, _ = rational(solve_one(rows, [0, 0, 0], [1, 1, 0, 0, 0, 0],
                                  maximize=True))
    assert value == 0


def random_systems(seed=0, count=40):
    """Feasible random systems a @ x == b, x >= 0 with a random objective."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, 4)
        n = rng.randint(m, 6)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        feas = [rng.randint(0, 3) for _ in range(n)]
        b = [sum(r[j] * feas[j] for j in range(n)) for r in a]
        c = [rng.randint(-3, 3) for _ in range(n)]
        yield a, b, c


def test_against_scipy_random():
    for a, b, c in random_systems():
        n = len(c)
        res = linprog(
            np.array(c, dtype=float),
            A_eq=np.array(a, dtype=float),
            b_eq=np.array([float(v) for v in b]),
            bounds=[(0, None)] * n,
            method="highs",
        )
        try:
            value, x = rational(solve_one(a, b, c, maximize=False))
        except Unbounded:
            assert res.status == 3  # scipy: unbounded
            continue
        assert res.status == 0
        assert abs(float(value) - res.fun) < 1e-7
        # solution is feasible and exact
        for r, bv in zip(a, b):
            assert sum(F(ri) * xi for ri, xi in zip(r, x)) == bv
        assert all(xi >= 0 for xi in x)


def test_many_objectives_match_single_calls():
    # one phase 1 shared by k objectives gives exactly the optima (values
    # and vertices) of k separate solves, and Unbounded still propagates
    rng = random.Random(1)
    unbounded = 0
    for a, b, c in random_systems():
        n = len(c)
        objectives = [c] + [
            [rng.randint(-3, 3) for _ in range(n)] for _ in range(4)
        ]
        for maximize in (False, True):
            singles = []
            for obj in objectives:
                try:
                    singles.append(solve_one(a, b, obj, maximize))
                except Unbounded:
                    singles.append(Unbounded)
            if Unbounded in singles:
                unbounded += 1
                with pytest.raises(Unbounded):
                    solve_all(a, b, objectives, maximize)
                # the objectives before the first unbounded one still solve
                first = singles.index(Unbounded)
                assert solve_all(a, b, objectives[:first],
                                 maximize) == singles[:first]
            else:
                assert solve_all(a, b, objectives, maximize) == singles
    assert unbounded > 0


def test_null_space():
    rows = [[1, 1, 0], [0, 0, 1]]
    basis = null_space(rows, 3)
    assert len(basis) == 1
    for v in basis:
        for r in rows:
            assert sum(F(a) * b for a, b in zip(r, v)) == 0


def test_null_space_dimension_random():
    rng = random.Random(4)
    for _ in range(25):
        m, n = rng.randint(1, 4), rng.randint(1, 6)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        basis = null_space(rows, n)
        rank = np.linalg.matrix_rank(np.array(rows, dtype=float))
        assert len(basis) == n - rank
        for v in basis:
            for r in rows:
                assert sum(F(a) * b for a, b in zip(r, v)) == 0


def integral(rows):
    """Rational rows times one positive multiple that makes them
    integers."""
    scale = lcm(*[F(x).denominator for row in rows for x in row])
    return [[int(x * scale) for x in row] for row in rows]


def reference_systems(seed, count):
    """Random systems a @ x == b over the rationals, with several
    objectives: negative right-hand sides, redundant rows, infeasible and
    unbounded cases all occur.  A third are 0/1 systems with b = 1, the
    weight polytopes' shape, where degenerate ratio-test ties are common;
    zero and 0/1 objectives have many optima, so a different pivot
    sequence shows as a different vertex.  The LP takes integers, so each
    system is scaled as a whole by one positive multiple, which keeps its
    pivots, and each objective by its own."""
    rng = random.Random(seed)

    def entry():
        return F(rng.randint(-5, 5), rng.choice((1, 1, 1, 2, 3, 4, 7)))

    for _ in range(count):
        m = rng.randint(0, 4)
        n = rng.randint(1, 6)
        if rng.random() < 1 / 3:
            a = [[rng.randint(0, 1) for _ in range(n)] for _ in range(m)]
            b = [1] * m
        else:
            a = [[entry() for _ in range(n)] for _ in range(m)]
            if a and rng.random() < 0.3:
                # a redundant row: a rational multiple of an earlier one
                k = F(rng.randint(-3, 3) or 1, rng.randint(1, 3))
                a.insert(rng.randint(0, len(a)),
                         [k * x for x in rng.choice(a)])
            feas = [F(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(n)]
            b = [sum(r[j] * feas[j] for j in range(n)) for r in a]
            if b and rng.random() < 0.25:
                b[rng.randrange(len(b))] += F(rng.randint(1, 3),
                                              rng.randint(1, 2))
        objectives = [
            rng.choice((
                [entry() for _ in range(n)],
                [rng.randint(0, 1) for _ in range(n)],
                [0] * n,
            ))
            for _ in range(rng.randint(0, 3))
        ]
        *a, b = integral([*a, b])
        yield a, b, [integral([c])[0] for c in objectives]


def outcome(solve, a, b, objectives, maximize):
    try:
        return solve(a, b, objectives, maximize)
    except Unbounded:
        return Unbounded


def test_integer_simplex_matches_fraction_reference():
    # the integer tableau takes the rational tableau's pivots, so values
    # and vertices are equal, not merely both optimal
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0, "negative_b": 0}
    for a, b, objectives in reference_systems(seed=7, count=2000):
        seen["negative_b"] += any(v < 0 for v in b)
        # phase 1 ends on the same basis, with the same rational tableau
        n = len(a[0]) if a else 0
        start = lp._feasible_tableau(a, b, n)
        want = oracles._feasible_tableau(a, b, n)
        if want is None:
            assert start is None
        else:
            rows, basis, den = start
            assert basis == want[1]
            assert [[F(x, den) for x in row] for row in rows] == want[0]
        for maximize in (False, True):
            got = outcome(rational_lp, a, b, objectives, maximize)
            want = outcome(oracles.solve_equality_lp, a, b, objectives,
                           maximize)
            assert got == want, (a, b, objectives, maximize)
            if want is None:
                seen["infeasible"] += 1
            elif want is Unbounded:
                seen["unbounded"] += 1
            else:
                seen["optimal"] += 1
    assert min(seen.values()) >= 100, seen


def test_fraction_free_rref_matches_fraction_reference():
    for a, _, _ in reference_systems(seed=8, count=2000):
        n = len(a[0]) if a else 3
        mat, pivots, den = lp._rref_ints(a, n)
        red = [[F(x, den) for x in row] for row in mat]
        assert (red, pivots) == oracles.rref(a, n)
        # den times the rational basis, the same den for every vector
        assert null_space(a, n) == [[den * x for x in v]
                                    for v in oracles.null_space(a, n)]


def test_optima_are_solved_once_each_when_read(monkeypatch):
    # solving runs no phase 2; the returned function runs phase 2 for an
    # objective on its first call with it and keeps the optimum: whatever
    # the order of calls, the optima equal the reference's, and an
    # unbounded objective raises on each call with it, and only then
    phase2 = []
    original = lp._optimize

    def counting(start, c, n):
        phase2.append(c)
        return original(start, c, n)

    monkeypatch.setattr(lp, "_optimize", counting)
    rng = random.Random(9)
    seen = {"read": 0, "unbounded": 0, "out of order": 0}
    for a, b, objectives in reference_systems(seed=9, count=600):
        for maximize in (False, True):
            sign = 1 if maximize else -1
            phase2.clear()
            signed = [[sign * x for x in c] for c in objectives]
            optimum = solve_equality_lp(a, b, signed)
            assert phase2 == []
            if optimum is None:
                assert oracles.solve_equality_lp(a, b, objectives,
                                                 maximize) is None
                continue
            order = list(range(len(objectives)))
            rng.shuffle(order)
            seen["out of order"] += order != sorted(order)
            for k in order:
                want = outcome(oracles.solve_equality_lp, a, b,
                               [objectives[k]], maximize)
                phase2.clear()
                if want is Unbounded:
                    for _ in range(2):
                        with pytest.raises(Unbounded):
                            optimum(k)
                    assert phase2 == [signed[k]] * 2
                    seen["unbounded"] += 1
                    continue
                got = optimum(k)
                value, x, den = got
                assert phase2 == [signed[k]]
                assert [rational((sign * value, x, den))] == want
                phase2.clear()
                assert optimum(k) is got
                assert phase2 == []
                seen["read"] += 1
            with pytest.raises(IndexError):
                optimum(len(objectives))
    assert min(seen.values()) >= 50, seen
