from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epmgames.lp import solve_matrix_game, solve_standard_lp


def test_basic_lp_with_duals():
    res = solve_standard_lp([1, 1], [[1, 2], [3, 1]], [4, 6])
    assert res.status == "optimal"
    assert res.x == [F(8, 5), F(6, 5)]
    assert res.objective == F(14, 5)
    assert res.duals == [F(2, 5), F(1, 5)]


small = st.integers(-3, 3).map(F) | st.sampled_from([F(1, 2), F(-2, 3)])


@st.composite
def bounded_feasible_lps(draw):
    """min c.x s.t. A x = b, x >= 0, feasible by construction and bounded below.

    b = A x0 for a nonnegative x0, so the program is feasible; c = A^T w + s
    with s >= 0, so w is dual feasible and the optimum is finite.  Rows may
    repeat as multiples of others (redundant), and b may be negative.
    """
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    A = [draw(st.lists(small, min_size=n, max_size=n)) for _ in range(m)]
    for _ in range(draw(st.integers(0, 2))):
        src = A[draw(st.integers(0, len(A) - 1))]
        scale = draw(st.sampled_from([F(-1), F(2), F(1, 3)]))
        A.append([scale * v for v in src])
    x0 = draw(st.lists(st.integers(0, 3).map(F), min_size=n, max_size=n))
    b = [sum(a * x for a, x in zip(row, x0)) for row in A]
    w = draw(st.lists(small, min_size=len(A), max_size=len(A)))
    s = draw(st.lists(st.integers(0, 3).map(F), min_size=n, max_size=n))
    c = [sum(w[i] * A[i][j] for i in range(len(A))) + s[j] for j in range(n)]
    return c, A, b


@settings(max_examples=150, deadline=None)
@given(bounded_feasible_lps())
def test_exact_dual_certificate(lp):
    c, A, b = lp
    res = solve_standard_lp(c, A, b)
    assert res.status == "optimal"
    x, y = res.x, res.duals
    assert all(v >= 0 for v in x)
    assert [sum(a * v for a, v in zip(row, x)) for row in A] == b
    reduced = [c[j] - sum(A[i][j] * y[i] for i in range(len(A))) for j in range(len(c))]
    assert all(r >= 0 for r in reduced)
    assert sum(bi * yi for bi, yi in zip(b, y)) == sum(ci * xi for ci, xi in zip(c, x))
    assert res.objective == sum(ci * xi for ci, xi in zip(c, x))


def test_pivot_counts():
    # pivots over both phases, driving artificials out included
    assert solve_standard_lp([1, 1], [[1, 2], [3, 1]], [4, 6]).pivots == 2
    assert solve_standard_lp([1, 1], [[1, 1], [2, 2]], [1, 2]).pivots == 1
    c = [F(-3, 4), 150, F(-1, 50), 6, 0, 0, 0]
    A = [
        [F(1, 4), -60, F(-1, 25), 9, 1, 0, 0],
        [F(1, 2), -90, F(-1, 50), 3, 0, 1, 0],
        [0, 0, 1, 0, 0, 0, 1],
    ]
    assert solve_standard_lp(c, A, [0, 0, 1]).pivots == 5


def test_infeasible():
    res = solve_standard_lp([1], [[1]], [-1])
    assert res.status == "infeasible"


def test_unbounded():
    # min -x s.t. x - y = 0: x can grow without bound
    res = solve_standard_lp([-1, 0], [[1, -1]], [0])
    assert res.status == "unbounded"


def test_redundant_rows():
    res = solve_standard_lp([1, 1], [[1, 1], [2, 2]], [1, 2])
    assert res.status == "optimal"
    assert res.objective == 1


def test_degenerate_terminates():
    # a classic cycling-prone instance (Beale); Bland's fallback must finish
    c = [F(-3, 4), 150, F(-1, 50), 6, 0, 0, 0]
    A = [
        [F(1, 4), -60, F(-1, 25), 9, 1, 0, 0],
        [F(1, 2), -90, F(-1, 50), 3, 0, 1, 0],
        [0, 0, 1, 0, 0, 0, 1],
    ]
    b = [0, 0, 1]
    res = solve_standard_lp(c, A, b)
    assert res.status == "optimal"
    assert res.objective == F(-1, 20)


def test_float_mode():
    res = solve_standard_lp([1.0, 1.0], [[1.0, 2.0], [3.0, 1.0]], [4.0, 6.0], tol=1e-9)
    assert res.status == "optimal"
    assert abs(res.objective - 2.8) < 1e-9


def test_matrix_game_matching_pennies():
    sol = solve_matrix_game([[1, 0], [0, 1]])
    assert sol.value == F(1, 2)
    assert sol.row_mixture == [F(1, 2), F(1, 2)]
    assert sol.col_mixture == [F(1, 2), F(1, 2)]


def test_matrix_game_rejects_negative():
    with pytest.raises(ValueError):
        solve_matrix_game([[1, -1], [0, 1]])


def test_objective_matches_scipy_oracle():
    import numpy as np
    import scipy.optimize

    rng = np.random.default_rng(6)
    solved = 0
    for _ in range(25):
        m, n = int(rng.integers(1, 5)), int(rng.integers(2, 7))
        A = rng.integers(-3, 4, size=(m, n))
        x_feasible = rng.integers(0, 4, size=n)
        b = A @ x_feasible
        c = rng.integers(-2, 5, size=n)
        res = solve_standard_lp([F(int(v)) for v in c],
                                [[F(int(v)) for v in row] for row in A],
                                [F(int(v)) for v in b])
        sp = scipy.optimize.linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        if res.status == "optimal":
            assert sp.status == 0
            assert abs(float(res.objective) - sp.fun) < 1e-7
            solved += 1
        elif res.status == "unbounded":
            assert sp.status == 3
    assert solved >= 5


def test_matrix_game_saddle_conditions():
    import numpy as np

    rng = np.random.default_rng(2)
    for _ in range(30):
        m, n = rng.integers(2, 6, size=2)
        R = [[F(int(v), 8) for v in rng.integers(0, 9, size=n)] for _ in range(m)]
        sol = solve_matrix_game(R)
        v = sol.value
        # row mixture guarantees at least v against every column
        for j in range(n):
            assert sum(sol.row_mixture[i] * R[i][j] for i in range(m)) >= v
        # column mixture concedes at most v against every row
        for i in range(m):
            assert sum(R[i][j] * sol.col_mixture[j] for j in range(n)) <= v
        assert sum(sol.row_mixture) == 1 and sum(sol.col_mixture) == 1
