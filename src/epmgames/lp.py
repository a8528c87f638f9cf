"""Self-contained sparse simplex over exact rationals.

Solves standard-form programs (minimize c.x subject to A x = b, x >= 0) with
``fractions.Fraction`` coefficients, so optima and certificates are exact and
bit-reproducible.  Floats also work when a positive tolerance is supplied.

The tableau keeps each row as a dict of its non-zeros, so a pivot touches
only the rows with a non-zero in the pivot column, and in each of them only
the pivot row's non-zeros.  Pivoting uses Dantzig's rule and switches
permanently to Bland's rule after a run of degenerate pivots, which
guarantees termination.  Artificial columns are kept through phase 2 (barred
from re-entering); their final values form the basis inverse, from which
exact duals are read off.

The one domain-specific wrapper solves a matrix game: the column player's
program is the primal (its row count is the row player's strategy count),
and the row player's optimal mixture comes out of the duals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

Number = Fraction | float | int


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: list
    objective: Number | None
    duals: list
    pivots: int = 0  # over both phases, artificials driven out included


def _subtract(target: dict, factor, row: dict) -> None:
    """target -= factor * row over the non-zeros of row; exact zeros are dropped."""
    for j, v in row.items():
        if j in target:
            new = target[j] - factor * v
            if new:
                target[j] = new
            else:
                del target[j]
        else:
            target[j] = -factor * v


class _Tableau:
    """Rows as {column: coefficient} dicts of non-zeros, right-hand sides apart.

    Columns 0..n-1 are the program's variables; column n+i is row i's
    artificial.  ``z`` holds the non-zero reduced costs and ``z_rhs`` minus
    the objective.
    """

    def __init__(self, c, A, b, tol):
        self.tol = tol
        self.m = len(A)
        self.n = len(c)
        self.flip = [1] * self.m
        self.rows = []
        self.rhs = []
        for i in range(self.m):
            rhs = b[i]
            if rhs < 0:
                row = {j: -v for j, v in enumerate(A[i]) if v != 0}
                rhs = -rhs
                self.flip[i] = -1
            else:
                row = {j: v for j, v in enumerate(A[i]) if v != 0}
            row[self.n + i] = _one(rhs)
            self.rows.append(row)
            self.rhs.append(rhs)
        self.basis = [self.n + i for i in range(self.m)]
        self.enter_limit = self.n + self.m  # columns at or past it never enter
        self.pivots = 0

    def run(self, cost, *, bland_threshold) -> str:
        """Price out and iterate to optimality for the given cost vector."""
        self.z = {j: v for j, v in enumerate(cost) if v != 0}
        self.z_rhs = 0
        for i, bi in enumerate(self.basis):
            cb = cost[bi]
            if cb != 0:
                _subtract(self.z, cb, self.rows[i])
                self.z_rhs -= cb * self.rhs[i]
        bland = False
        stalled = 0
        while True:
            col = self._entering(bland)
            if col is None:
                return "optimal"
            row = self._leaving(col)
            if row is None:
                return "unbounded"
            before = self.z_rhs
            self._pivot(row, col)
            if self.z_rhs == before:
                stalled += 1
                if stalled >= bland_threshold:
                    bland = True
            else:
                stalled = 0

    def _entering(self, bland):
        """Most negative reduced cost, lowest column on ties; lowest column under Bland."""
        limit = self.enter_limit
        best = None
        best_val = -self.tol
        for j, v in self.z.items():
            if j >= limit:
                continue
            if bland:
                if v < -self.tol and (best is None or j < best):
                    best = j
            elif v < best_val or (best is not None and v == best_val and j < best):
                best, best_val = j, v
        return best

    def _leaving(self, col):
        tol = self.tol
        best = None
        best_ratio = None
        for i, row in enumerate(self.rows):
            a = row.get(col)
            if a is not None and a > tol:
                ratio = self.rhs[i] / a
                if best_ratio is None or ratio < best_ratio or (
                    ratio == best_ratio and self.basis[i] < self.basis[best]
                ):
                    best, best_ratio = i, ratio
        return best

    def _pivot(self, r, c):
        self.pivots += 1
        row = self.rows[r]
        piv = row[c]
        if piv != 1:
            inv = _one(piv) / piv
            self.rows[r] = row = {j: v * inv for j, v in row.items()}
            self.rhs[r] *= inv
        rhs = self.rhs[r]
        for i, other in enumerate(self.rows):
            if i != r and c in other:
                factor = other[c]
                _subtract(other, factor, row)
                self.rhs[i] -= factor * rhs
        factor = self.z.get(c)
        if factor is not None:
            _subtract(self.z, factor, row)
            self.z_rhs -= factor * rhs
        self.basis[r] = c


def _one(template) -> Number:
    return 1.0 if isinstance(template, float) else Fraction(1)


def solve_standard_lp(c: Sequence[Number], A: Sequence[Sequence[Number]],
                      b: Sequence[Number], *, tol: Number = 0) -> LpResult:
    """Minimize c.x s.t. A x = b, x >= 0.  Exact when inputs are rational.

    ``A`` is a dense list of rows; the tableau keeps only its non-zeros.
    """
    tab = _Tableau(c, A, b, tol)
    m, n = tab.m, tab.n
    threshold = 2 * (m + n) + 8

    phase1 = [0] * n + [1] * m
    status = tab.run(phase1, bland_threshold=threshold)
    if status != "optimal":
        raise RuntimeError("phase 1 cannot be unbounded")  # objective >= 0
    if -tab.z_rhs > tol:
        return LpResult("infeasible", [], None, [], tab.pivots)

    # Drive artificials out of the basis; drop redundant rows.
    drop = set()
    for i in range(tab.m):
        if tab.basis[i] >= n:
            pivot_col = min((j for j, v in tab.rows[i].items() if j < n and abs(v) > tol),
                            default=None)
            if pivot_col is None:
                drop.add(i)
            else:
                tab._pivot(i, pivot_col)
    if drop:
        keep = [i for i in range(tab.m) if i not in drop]
        tab.rows = [tab.rows[i] for i in keep]
        tab.rhs = [tab.rhs[i] for i in keep]
        tab.basis = [tab.basis[i] for i in keep]
        tab.m = len(keep)
    tab.enter_limit = n

    cost = list(c) + [0] * m
    status = tab.run(cost, bland_threshold=threshold)
    if status == "unbounded":
        return LpResult("unbounded", [], None, [], tab.pivots)

    x = [0] * n
    for i, bi in enumerate(tab.basis):
        if bi < n:
            x[bi] = tab.rhs[i]
    objective = sum(ci * xi for ci, xi in zip(c, x))

    # Duals: y = c_B B^{-1}; B^{-1} sits in the artificial columns.
    raw = [0 if tol == 0 else 0.0] * m
    for i, row in enumerate(tab.rows):
        cb = cost[tab.basis[i]]
        if cb == 0:
            continue
        for j, v in row.items():
            if j >= n:
                raw[j - n] += cb * v
    duals = [raw[i] * tab.flip[i] for i in range(m)]
    return LpResult("optimal", x, objective, duals, tab.pivots)


@dataclass
class MatrixGameSolution:
    value: Number
    row_mixture: list
    col_mixture: list


def solve_matrix_game(payoff: Sequence[Sequence[Number]]) -> MatrixGameSolution:
    """Exact value and optimal mixtures of a zero-sum matrix game.

    The row player maximizes, the column player minimizes.  Entries must be
    nonnegative (payoffs here are winning probabilities in [0, 1]); this lets
    the game value enter the program as a plain nonnegative variable.

    Solved as: min u s.t. (R tau)_i <= u for all rows i, sum tau = 1,
    tau >= 0.  The row mixture is recovered from the duals.
    """
    m = len(payoff)
    n = len(payoff[0])
    for row in payoff:
        if any(v < 0 for v in row):
            raise ValueError("matrix game entries must be nonnegative")
    # variables: tau (n), u (1), slack s (m)
    width = n + 1 + m
    A = []
    b = []
    for i in range(m):
        row = [Fraction(v) for v in payoff[i]] + [Fraction(-1)] + [Fraction(0)] * m
        row[n + 1 + i] = Fraction(1)
        A.append(row)
        b.append(Fraction(0))
    A.append([Fraction(1)] * n + [Fraction(0)] * (1 + m))
    b.append(Fraction(1))
    c = [Fraction(0)] * n + [Fraction(1)] + [Fraction(0)] * m
    res = solve_standard_lp(c, A, b)
    if res.status != "optimal":
        raise RuntimeError(f"matrix game LP ended {res.status}")
    value = res.objective
    col = res.x[:n]
    row_mix = [-res.duals[i] for i in range(m)]
    total = sum(row_mix)
    if total > 0:
        row_mix = [v / total for v in row_mix]
    else:
        row_mix = [Fraction(1, m)] * m
    return MatrixGameSolution(value, row_mix, col)
