"""Exact maximum-profit bipartite assignment in rational arithmetic.

The solver is the classic potentials + shortest-augmenting-path method
(O(n^2 m)), run over pairs (profit, preference) added componentwise and
compared lexicographically. Profits are exact Fractions, so ties are real
ties, and the preference component (a distinct negative power of two per
cell, zero for zero-profit cells) makes the optimum unique: among all
maximum-profit matchings the solver returns the one whose sorted list of
positive-profit pairs is lexicographically smallest. Zero-profit pairs are
never reported.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
_BIG = Fraction(10**30)


def solve_max_profit(profit: list[list[Fraction]]) -> list[tuple[int, int]]:
    """Deterministic optimal matching over a dense profit matrix.

    Returns (row, col) pairs with positive profit, sorted by row. The pair
    set maximizes total profit; exact ties are broken toward the
    lexicographically smallest pair list.
    """
    n_rows = len(profit)
    n_cols = len(profit[0]) if n_rows else 0
    if n_rows == 0 or n_cols == 0:
        return []

    def pref(i: int, j: int) -> Fraction:
        if profit[i][j] == ZERO:
            return ZERO
        return Fraction(1, 1 << (i * n_cols + j + 1))

    # The solver wants no more rows than columns, so a tall matrix is
    # solved transposed; pref keeps the original coordinates either way.
    cost = [[(-profit[i][j], -pref(i, j)) for j in range(n_cols)] for i in range(n_rows)]
    transposed = n_rows > n_cols
    if transposed:
        cost = list(zip(*cost))
    n, m = len(cost), len(cost[0])

    inf = (_BIG, ZERO)
    zero2 = (ZERO, ZERO)
    u = [zero2] * (n + 1)
    v = [zero2] * (m + 1)
    match_col = [0] * (m + 1)  # match_col[j] = row occupying column j (1-based)
    way = [0] * (m + 1)

    for i in range(1, n + 1):
        match_col[0] = i
        j0 = 0
        minv = [inf] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = match_col[j0]
            delta = inf
            j1 = 0
            row_cost = cost[i0 - 1]
            ui = u[i0]
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cj = row_cost[j - 1]
                vj = v[j]
                cur = (cj[0] - ui[0] - vj[0], cj[1] - ui[1] - vj[1])
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
                if used[j]:
                    uj = u[match_col[j]]
                    u[match_col[j]] = (uj[0] + delta[0], uj[1] + delta[1])
                    v[j] = (v[j][0] - delta[0], v[j][1] - delta[1])
                else:
                    minv[j] = (minv[j][0] - delta[0], minv[j][1] - delta[1])
            j0 = j1
            if match_col[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match_col[j0] = match_col[j1]
            j0 = j1

    pairs = []
    for j in range(1, m + 1):
        i = match_col[j]
        if i == 0:
            continue
        row, col = (j - 1, i - 1) if transposed else (i - 1, j - 1)
        if profit[row][col] > ZERO:
            pairs.append((row, col))
    pairs.sort()
    return pairs
