"""Optimal bipartite assignment over score matrices with forbidden entries.

Maximum-total-score one-to-one assignment, maximum cardinality first.
A link is forbidden exactly when its score is not finite (``FORBIDDEN``,
the scorer's -inf, NaN or +inf). Feasible scores get a per-match bonus
large enough that cardinality dominates any redistribution of real
scores; forbidden entries get value 0, so matching a row to one means
leaving it unmatched. The bonus-transformed block is then solved as a
rectangular min-cost assignment of its smaller side: no padding to a
(rows + cols) square; a matrix with more rows than columns is solved
transposed.

The solver is the shortest-augmenting-path method of Jonker & Volgenant
(1987) in its rectangular form (Crouse, "On implementing 2D rectangular
assignment algorithms", IEEE TAES 2016). It augments once per row of
the smaller side r; each Dijkstra step is one Python loop over the
unscanned columns of lists taken from the cost matrix once, so a solve
costs O(r^2 c) arithmetic in at most r^2 steps. A numpy pass per step
would pay about twelve calls of fixed overhead: a solve that way takes
about six times as long at 4 x 4, four times at 20 x 20 and twice at
50 x 50. The loop's per-element cost catches up near r = 100 and loses
beyond it (about 1.5 times the numpy steps' time at 200 x 200, 2 to 3
times at 400 x 400). The tracker stays below that: r is at most one
frame's people, 50 at the intended crowd scale.

The result is deterministic: rows are augmented in order, and each step
takes the unscanned column of least tentative distance, the lowest index
among equals. Among several optima of equal total, which one is returned
is not part of the contract.
"""

from __future__ import annotations

import math

import numpy as np

FORBIDDEN = float("-inf")


def _solve_min_cost(cost: list[list[float]]) -> list[int]:
    """Column assigned to each row of a finite min-cost matrix given as a
    list of rows, rows <= cols."""
    n_rows, n_cols = len(cost), len(cost[0])
    u = [0.0] * n_rows
    v = [0.0] * n_cols
    row_of_col = [-1] * n_cols
    col_of_row = [-1] * n_rows
    for start in range(n_rows):
        shortest = [math.inf] * n_cols
        path = [-1] * n_cols
        unscanned = list(range(n_cols))  # ascending, so ties go to the lowest index
        scanned = []
        reached = []  # rows entered through a scanned column
        i, min_val = start, 0.0
        while True:
            row, u_i = cost[i], u[i]
            best, j = math.inf, -1
            for c in unscanned:
                s = shortest[c]
                reduced = min_val + row[c] - u_i - v[c]
                if reduced < s:
                    shortest[c] = s = reduced
                    path[c] = i
                if s < best:
                    best, j = s, c
            min_val = best
            unscanned.remove(j)
            scanned.append(j)
            i = row_of_col[j]
            if i < 0:
                break
            reached.append(i)

        # Dual update over the scanned tree, then flip the path to free column j.
        u[start] += min_val
        for i in reached:
            u[i] += min_val - shortest[col_of_row[i]]
        for c in scanned:
            v[c] -= min_val - shortest[c]
        while True:
            i = path[j]
            row_of_col[j] = i
            col_of_row[i], j = j, col_of_row[i]
            if i == start:
                break
    return col_of_row


def hungarian(scores: np.ndarray) -> list[tuple[int, int]]:
    """Maximum-score assignment of rows to columns.

    Entries that are not finite are never assigned: this is the one rule
    for a forbidden link, and ``FORBIDDEN`` (-inf) follows it. Among
    all feasible partial assignments the result has maximum cardinality,
    and maximum total score among those. Returns (row, col) pairs sorted
    by row; an empty matrix or an all-forbidden matrix yields []. Scores
    too large to rank without overflow raise ``ValueError``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError("scores must be a 2-D matrix")
    n_rows, n_cols = scores.shape
    if n_rows == 0 or n_cols == 0:
        return []

    feasible = np.isfinite(scores)
    if not feasible.any():
        return []

    s_max = float(np.abs(scores[feasible]).max())
    # Per-match bonus large enough that cardinality dominates any possible
    # redistribution of real scores.
    bonus = (2.0 * s_max + 1.0) * (min(n_rows, n_cols) + 1)
    # The solver's reduced costs add up to four terms as large as a value.
    if not math.isfinite(4.0 * (bonus + s_max)):
        raise ValueError(f"scores of magnitude {s_max:g} are too large to rank")
    # A feasible cell costs -(bonus + score) < 0; a forbidden one costs -0.0.
    cost = -np.where(feasible, bonus + scores, 0.0)
    if n_rows <= n_cols:
        rows = cost.tolist()
        return [(i, j) for i, j in enumerate(_solve_min_cost(rows)) if rows[i][j] < 0.0]
    rows = cost.T.tolist()
    return sorted((i, j) for j, i in enumerate(_solve_min_cost(rows)) if rows[j][i] < 0.0)


def assignment_total(scores: np.ndarray, pairs: list[tuple[int, int]]) -> float:
    return float(sum(scores[i, j] for i, j in pairs))
