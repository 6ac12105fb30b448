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
the smaller side r; each Dijkstra step is one numpy pass over the c
columns, so a solve costs O(r^2 c) arithmetic in at most r^2 steps.

The result is deterministic: rows are augmented in order, and each step
takes the unscanned column of least tentative distance, the lowest index
among equals. Among several optima of equal total, which one is returned
is not part of the contract.
"""

from __future__ import annotations

import numpy as np

FORBIDDEN = float("-inf")


def _solve_min_cost(cost: np.ndarray) -> np.ndarray:
    """Column assigned to each row of a finite min-cost matrix, rows <= cols."""
    n_rows, n_cols = cost.shape
    u = np.zeros(n_rows)
    v = np.zeros(n_cols)
    row_of_col = np.full(n_cols, -1, dtype=np.intp)
    col_of_row = np.full(n_rows, -1, dtype=np.intp)
    for start in range(n_rows):
        shortest = np.full(n_cols, np.inf)
        path = np.full(n_cols, -1, dtype=np.intp)
        scanned = np.zeros(n_cols, dtype=bool)
        reached = []  # rows entered through a scanned column
        i, min_val = start, 0.0
        while True:
            reduced = min_val + cost[i] - u[i] - v
            lower = (reduced < shortest) & ~scanned
            shortest[lower] = reduced[lower]
            path[lower] = i
            j = int(np.argmin(np.where(scanned, np.inf, shortest)))
            min_val = shortest[j]
            scanned[j] = True
            i = row_of_col[j]
            if i < 0:
                break
            reached.append(i)

        # Dual update over the scanned tree, then flip the path to free column j.
        u[start] += min_val
        reached = np.array(reached, dtype=np.intp)
        u[reached] += min_val - shortest[col_of_row[reached]]
        v[scanned] -= min_val - shortest[scanned]
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
    if not np.isfinite(4.0 * (bonus + s_max)):
        raise ValueError(f"scores of magnitude {s_max:g} are too large to rank")
    value = np.where(feasible, bonus + scores, 0.0)

    if n_rows <= n_cols:
        pairs = enumerate(_solve_min_cost(-value))
    else:
        pairs = ((i, j) for j, i in enumerate(_solve_min_cost(np.ascontiguousarray(-value.T))))
    return sorted((int(i), int(j)) for i, j in pairs if feasible[i, j])


def assignment_total(scores: np.ndarray, pairs: list[tuple[int, int]]) -> float:
    return float(sum(scores[i, j] for i, j in pairs))
