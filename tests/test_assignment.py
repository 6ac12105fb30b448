import importlib
import math
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from limbflow import assignment, fileio, tracker
from limbflow.assignment import FORBIDDEN, _solve_min_cost, assignment_total, hungarian

from helpers import brute_force_assignment, numpy_solve_min_cost, padded_hungarian


def solver_inputs(run) -> list[list[list[float]]]:
    """Every cost matrix that ``hungarian`` hands its solver while ``run()`` runs."""
    fed = []
    solve = assignment._solve_min_cost

    def spy(cost):
        fed.append(cost)
        return solve(cost)

    with mock.patch.object(assignment, "_solve_min_cost", spy):
        run()
    return fed


def assert_solver_matches_numpy_oracle(cost):
    """The list solver picks the former numpy solver's column for every row."""
    assert _solve_min_cost(cost) == numpy_solve_min_cost(np.array(cost)).tolist()


def test_identity_dominant():
    assert hungarian(np.array([[1.0, 0.0], [0.0, 1.0]])) == [(0, 0), (1, 1)]


def test_anti_diagonal():
    assert hungarian(np.array([[0.0, 1.0], [1.0, 0.0]])) == [(0, 1), (1, 0)]


def test_matches_brute_force_on_random_squares():
    rng = np.random.default_rng(42)
    for _ in range(30):
        scores = rng.uniform(-1, 1, size=(6, 6))
        pairs = hungarian(scores)
        brute_pairs, brute_total = brute_force_assignment(scores)
        assert len(pairs) == 6
        assert assignment_total(scores, pairs) == pytest.approx(brute_total, abs=1e-9)
        assert pairs == brute_pairs  # unique optimum almost surely


def test_matches_brute_force_rectangular_with_forbidden():
    rng = np.random.default_rng(7)
    for _ in range(30):
        rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        scores = rng.uniform(-1, 1, size=(rows, cols))
        scores[rng.random(scores.shape) < 0.3] = FORBIDDEN
        pairs = hungarian(scores)
        brute_pairs, brute_total = brute_force_assignment(scores)
        assert len(pairs) == len(brute_pairs)  # max cardinality
        assert assignment_total(scores, pairs) == pytest.approx(brute_total, abs=1e-9)


def test_cardinality_beats_score():
    # taking the big diagonal entry alone would forfeit a second match
    scores = np.array([[10.0, 1.0], [FORBIDDEN, 1.5]])
    assert hungarian(scores) == [(0, 0), (1, 1)]
    scores2 = np.array([[10.0, 1.0], [10.5, FORBIDDEN]])
    assert hungarian(scores2) == [(0, 1), (1, 0)]


def test_constant_shift_invariance():
    rng = np.random.default_rng(11)
    for _ in range(20):
        scores = rng.uniform(-5, 5, size=(5, 5))
        base = hungarian(scores)
        assert hungarian(scores + 17.5) == base
        assert hungarian(scores - 3.25) == base


def test_empty_and_all_forbidden():
    assert hungarian(np.zeros((0, 4))) == []
    assert hungarian(np.zeros((3, 0))) == []
    assert hungarian(np.full((3, 3), FORBIDDEN)) == []
    assert hungarian(np.full((2, 2), np.nan)) == []


def test_forbidden_entries_never_assigned():
    scores = np.array([[FORBIDDEN, 2.0], [3.0, FORBIDDEN]])
    assert hungarian(scores) == [(0, 1), (1, 0)]


def test_negative_scores_still_max_cardinality():
    scores = np.array([[-5.0, -1.0], [-2.0, -4.0]])
    pairs = hungarian(scores)
    assert len(pairs) == 2
    assert assignment_total(scores, pairs) == pytest.approx(-3.0)  # -1 + -2


def test_deterministic_on_uniform_ties():
    scores = np.ones((3, 3))
    first = hungarian(scores)
    assert all(hungarian(np.ones((3, 3))) == first for _ in range(5))
    assert len(first) == 3


def test_single_cell():
    assert hungarian(np.array([[0.7]])) == [(0, 0)]
    assert hungarian(np.array([[-0.7]])) == [(0, 0)]


def test_rejects_bad_shapes():
    with pytest.raises(ValueError):
        hungarian(np.zeros(3))


def test_scores_too_large_to_rank_raise():
    # The cardinality bonus overflowed to inf, and the diagonal (total 0)
    # came back with only a RuntimeWarning; the off-diagonal pair totals 4e307.
    with pytest.raises(ValueError, match="too large to rank"):
        hungarian(np.array([[4e307, 2e307], [2e307, -4e307]]))


def test_the_largest_accepted_scores_solve_without_overflow():
    # Just under the limit, for every smaller side k: the bonus is
    # (2 s + 1)(k + 1) and the solver needs four times bonus + s to be finite.
    rng = np.random.default_rng(5)
    top = np.finfo(np.float64).max
    for _ in range(200):
        rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        s = 0.99 * top / (4 * (2 * min(rows, cols) + 3))
        scores = rng.uniform(-s, s, size=(rows, cols))
        scores.flat[int(rng.integers(scores.size))] = s * rng.choice([-1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pairs = hungarian(scores)
            # Python floats overflow to inf without a warning, so the
            # numpy oracle, run under the filter, watches the list solver.
            for cost in solver_inputs(lambda: hungarian(scores)):
                assert_solver_matches_numpy_oracle(cost)
        r, c = linear_sum_assignment(scores, maximize=True)
        assert len(pairs) == len(r)
        assert assignment_total(scores, pairs) / s == pytest.approx(scores[r, c].sum() / s, abs=1e-9)
        with pytest.raises(ValueError, match="too large to rank"):
            hungarian(scores * 1.02)


@st.composite
def score_matrices(draw, max_side=40):
    """Rectangular scores with FORBIDDEN, NaN and +-inf cells mixed in."""
    shape = (draw(st.integers(1, max_side)), draw(st.integers(1, max_side)))
    values = draw(arrays(np.float64, shape, elements=st.floats(-10, 10)))
    kinds = draw(arrays(np.int64, shape, elements=st.integers(0, 11)))
    specials = np.array([FORBIDDEN, np.nan, np.inf, -np.inf])
    return np.where(kinds < 4, specials[kinds % 4], values)


def _scipy_pairs(scores):
    """linear_sum_assignment on hungarian's bonus-transformed block."""
    feasible = np.isfinite(scores)
    if not feasible.any():
        return []
    bonus = (2.0 * np.abs(scores[feasible]).max() + 1.0) * (min(scores.shape) + 1)
    rows, cols = linear_sum_assignment(np.where(feasible, bonus + scores, 0.0), maximize=True)
    return [(i, j) for i, j in zip(rows, cols) if feasible[i, j]]


@settings(max_examples=60, deadline=None)
@given(score_matrices())
def test_cardinality_and_total_match_padded_solver_and_scipy(scores):
    pairs = hungarian(scores)
    assert all(np.isfinite(scores[i, j]) for i, j in pairs)
    assert len({i for i, _ in pairs}) == len({j for _, j in pairs}) == len(pairs)
    total = assignment_total(scores, pairs)
    for oracle in (padded_hungarian(scores), _scipy_pairs(scores)):
        assert len(pairs) == len(oracle)
        assert total == pytest.approx(assignment_total(scores, oracle), abs=1e-9)


def test_pairs_match_padded_solver_on_continuous_scores():
    rng = np.random.default_rng(2016)
    for _ in range(40):
        rows, cols = (int(n) for n in rng.integers(1, 30, size=2))
        scores = rng.uniform(-3, 3, size=(rows, cols))
        scores[rng.random(scores.shape) < 0.25] = FORBIDDEN
        assert hungarian(scores) == padded_hungarian(scores)  # unique optimum almost surely


def test_repeated_calls_agree_on_tie_heavy_inputs():
    rng = np.random.default_rng(1987)
    for _ in range(30):
        rows, cols = (int(n) for n in rng.integers(1, 20, size=2))
        scores = np.round(rng.uniform(-1, 1, size=(rows, cols)), 1)
        scores[rng.random(scores.shape) < 0.2] = FORBIDDEN
        first = hungarian(scores)
        assert all(hungarian(scores.copy()) == first for _ in range(3))
    for shape in [(7, 7), (4, 9), (9, 4)]:
        first = hungarian(np.ones(shape))
        assert len(first) == min(shape)
        assert all(hungarian(np.ones(shape)) == first for _ in range(3))


def test_random_100x100_solve_is_fast():
    # The rectangular solver takes ~7 ms here; the padded pure-Python one
    # took over a second, so the bound catches a regression to it.
    scores = np.random.default_rng(100).uniform(-1, 1, size=(100, 100))
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        pairs = hungarian(scores)
        best = min(best, time.perf_counter() - t0)
    assert len(pairs) == 100
    assert best < 0.25


@st.composite
def min_cost_matrices(draw, max_side=40):
    """Finite costs with rows <= cols: continuous, or small integers with an
    all-equal block, so that ties decide the column."""
    rows = draw(st.integers(1, max_side))
    cols = draw(st.integers(rows, max_side))
    if draw(st.booleans()):
        return draw(arrays(np.float64, (rows, cols), elements=st.floats(-10, 10)))
    cost = draw(arrays(np.int64, (rows, cols), elements=st.integers(-2, 2))).astype(np.float64)
    r0, r1 = sorted(draw(st.integers(0, rows)) for _ in range(2))
    c0, c1 = sorted(draw(st.integers(0, cols)) for _ in range(2))
    cost[r0:r1, c0:c1] = draw(st.integers(-2, 2))
    return cost


@settings(max_examples=200, deadline=None)
@given(min_cost_matrices())
def test_list_solver_matches_the_numpy_solver(cost):
    assert_solver_matches_numpy_oracle(cost.tolist())


@st.composite
def tie_heavy_score_matrices(draw, max_side=40):
    """Small-integer scores with forbidden cells mixed in."""
    shape = (draw(st.integers(1, max_side)), draw(st.integers(1, max_side)))
    values = draw(arrays(np.int64, shape, elements=st.integers(-2, 2))).astype(np.float64)
    return np.where(draw(arrays(np.bool_, shape)), FORBIDDEN, values)


@settings(max_examples=200, deadline=None)
@given(score_matrices() | tie_heavy_score_matrices())
def test_list_solver_matches_the_numpy_solver_on_bonus_transformed_scores(scores):
    # Forbidden cells reach the solver as -0.0.
    for cost in solver_inputs(lambda: hungarian(scores)):
        assert_solver_matches_numpy_oracle(cost)


def test_list_solver_matches_the_numpy_solver_on_benchmark_scenes(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    costs = []
    for name in ("crowd-hd", "crowd-assoc", "long-seq"):
        for seed in range(3):
            inputs = workloads.build_inputs(workloads.WORKLOADS[name], seed)
            for scene in inputs.scenes:
                seq = fileio.parse_annotations(scene.candidates_text)
                costs += solver_inputs(lambda: tracker.track_sequence(seq, inputs.tracker_config))
    assert len(costs) >= 200  # 30 from crowd-hd, 6 from crowd-assoc, 174 from long-seq
    for cost in costs:
        assert_solver_matches_numpy_oracle(cost)
