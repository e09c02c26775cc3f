"""Rank metrics and Pareto utilities vs brute-force oracles."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ihasearch import metrics as mx
from ihasearch.search.nsga import fast_nondominated_sort

from oracles import (
    brute_constrained_dominates,
    brute_hypervolume_2d,
    brute_k_at_x,
    brute_kendall_tau_b,
    brute_mae_at_top,
    brute_pareto_front,
    brute_spearman_rho,
    reference_constraint_dominance_matrix,
)
from test_search import constrained_arrays


def random_vector_pairs(rng, n_draws=60):
    for _ in range(n_draws):
        n = int(rng.integers(2, 51))
        if rng.random() < 0.5:
            # integer draws to force ties
            yield rng.integers(0, 8, n).astype(float), rng.integers(0, 8, n).astype(float)
        else:
            yield rng.normal(size=n), rng.normal(size=n)


class TestRankStats:
    def test_tau_frozen_example(self):
        assert abs(mx.kendall_tau([1, 2, 3, 4], [1, 3, 2, 4]) - 2 / 3) < 1e-12

    def test_rho_frozen_example(self):
        assert abs(mx.spearman_rho([1, 2, 3], [1, 3, 2]) - 0.5) < 1e-12

    def test_tau_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for p, t in random_vector_pairs(rng):
            assert abs(mx.kendall_tau(p, t) - brute_kendall_tau_b(p, t)) < 1e-12

    def test_rho_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for p, t in random_vector_pairs(rng):
            assert abs(mx.spearman_rho(p, t) - brute_spearman_rho(p, t)) < 1e-12

    def test_perfect_and_reversed_ranking(self):
        v = np.arange(10.0)
        assert abs(mx.kendall_tau(v, v) - 1.0) < 1e-12
        assert abs(mx.kendall_tau(v, -v) + 1.0) < 1e-12
        assert abs(mx.spearman_rho(v, v) - 1.0) < 1e-12

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        t = rng.normal(size=30)
        p = rng.normal(size=30)
        warped = np.exp(2.0 * p)
        assert abs(mx.kendall_tau(p, t) - mx.kendall_tau(warped, t)) < 1e-12
        assert abs(mx.spearman_rho(p, t) - mx.spearman_rho(warped, t)) < 1e-12

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            mx.kendall_tau([1, 2], [1, 2, 3])


class TestTopK:
    def test_identical_ordering(self):
        v = np.arange(100.0)
        assert mx.k_at_x(v, v, 0.05) == 5

    def test_reversed_ordering_needs_everything(self):
        v = np.arange(100.0)
        assert mx.k_at_x(-v, v, 0.01) == 100

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for p, t in random_vector_pairs(rng):
            for x in (0.01, 0.05, 0.5, 1.0):
                assert mx.k_at_x(p, t, x) == brute_k_at_x(p, t, x)

    def test_prediction_ties_break_by_index(self):
        pred = [1.0, 1.0, 1.0, 1.0]
        truth = [5.0, 1.0, 2.0, 3.0]
        # true top-1 is index 1; it sits second in the index-ordered tie block
        assert mx.k_at_x(pred, truth, 0.25) == 2

    def test_mae_at_top_frozen_example(self):
        assert abs(mx.mae_at_top([1.0, 2, 3, 4], [1.2, 2, 3, 4], 0.25) - 0.2) < 1e-15

    def test_mae_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for p, t in random_vector_pairs(rng):
            for x in (0.05, 0.3, 1.0):
                assert mx.mae_at_top(p, t, x) == brute_mae_at_top(p, t, x)

    def test_bad_fraction_raises(self):
        with pytest.raises(ValueError):
            mx.k_at_x([1, 2], [1, 2], 0.0)
        with pytest.raises(ValueError):
            mx.mae_at_top([1, 2], [1, 2], 1.5)


class TestReports:
    def test_report_fields(self):
        rng = np.random.default_rng(5)
        r = mx.rank_report(rng.normal(size=40), rng.normal(size=40))
        assert set(r) == {"tau", "rho", "mae", "mae_at_5pct", "k_at_1pct", "k_at_5pct"}


class TestPareto:
    def test_simple_front(self):
        pts = [(1.0, 2.0), (2.0, 1.0), (2.0, 2.0), (0.5, 3.0)]
        assert mx.pareto_front(np.array(pts)) == [0, 1, 3]

    def test_matches_brute_force_4d(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            pts = [tuple(rng.normal(size=4)) for _ in range(50)]
            assert mx.pareto_front(np.array(pts)) == sorted(brute_pareto_front(pts))

    def test_duplicates_both_kept(self):
        pts = [(1.0, 1.0), (1.0, 1.0), (2.0, 2.0)]
        assert mx.pareto_front(np.array(pts)) == [0, 1]

    def test_feasible_shields_infeasible(self):
        _, dom = constrained_arrays([((5.0, 5.0), True, 0.0), ((0.0, 0.0), False, 1.0)])
        assert fast_nondominated_sort(dom)[0] == [0]

    def test_all_infeasible_min_violation_wins(self):
        _, dom = constrained_arrays([((1.0, 1.0), False, 2.0), ((9.0, 9.0), False, 0.5)])
        assert fast_nondominated_sort(dom)[0] == [1]

    def test_constrained_dominates_rules(self):
        feas = ((2.0, 2.0), True, 0.0)
        infeas = ((0.0, 0.0), False, 3.0)
        worse_infeas = ((0.0, 0.0), False, 4.0)
        other = ((1.0, 3.0), True, 0.0)
        _, dom = constrained_arrays([feas, infeas, worse_infeas, other])
        assert dom[0, 1] and not dom[1, 0]  # feasible beats infeasible
        assert dom[1, 2] and not dom[2, 1]  # lower violation wins
        assert not dom[0, 3] and not dom[3, 0]  # feasible, mutually non-dominated
        assert not dom.diagonal().any()


VALUE_POOL = [-math.inf, -1.0, -0.0, 0.0, 1.0, 2.0, math.inf, math.nan]
VIOLATION_POOL = [0.0, 0.5, 2.0, math.inf, math.nan]


@st.composite
def dominance_inputs(draw):
    """(values, feasible, violation) with n in 0..80 and m in 0..5: values
    from a small pool with ties, signed zeros, infinities and NaN in every
    row, random feasibility (or all feasible) and violations with inf and
    NaN."""
    n, m = draw(st.integers(0, 80)), draw(st.integers(0, 5))
    values = draw(hnp.arrays(float, (n, m), elements=st.sampled_from(VALUE_POOL)))
    if draw(st.booleans()):
        feasible = np.ones(n, dtype=bool)
    else:
        feasible = draw(hnp.arrays(bool, n))
    violation = draw(hnp.arrays(float, n, elements=st.sampled_from(VIOLATION_POOL)))
    return values, feasible, violation


class TestDominanceKernel:
    """The per-objective kernel against the broadcast one it replaced and
    against the literal rule."""

    @given(dominance_inputs())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_and_literal_rule(self, case):
        values, feasible, violation = case
        n = len(values)
        dom = mx.constraint_dominance_matrix(values, feasible, violation)
        ref = reference_constraint_dominance_matrix(values, feasible, violation)
        assert dom.shape == ref.shape == (n, n)
        assert dom.dtype == ref.dtype == np.bool_
        assert np.array_equal(dom, ref)
        points = [(tuple(v), bool(f), float(viol))
                  for v, f, viol in zip(values.tolist(), feasible, violation)]
        brute = [[brute_constrained_dominates(a, b) for b in points] for a in points]
        assert dom.tolist() == brute
        if feasible.all():
            assert mx.pareto_front(values) == brute_pareto_front([p for p, _, _ in points])


class TestHypervolume:
    def test_frozen_examples(self):
        assert abs(mx.hypervolume_2d(np.array([(1.0, 2.0), (2.0, 1.0)]), (3.0, 3.0)) - 3.0) < 1e-12
        assert abs(mx.hypervolume_2d(np.array([(1.0, 1.0)]), (2.0, 2.0)) - 1.0) < 1e-12

    def test_matches_inclusion_exclusion(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(1, 11))
            pts = [tuple(rng.uniform(0, 1, 2)) for _ in range(n)]
            ours = mx.hypervolume_2d(np.array(pts), (1.0, 1.0))
            assert abs(ours - brute_hypervolume_2d(pts, (1.0, 1.0))) < 1e-10

    def test_adding_point_never_decreases(self):
        rng = np.random.default_rng(8)
        pts = [tuple(rng.uniform(0, 1, 2)) for _ in range(6)]
        base = mx.hypervolume_2d(np.array(pts), (1.0, 1.0))
        more = mx.hypervolume_2d(np.array(pts + [tuple(rng.uniform(0, 1, 2))]), (1.0, 1.0))
        assert more >= base - 1e-15

    def test_non_dominating_point_excluded_with_warning(self):
        with pytest.warns(UserWarning, match="excluded 1"):
            hv = mx.hypervolume_2d(np.array([(1.0, 1.0), (5.0, 0.5)]), (3.0, 3.0))
        assert abs(hv - 4.0) < 1e-12

    def test_dominated_and_duplicate_points_are_harmless(self):
        ref = (3.0, 3.0)
        base = mx.hypervolume_2d(np.array([(1.0, 2.0), (2.0, 1.0)]), ref)
        padded = mx.hypervolume_2d(np.array([(1.0, 2.0), (2.0, 1.0), (2.5, 2.5), (1.0, 2.0)]), ref)
        assert abs(base - padded) < 1e-12

    def test_empty_front_is_zero_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mx.hypervolume_2d(np.zeros((0, 2)), (1.0, 1.0)) == 0.0
