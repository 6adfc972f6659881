"""Tests for ruling sets (Lemma 3.2, Theorem 1.5, SEW13 baseline, MIS)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import make_input_coloring
from repro.congest import generators
from repro.congest.ids import greedy_coloring
from repro.core import ruling_sets
from repro.verify.ruling import assert_ruling_set, domination_radius, is_independent_set


class TestRulingSetFromColoring:
    def test_basic_properties(self):
        g = generators.random_regular(80, 6, seed=1)
        colors = greedy_coloring(g)
        num_colors = int(colors.max()) + 1
        res = ruling_sets.ruling_set_from_coloring(g, colors, num_colors, base=2)
        assert_ruling_set(g, res.vertices, r=res.r)
        assert res.size >= 1

    def test_round_count_is_base_times_phases(self):
        g = generators.random_regular(60, 4, seed=2)
        colors = greedy_coloring(g)
        num_colors = int(colors.max()) + 1
        for base in (2, 3, 5):
            res = ruling_sets.ruling_set_from_coloring(g, colors, num_colors, base=base)
            assert res.rounds == base * res.metadata["phases"]

    @pytest.mark.parametrize("num_colors,base,phases", [
        (125, 5, 3), (216, 6, 3), (15625, 5, 6), (46656, 6, 6),
        (126, 5, 4), (124, 5, 3), (2, 2, 1), (3, 3, 1),
    ])
    def test_phase_count_is_exact_at_powers_of_the_base(self, num_colors, base, phases):
        # t = ceil(log_B C) in integers; floating-point logs put 125 = 5^3 at
        # 4 phases (r = 4, 20 rounds for a (2, 3)-ruling set found in 15).
        g = generators.path(3)
        res = ruling_sets.ruling_set_from_coloring(g, np.array([0, 1, 0]), num_colors, base)
        assert (res.r, res.rounds) == (phases, base * phases)
        assert_ruling_set(g, res.vertices, r=phases)

    @pytest.mark.parametrize("num_colors,r,base", [
        (3125, 5, 5), (7776, 5, 6), (100000, 5, 10), (125, 3, 5), (126, 3, 6),
        (2, 2, 2), (5, 2, 3),
    ])
    def test_base_for_target_r_is_exact_at_powers(self, num_colors, r, base):
        # Smallest B >= 2 with B**r >= C, in integers; the float root gives
        # 3125 ** (1/5) > 5 and so B = 6, one more round per phase.
        assert ruling_sets._base_for_target_r(num_colors, r) == base
        g = generators.path(3)
        res = ruling_sets.ruling_set_from_coloring(g, np.array([0, 1, 0]), num_colors, base)
        assert res.r <= r and res.rounds == base * res.r

    def test_base_for_target_r_is_smallest_over_a_sweep(self):
        for r in range(2, 7):
            for num_colors in range(1, 5000):
                b = ruling_sets._base_for_target_r(num_colors, r)
                assert b ** r >= num_colors
                assert b == 2 or (b - 1) ** r < num_colors

    def test_larger_base_fewer_phases(self):
        g = generators.random_regular(100, 8, seed=3)
        colors, m = make_input_coloring(g, m=g.n, seed=3)
        small = ruling_sets.ruling_set_from_coloring(g, colors, m, base=2)
        large = ruling_sets.ruling_set_from_coloring(g, colors, m, base=16)
        assert large.r < small.r
        assert_ruling_set(g, small.vertices, r=small.r)
        assert_ruling_set(g, large.vertices, r=large.r)

    def test_invalid_base(self):
        g = generators.ring(6)
        with pytest.raises(ValueError):
            ruling_sets.ruling_set_from_coloring(g, np.zeros(6, dtype=int), 1, base=1)

    def test_colors_out_of_range(self):
        g = generators.ring(6)
        with pytest.raises(ValueError):
            ruling_sets.ruling_set_from_coloring(g, np.arange(6), 3, base=2)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=5, max_value=60),
        p=st.floats(min_value=0.05, max_value=0.4),
        seed=st.integers(min_value=0, max_value=1000),
        base=st.integers(min_value=2, max_value=6),
    )
    def test_property_ruling_set(self, n, p, seed, base):
        g = generators.gnp(n, p, seed=seed)
        colors = greedy_coloring(g)
        num_colors = int(colors.max()) + 1 if g.n else 1
        res = ruling_sets.ruling_set_from_coloring(g, colors, num_colors, base=base)
        assert is_independent_set(g, res.vertices)
        if g.n:
            radius = domination_radius(g, res.vertices)
            assert 0 <= radius <= res.r


class TestMisFromColoring:
    def test_maximal_independent_set(self):
        g = generators.random_regular(70, 6, seed=4)
        colors = greedy_coloring(g)
        res = ruling_sets.mis_from_coloring(g, colors, int(colors.max()) + 1)
        assert is_independent_set(g, res.vertices)
        assert domination_radius(g, res.vertices) <= 1
        assert res.r == 1

    def test_complete_graph_single_vertex(self):
        g = generators.complete_graph(7)
        colors = greedy_coloring(g)
        res = ruling_sets.mis_from_coloring(g, colors, 7)
        assert res.size == 1


class TestTheorem15AndBaseline:
    @pytest.mark.parametrize("r", [2, 3])
    def test_theorem15_valid(self, r):
        g = generators.random_regular(80, 8, seed=5)
        colors, m = make_input_coloring(g, seed=5)
        res = ruling_sets.ruling_set_theorem15(g, colors, m, r=r)
        assert_ruling_set(g, res.vertices, r=max(r, res.r))

    def test_theorem15_requires_r_at_least_two(self):
        g = generators.ring(8)
        colors, m = make_input_coloring(g, seed=1)
        with pytest.raises(ValueError):
            ruling_sets.ruling_set_theorem15(g, colors, m, r=1)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_sew13_baseline_valid(self, r):
        g = generators.random_regular(80, 8, seed=6)
        colors, m = make_input_coloring(g, seed=6)
        res = ruling_sets.ruling_set_sew13_baseline(g, colors, m, r=r)
        assert_ruling_set(g, res.vertices, r=max(r, res.r))

    def test_theorem15_beats_baseline_ruling_phase(self):
        # The point of Theorem 1.5: fewer colors entering Lemma 3.2 means a
        # smaller base B and hence fewer ruling-phase rounds for the same r.
        g = generators.random_regular(120, 16, seed=7)
        colors, m = make_input_coloring(g, seed=7)
        ours = ruling_sets.ruling_set_theorem15(g, colors, m, r=2, backend="array")
        base = ruling_sets.ruling_set_sew13_baseline(g, colors, m, r=2, backend="array")
        assert ours.metadata["ruling_rounds"] < base.metadata["ruling_rounds"]

    @pytest.mark.parametrize("baseline", [False, True])
    def test_registered_runner_verifies_the_requested_r(self, monkeypatch, baseline):
        from types import SimpleNamespace

        import repro.verify.ruling as ruling_mod

        checked = []
        real = ruling_mod.assert_ruling_set

        def recording(graph, vertices, r, alpha=2):
            checked.append(r)
            real(graph, vertices, r, alpha)

        monkeypatch.setattr(ruling_mod, "assert_ruling_set", recording)
        g = generators.random_regular(80, 6, seed=2)
        colors, m = make_input_coloring(g, seed=2)
        w = SimpleNamespace(graph=g, input_colors=colors, m=m)
        ruling_sets._run_ruling_set(w, "array", r=3, baseline=baseline)
        assert checked == [3]
