"""Tests for Linial's iterated color reduction from unique IDs."""

import numpy as np
import pytest

from repro.congest import generators
from repro.core.linial import iterated_color_reduction, linial_coloring
from repro.verify.coloring import assert_proper_coloring


class TestLinialColoring:
    def test_reaches_delta_squared_regime(self):
        g = generators.random_regular(200, 6, seed=3)
        res = linial_coloring(g, seed=3, id_space=10 ** 9)
        assert_proper_coloring(g, res.colors)
        assert res.color_space_size <= 256 * g.max_degree ** 2

    def test_round_count_is_log_star_like(self):
        # From an id space of 10^9 the reduction stabilises within a handful of
        # iterations (log* behaviour), not dozens.
        g = generators.random_regular(100, 6, seed=1)
        res = linial_coloring(g, seed=1, id_space=10 ** 9)
        assert 1 <= res.rounds <= 6

    def test_identity_ids_default(self):
        g = generators.ring(64)
        res = linial_coloring(g)
        assert_proper_coloring(g, res.colors)
        assert res.color_space_size <= 256 * g.max_degree ** 2

    def test_history_is_decreasing(self):
        g = generators.random_regular(150, 8, seed=2)
        res = linial_coloring(g, seed=2, id_space=10 ** 12)
        history = res.metadata["color_space_history"]
        assert all(a > b for a, b in zip(history, history[1:]))

    def test_duplicate_ids_rejected(self):
        g = generators.ring(5)
        with pytest.raises(ValueError):
            linial_coloring(g, ids=np.array([1, 1, 2, 3, 4]))

    @pytest.mark.parametrize("where", ["adjacent", "far-apart", "permuted"])
    @pytest.mark.parametrize("backend", ["reference", "array", "jit"])
    def test_duplicates_rejected_wherever_they_sit(self, where, backend):
        n = 400
        g = generators.random_regular(n, 4, seed=5)
        rng = np.random.default_rng(5)
        ids = rng.choice(10**12, size=n, replace=False).astype(np.int64)
        if where == "adjacent":
            ids[1] = ids[0]
        elif where == "far-apart":
            ids[n - 1] = ids[0]
        else:
            ids[17] = ids[301]
            ids = ids[rng.permutation(n)]
        with pytest.raises(ValueError, match="ids must be unique"):
            linial_coloring(g, ids=ids, backend=backend)

    def test_duplicate_extremes_rejected(self):
        g = generators.ring(4)
        with pytest.raises(ValueError, match="ids must be unique"):
            linial_coloring(g, ids=np.array([2**62, 0, 5, 2**62]))
        with pytest.raises(ValueError, match="ids must be unique"):
            linial_coloring(g, ids=np.array([0, 0, 0, 0]))

    @pytest.mark.parametrize("n", [0, 1])
    def test_trivial_id_arrays_accepted(self, n):
        g = generators.empty_graph(n)
        for ids in (None, np.arange(n, dtype=np.int64) + 7):
            res = linial_coloring(g, ids=ids)
            assert res.colors.shape == (n,)

    def test_unique_unsorted_ids_accepted(self):
        g = generators.random_regular(200, 4, seed=6)
        ids = np.random.default_rng(6).permutation(200).astype(np.int64) * 1000 + 3
        res = linial_coloring(g, ids=ids, backend="array")
        assert_proper_coloring(g, res.colors)

    @pytest.mark.parametrize("reduces", [False, True], ids=["no-step", "with-step"])
    @pytest.mark.parametrize("bad,match", [
        ("too large", "must lie in"), ("negative", "must lie in"), ("duplicate", "unique"),
    ])
    def test_bad_ids_rejected_at_entry(self, monkeypatch, bad, match, reduces):
        # The range check on the sorted IDs runs whether or not a reduction
        # step follows: an ID space at or below the target used to return
        # out-of-space or negative IDs as the coloring unchecked.
        import repro.core.linial as linial

        g = generators.path(2)
        space = 10**6 if reduces else 2  # 256 * Delta^2 = 256 on a path
        ids = {"too large": [0, space + 3], "negative": [-3, 1], "duplicate": [1, 1]}[bad]

        def reached(*args, **kwargs):
            raise AssertionError("bad IDs reached the reduction")

        monkeypatch.setattr(linial, "iterated_color_reduction", reached)
        with pytest.raises(ValueError, match=match):
            linial_coloring(g, ids=np.array(ids), id_space=space)

    def test_ids_in_range_reach_the_reduction(self):
        g = generators.path(2)
        res = linial_coloring(g, ids=np.array([1, 0]), id_space=2)
        assert res.colors.tolist() == [1, 0] and res.color_space_size == 2
        res = linial_coloring(g, ids=np.array([10**6 - 1, 0]), id_space=10**6)
        assert res.rounds >= 1
        assert_proper_coloring(g, res.colors)

    def test_custom_target(self):
        g = generators.random_regular(100, 4, seed=4)
        res = linial_coloring(g, seed=4, target_colors=10_000)
        assert res.color_space_size <= 10_000


class TestIteratedReduction:
    def test_already_small_input_is_unchanged(self):
        g = generators.ring(10)
        colors = np.arange(10) % 3
        res = iterated_color_reduction(g, colors, m=3)
        assert res.rounds == 0
        assert np.array_equal(res.colors, colors)

    def test_single_step_from_moderate_space(self):
        g = generators.random_regular(60, 4, seed=6)
        colors = np.random.default_rng(6).permutation(60).astype(np.int64)
        res = iterated_color_reduction(g, colors, m=60, target_colors=50)
        assert_proper_coloring(g, res.colors)
        assert res.color_space_size < 60 or res.rounds == 0

    def test_vectorized_path(self):
        g = generators.random_regular(100, 6, seed=9)
        a = linial_coloring(g, seed=9, id_space=10 ** 6)
        b = linial_coloring(g, seed=9, id_space=10 ** 6, backend="array")
        assert np.array_equal(a.colors, b.colors)
        assert a.rounds == b.rounds
