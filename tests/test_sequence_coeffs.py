"""The jit digit pass: ``KernelProvider.sequence_coeffs`` on every tier.

Each vertex's color-sequence polynomial is the base-``q`` digits of its input
color ``+ q``.  The jit backend derives them with a kernel (the plain-Python
source the numba tier compiles, and its C translation) instead of NumPy's
whole-array passes; these tests pin every tier to
:func:`repro.core.vectorized.sequence_coefficients` and pin the C wrappers'
int64 / C-contiguous ABI check.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import make_input_coloring
from repro.congest import generators
from repro.core.kernels_jit import KernelProvider, python_provider, run_mother_jit
from repro.core.vectorized import sequence_coefficients
from repro.engine import JitEngine, get_engine

#: Field sizes from the smallest prime to one near 2^31 (q*q must fit int64).
PRIMES = (2, 3, 5, 163, 65537, 2**31 - 1)


@pytest.fixture(scope="module")
def cc():
    from repro.core.kernels_cc import cc_provider

    return cc_provider()


@pytest.fixture(scope="module")
def providers(cc):
    """The python tier (the numba source) and, when it builds, the C tier."""
    return [python_provider()] + ([cc] if cc is not None else [])


def _digits(provider, colors: np.ndarray, q: int, f: int) -> np.ndarray:
    out = np.empty((colors.size, f + 1), dtype=np.int64)
    provider.sequence_coeffs(colors, q, out)
    return out


def _colors(seed: int, size: int, high: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    colors = rng.integers(0, high, size=size, dtype=np.int64)
    colors[:3] = [0, high - 1, high // 2]
    return colors


class TestDigitParity:
    @pytest.mark.parametrize("f", range(21))
    def test_every_tier_matches_numpy(self, providers, f):
        for q in PRIMES:
            colors = _colors(f * 31 + q % 97, 64, 2**62)
            expected = sequence_coefficients(colors, SimpleNamespace(q=q, f=f))
            for provider in providers:
                got = _digits(provider, colors, q, f)
                assert np.array_equal(got, expected), (provider.kind, q, f)

    @settings(max_examples=40, deadline=None)
    @given(
        q=st.sampled_from(PRIMES),
        f=st.integers(min_value=0, max_value=20),
        colors=st.lists(st.integers(min_value=0, max_value=2**62), min_size=1, max_size=32),
    )
    def test_property_parity(self, providers, q, f, colors):
        colors = np.array(colors, dtype=np.int64)
        expected = sequence_coefficients(colors, SimpleNamespace(q=q, f=f))
        for provider in providers:
            assert np.array_equal(_digits(provider, colors, q, f), expected)

    def test_digits_reconstruct_the_offset_color(self, providers):
        # f + 1 digits are enough for colors < q^(f+1) - q: Horner recovers c + q.
        q, f = 163, 3
        colors = _colors(5, 200, q ** (f + 1) - q)
        for provider in providers:
            digits = _digits(provider, colors, q, f)
            value = np.zeros_like(colors)
            for j in range(f, -1, -1):
                value = value * q + digits[:, j]
            assert np.array_equal(value, colors + q)

    def test_empty_input(self, providers):
        for provider in providers:
            assert _digits(provider, np.empty(0, dtype=np.int64), 7, 4).shape == (0, 5)

    def test_field_is_required_on_every_tier(self, providers):
        field = {f.name: f for f in dataclasses.fields(KernelProvider)}["sequence_coeffs"]
        assert field.default is dataclasses.MISSING
        assert field.default_factory is dataclasses.MISSING
        for provider in providers:
            assert callable(provider.sequence_coeffs)


class TestInputLayouts:
    """int32 and strided colorings reach the kernel as C-contiguous int64."""

    @pytest.fixture(scope="class")
    def workload(self):
        graph = generators.random_regular(300, 6, seed=8)
        colors, m = make_input_coloring(graph, seed=8)
        return graph, colors, m

    def _layouts(self, colors):
        padded = np.zeros(2 * colors.size, dtype=np.int64)
        padded[::2] = colors
        padded32 = padded.astype(np.int32)
        return {
            "int32": colors.astype(np.int32),
            "strided-int64": padded[::2],
            "strided-int32": padded32[::2],
            "matrix-column": np.stack([colors, colors], axis=1)[:, 0],
        }

    def test_engine_run_mother_accepts_any_layout(self, workload):
        graph, colors, m = workload
        expected = get_engine("array").run_mother(graph, colors, m, d=0, k=1)
        engine = JitEngine()
        for name, layout in self._layouts(colors).items():
            assert not (layout.dtype == np.int64 and layout.flags.c_contiguous), name
            got = engine.run_mother(graph, layout, m, d=0, k=1)
            assert np.array_equal(got.colors, expected.colors), name
            assert np.array_equal(got.parts, expected.parts), name
            assert got.rounds == expected.rounds, name

    def test_python_tier_accepts_any_layout(self, workload):
        graph, colors, m = workload
        expected = get_engine("array").run_mother(graph, colors, m, d=1, k=2)
        for name, layout in self._layouts(colors).items():
            got = run_mother_jit(graph, layout, m, d=1, k=2, kernels=python_provider())
            assert np.array_equal(got.colors, expected.colors), name


class TestCcBoundary:
    """The C wrappers reject arrays outside the kernel ABI instead of reading
    them through a wrong-typed pointer."""

    @pytest.fixture(autouse=True)
    def _needs_cc(self, cc):
        if cc is None:
            pytest.skip("no working C tier on this machine")

    @pytest.mark.parametrize("make", [
        lambda c: c.astype(np.int32),
        lambda c: np.repeat(c, 2)[::2],
        lambda c: c.astype(np.float64),
    ], ids=["int32", "strided", "float64"])
    def test_sequence_coeffs_rejects_bad_colors(self, cc, make):
        colors = make(np.arange(10, dtype=np.int64))
        out = np.empty((10, 3), dtype=np.int64)
        with pytest.raises(TypeError, match="kernel ABI"):
            cc.sequence_coeffs(colors, 7, out)

    def test_sequence_coeffs_rejects_bad_out(self, cc):
        colors = np.arange(10, dtype=np.int64)
        with pytest.raises(TypeError, match="kernel ABI"):
            cc.sequence_coeffs(colors, 7, np.empty((10, 3), dtype=np.int32))
        with pytest.raises(TypeError, match="kernel ABI"):
            cc.sequence_coeffs(colors, 7, np.empty((3, 10), dtype=np.int64).T)
        with pytest.raises(ValueError, match="does not match"):
            cc.sequence_coeffs(colors, 7, np.empty((9, 3), dtype=np.int64))

    def test_mother_first_rejects_int32_frontier(self, cc):
        graph = generators.ring(8)
        coeffs = np.zeros((8, 2), dtype=np.int64)
        active = np.ones(8, dtype=bool)
        colors = -np.ones(8, dtype=np.int64)
        first = np.empty(8, dtype=np.int64)
        firstval = np.empty(8, dtype=np.int64)
        act = np.arange(8, dtype=np.int32)
        with pytest.raises(TypeError, match="kernel ABI"):
            cc.mother_first(act, graph.indptr, graph.indices, coeffs, 5, 5, 0,
                            active, colors, 0, 5, first, firstval)
        with pytest.raises(TypeError, match="kernel ABI"):
            cc.mother_first(act.astype(np.int64), graph.indptr, graph.indices, coeffs,
                            5, 5, 0, active.astype(np.int64), colors, 0, 5, first, firstval)

    def test_reductions_reject_int32_colors(self, cc):
        graph = generators.ring(8)
        verts = np.array([0, 2], dtype=np.int64)
        used = np.zeros(2 * 3, dtype=np.uint8)
        colors = np.array([5, 1, 4, 0, 1, 0, 1, 0], dtype=np.int32)
        with pytest.raises(TypeError, match="kernel ABI"):
            cc.remove_class(verts, graph.indptr, graph.indices, colors, 3, used)
        with pytest.raises(TypeError, match="kernel ABI"):
            cc.kw_round(verts, graph.indptr, graph.indices, colors, 4, 3, used)
