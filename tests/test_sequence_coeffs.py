"""Color-sequence coefficients and how the input colors reach the jit kernels.

Each vertex's color-sequence polynomial has as coefficients the ``f + 1`` low
base-``q`` digits of its input color ``+ q``.  The array backend materialises
them with :func:`repro.core.vectorized.sequence_coefficients`; the jit mother
kernel evaluates the same polynomial straight from the int64 input color.
These tests pin the NumPy digits to exact integer arithmetic, the kernels'
evaluation to those digits, every input-coloring layout through the jit
driver, and the C wrappers' int64 / C-contiguous ABI check.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import make_input_coloring
from repro.congest import generators
from repro.congest.graph import Graph
from repro.core.kernels_jit import python_provider
from repro.core.vectorized import run_mother_algorithm_vectorized, sequence_coefficients
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


def _colors(seed: int, size: int, high: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    colors = rng.integers(0, high, size=size, dtype=np.int64)
    colors[:3] = [0, high - 1, high // 2]
    return colors


def _kernel_values(provider, colors_in: np.ndarray, f1: int, q: int, x: int) -> np.ndarray:
    """``p_c(x) mod q`` as the kernel computes it: on an edgeless graph every
    vertex adopts the first trial ``x``, so ``firstval`` is its own value."""
    n = colors_in.size
    act = np.arange(n, dtype=np.int64)
    first = np.empty(n, dtype=np.int64)
    firstval = np.empty(n, dtype=np.int64)
    graph = Graph(n, [])
    provider.mother_first(act, graph.indptr, graph.indices, colors_in, f1, q, q, 0,
                          np.ones(n, dtype=bool), -np.ones(n, dtype=np.int64),
                          x, x + 1, first, firstval)
    assert (first == x).all()
    return firstval


class TestDigitParity:
    @settings(max_examples=40, deadline=None)
    @given(
        q=st.sampled_from(PRIMES),
        f=st.integers(min_value=0, max_value=20),
        x_frac=st.floats(min_value=0, max_value=1, exclude_max=True),
        colors=st.lists(st.integers(min_value=0, max_value=2**62), min_size=1, max_size=32),
    )
    def test_property_parity(self, providers, q, f, x_frac, colors):
        # NumPy digits equal exact Python-int digits of c + q, and every
        # kernel tier's on-the-fly value equals Horner over those digits.
        x = int(x_frac * q)
        colors = np.array(colors, dtype=np.int64)
        digits = sequence_coefficients(colors, SimpleNamespace(q=q, f=f))
        expected_digits, expected_values = [], []
        for c in colors.tolist():
            rest, row = c + q, []
            for _ in range(f + 1):
                row.append(rest % q)
                rest //= q
            expected_digits.append(row)
            expected_values.append(sum(a * x**j for j, a in enumerate(row)) % q)
        assert digits.tolist() == expected_digits
        for provider in providers:
            got = _kernel_values(provider, colors, f + 1, q, x)
            assert got.tolist() == expected_values, (provider.kind, q, f, x)

    def test_digits_reconstruct_the_offset_color(self, providers):
        # f + 1 digits are enough for colors < q^(f+1) - q: Horner at x = q
        # recovers c + q, and the kernels' value at x = 1 is the digit sum.
        q, f = 163, 3
        colors = _colors(5, 200, q ** (f + 1) - q)
        digits = sequence_coefficients(colors, SimpleNamespace(q=q, f=f))
        value = np.zeros_like(colors)
        for j in range(f, -1, -1):
            value = value * q + digits[:, j]
        assert np.array_equal(value, colors + q)
        for provider in providers:
            got = _kernel_values(provider, colors, f + 1, q, 1)
            assert np.array_equal(got, digits.sum(axis=1) % q), provider.kind

    def test_empty_input(self, providers):
        empty = np.empty(0, dtype=np.int64)
        assert sequence_coefficients(empty, SimpleNamespace(q=7, f=4)).shape == (0, 5)
        for provider in providers:
            assert _kernel_values(provider, empty, 5, 7, 0).shape == (0,)


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
            got = run_mother_algorithm_vectorized(graph, layout, m, d=1, k=2,
                                                  kernels=python_provider())
            assert np.array_equal(got.colors, expected.colors), name


class TestCcBoundary:
    """The C wrappers reject arrays outside the kernel ABI instead of reading
    them through a wrong-typed pointer."""

    @pytest.fixture(autouse=True)
    def _needs_cc(self, cc):
        if cc is None:
            pytest.skip("no working C tier on this machine")

    @staticmethod
    def _call(cc, act=None, colors_in=None, active=None):
        graph = generators.ring(8)
        act = np.arange(8, dtype=np.int64) if act is None else act
        colors_in = np.arange(8, dtype=np.int64) if colors_in is None else colors_in
        active = np.ones(8, dtype=bool) if active is None else active
        first = np.empty(8, dtype=np.int64)
        firstval = np.empty(8, dtype=np.int64)
        cc.mother_first(act, graph.indptr, graph.indices, colors_in, 2, 5, 5, 0,
                        active, -np.ones(8, dtype=np.int64), 0, 5, first, firstval)

    def test_mother_first_accepts_the_abi(self, cc):
        self._call(cc)

    def test_mother_first_rejects_int32_frontier(self, cc):
        with pytest.raises(TypeError, match="kernel ABI"):
            self._call(cc, act=np.arange(8, dtype=np.int32))
        with pytest.raises(TypeError, match="kernel ABI"):
            self._call(cc, active=np.ones(8, dtype=np.int64))

    @pytest.mark.parametrize("make", [
        lambda c: c.astype(np.int32),
        lambda c: np.repeat(c, 2)[::2],
        lambda c: c.astype(np.float64),
    ], ids=["int32", "strided", "float64"])
    def test_mother_first_rejects_bad_input_colors(self, cc, make):
        with pytest.raises(TypeError, match="kernel ABI"):
            self._call(cc, colors_in=make(np.arange(8, dtype=np.int64)))

    def test_reductions_reject_int32_colors(self, cc):
        graph = generators.ring(8)
        verts = np.array([0, 2], dtype=np.int64)
        used = np.zeros(2 * 3, dtype=np.uint8)
        colors = np.array([5, 1, 4, 0, 1, 0, 1, 0], dtype=np.int32)
        with pytest.raises(TypeError, match="kernel ABI"):
            cc.remove_class(verts, graph.indptr, graph.indices, colors, 3, used)
        with pytest.raises(TypeError, match="kernel ABI"):
            cc.kw_round(verts, graph.indptr, graph.indices, colors, 4, 3, used)
