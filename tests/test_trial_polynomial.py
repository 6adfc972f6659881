"""The jit mother kernel evaluates each trial polynomial from the input color.

``KernelProvider.mother_first`` takes the int64 input colors and evaluates
``p_c(x) mod q`` on the fly: the polynomial's coefficients are the ``f + 1``
low base-``q`` digits of ``c + q``, and ``x = 0`` short-circuits to
``(c + q) % q``.  These tests pin the python tier (the source the numba tier
compiles) and the C tier to the NumPy path of the array backend
(:func:`repro.core.vectorized.sequence_coefficients` plus Horner), pin
the CSR driver on the kernels (``run_mother_algorithm_vectorized(...,
kernels=)``) to the array backend on runs where most vertices miss
``x = 0``, and pin the int64 field-size guard shared by the array and jit
backends.  The C wrappers' ABI checks and the input-coloring layouts are in
``test_sequence_coeffs.py``.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.congest import generators
from repro.congest.graph import Graph
from repro.core.kernels_jit import KernelProvider, python_provider
from repro.core.params import INT64_MAX_Q, MotherParameters
from repro.core.vectorized import run_mother_algorithm_vectorized, sequence_coefficients
from repro.engine import JitEngine, get_engine

#: Field sizes from the smallest prime to one near 2^31.
PRIMES = (2, 3, 163, 2**31 - 1)
#: The largest prime the array and jit backends accept, and the next one up.
LARGEST_Q, TOO_LARGE_Q = 3_037_000_493, 3_037_000_507


@pytest.fixture(scope="module")
def cc():
    from repro.core.kernels_cc import cc_provider

    return cc_provider()


@pytest.fixture(scope="module")
def providers(cc):
    """The python tier (the numba source) and, when it builds, the C tier."""
    return [python_provider()] + ([cc] if cc is not None else [])


def _colors(seed: int, size: int, high: int = 2**62) -> np.ndarray:
    rng = np.random.default_rng(seed)
    colors = rng.integers(0, high, size=size, dtype=np.int64)
    colors[:4] = [0, 1, high - 1, high // 2]
    return colors


def _numpy_values(colors_in: np.ndarray, f1: int, q: int, xs) -> np.ndarray:
    """``p_c(x) mod q`` for every color and ``x``: the array backend's digits
    plus Horner."""
    coeffs = sequence_coefficients(colors_in, SimpleNamespace(q=q, f=f1 - 1))
    xs = np.asarray(xs, dtype=np.int64)
    acc = np.zeros((colors_in.size, xs.size), dtype=np.int64)
    for j in range(f1 - 1, -1, -1):
        acc = (acc * xs[None, :] + coeffs[:, j][:, None]) % q
    return acc


def _kernel_first(provider, graph, colors_in, f1, q, keff, d, active, colors, lo, hi):
    act = np.nonzero(active)[0].astype(np.int64)
    first = np.full(act.size, -7, dtype=np.int64)
    firstval = np.full(act.size, -7, dtype=np.int64)
    provider.mother_first(act, graph.indptr, graph.indices, colors_in, f1, q, keff, d,
                          active, colors, lo, hi, first, firstval)
    return first, firstval


def _reference_first(graph, colors_in, f1, q, keff, d, active, colors, lo, hi):
    """The kernel's contract, spelled out over the NumPy value table."""
    act = np.nonzero(active)[0]
    vals = _numpy_values(colors_in, f1, q, range(lo, hi))
    first = np.full(act.size, -1, dtype=np.int64)
    firstval = np.zeros(act.size, dtype=np.int64)
    for r, v in enumerate(act):
        nbrs = graph.indices[graph.indptr[v]:graph.indptr[v + 1]]
        for i, x in enumerate(range(lo, hi)):
            val = vals[v, i]
            trial = (x % keff) * q + val
            conflicts = sum(
                int(vals[u, i] == val) if active[u] else int(colors[u] == trial)
                for u in nbrs
            )
            if conflicts <= d:
                first[r], firstval[r] = x, val
                break
    return first, firstval


class TestTrialValues:
    """On an edgeless graph every vertex adopts ``lo``, so ``firstval`` is the
    kernel's own ``p_c(lo) mod q``."""

    @staticmethod
    def _probe(provider, colors_in, f1, q, x):
        graph = Graph(colors_in.size, [])
        active = np.ones(colors_in.size, dtype=bool)
        colors = -np.ones(colors_in.size, dtype=np.int64)
        first, firstval = _kernel_first(provider, graph, colors_in, f1, q, q, 0,
                                        active, colors, x, min(x + 2, q))
        assert (first == x).all()
        return firstval

    @pytest.mark.parametrize("f1", range(1, 64))
    def test_every_tier_matches_numpy(self, providers, f1):
        for q in PRIMES:
            colors_in = _colors(f1 * 131 + q % 97, 12)
            rng = np.random.default_rng(f1 + q)
            xs = sorted({0, 1, q - 1, int(rng.integers(1, q))})
            expected = _numpy_values(colors_in, f1, q, xs)
            for i, x in enumerate(xs):
                for provider in providers:
                    got = self._probe(provider, colors_in, f1, q, x)
                    assert np.array_equal(got, expected[:, i]), (provider.kind, q, f1, x)

    @pytest.mark.parametrize("f1", [1, 2, 3, 8])
    def test_largest_int64_field(self, providers, f1):
        # Residues just below q = 3,037,000,493: every product is within a
        # few units of 2^63, checked against exact Python-int arithmetic.
        q = LARGEST_Q
        colors_in = _colors(f1, 10)
        for x in (0, 1, q - 2, q - 1):
            expected = []
            for c in colors_in.tolist():
                rest, value = c + q, 0
                for j in range(f1):
                    value += (rest % q) * x ** j
                    rest //= q
                expected.append(value % q)
            for provider in providers:
                got = self._probe(provider, colors_in, f1, q, x)
                assert got.tolist() == expected, (provider.kind, f1, x)


class TestFirstTrial:
    """The full per-batch contract: active neighbors conflict on equal values,
    colored neighbors on equal trial colors, first ``d``-proper trial wins."""

    @staticmethod
    def _workload(q, f1, seed):
        graph = generators.gnp(18, 0.35, seed=seed)
        rng = np.random.default_rng(seed)
        # Colors that share their constant digit (they all collide at x = 0)
        # and differ in one higher digit, plus a few fully random ones.
        top = max(j for j in range(f1) if 3 * q ** j < 2**61)
        base = int(rng.integers(0, 2**40))
        colors_in = np.array(
            [base + int(rng.integers(0, 3)) * q ** int(rng.integers(0, top + 1))
             for _ in range(graph.n)], dtype=np.int64)
        colors_in[:3] = _colors(seed, 4)[1:]
        active = rng.random(graph.n) < 0.7
        colors = -np.ones(graph.n, dtype=np.int64)
        return graph, colors_in, active, colors, rng

    @pytest.mark.parametrize("q", PRIMES)
    @pytest.mark.parametrize("f1", [1, 2, 5, 21, 63])
    @pytest.mark.parametrize("start", ["zero", "later"])
    def test_every_tier_matches_reference(self, providers, q, f1, start):
        keff = 3
        for seed in range(3):
            graph, colors_in, active, colors, rng = self._workload(q, f1, seed)
            lo = 0 if start == "zero" else int(rng.integers(1, q))
            hi = min(lo + 5, q)
            # Colored vertices hold some vertex's trial color, so that branch hits.
            vals = _numpy_values(colors_in, f1, q, range(lo, hi))
            for u in np.nonzero(~active)[0]:
                i = int(rng.integers(0, hi - lo))
                v = int(rng.integers(0, graph.n))
                colors[u] = ((lo + i) % keff) * q + vals[v, i]
            for d in (0, 1):
                expected = _reference_first(graph, colors_in, f1, q, keff, d,
                                            active, colors, lo, hi)
                for provider in providers:
                    got = _kernel_first(provider, graph, colors_in, f1, q, keff, d,
                                        active, colors, lo, hi)
                    assert np.array_equal(got[0], expected[0]), (provider.kind, seed, d)
                    assert np.array_equal(got[1], expected[1]), (provider.kind, seed, d)


class TestRunMotherParity:
    """The CSR driver on each kernel tier against the array backend at ``k = 1`` (one trial per
    batch) with every input color a multiple of ``q``: all polynomials agree at
    ``x = 0``, so most vertices go on to later batches."""

    @staticmethod
    def _workload(d):
        graph = generators.random_regular(120, 6, seed=8)
        m = graph.n * 200
        params = MotherParameters.derive(m=m, delta=graph.max_degree, d=d, k=1)
        colors = np.arange(graph.n, dtype=np.int64) * params.q
        assert colors[-1] < m
        return graph, colors, m

    @staticmethod
    def _layouts(colors):
        padded = np.zeros(2 * colors.size, dtype=np.int64)
        padded[::2] = colors
        return {
            "int64": colors,
            "int32": colors.astype(np.int32),
            "strided-int64": padded[::2],
            "strided-int32": padded.astype(np.int32)[::2],
            "matrix-column": np.stack([colors, colors], axis=1)[:, 0],
        }

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_parity_when_x0_misses(self, providers, d):
        graph, colors, m = self._workload(d)
        expected = get_engine("array").run_mother(graph, colors, m, d=d, k=1)
        assert (expected.parts > 1).mean() > 0.5, "most vertices should miss x = 0"
        for provider in providers:
            for name, layout in self._layouts(colors).items():
                got = run_mother_algorithm_vectorized(graph, layout, m, d=d, k=1,
                                                      kernels=provider)
                assert np.array_equal(got.colors, expected.colors), (provider.kind, name)
                assert np.array_equal(got.parts, expected.parts), (provider.kind, name)
                assert got.rounds == expected.rounds, (provider.kind, name)


class TestInt64FieldGuard:
    """``q * q`` must fit int64; the array and jit backends refuse larger
    fields with a ``ValueError`` instead of wrapping."""

    @staticmethod
    def _case(q):
        graph = generators.ring(6)
        m = graph.n * q + 1
        params = MotherParameters(m=m, delta=2, d=0, k=1, f=1, q=q)
        colors = np.arange(graph.n, dtype=np.int64) * q
        return graph, colors, m, params

    def test_limit_is_isqrt_of_int64_max(self):
        assert INT64_MAX_Q ** 2 < 2**63 <= (INT64_MAX_Q + 1) ** 2

    def test_oversized_field_raises_on_array_and_jit(self, providers):
        graph, colors, m, params = self._case(TOO_LARGE_Q)
        runs = [lambda: get_engine("array").run_mother(graph, colors, m, params=params),
                lambda: JitEngine().run_mother(graph, colors, m, params=params)]
        runs += [lambda p=p: run_mother_algorithm_vectorized(graph, colors, m,
                                                             params=params, kernels=p)
                 for p in providers]
        for run in runs:
            with pytest.raises(ValueError, match="overflows the int64"):
                run()

    def test_largest_field_is_accepted(self, providers):
        # Distinct constant digits: every vertex settles at x = 0, so even a
        # broken kernel cannot walk the ~3e9 batches of this field.  Values at
        # x > 0 for this q are pinned by TestTrialValues.
        graph, colors, m, params = self._case(LARGEST_Q)
        colors = colors + np.arange(graph.n)
        expected = get_engine("array").run_mother(graph, colors, m, params=params)
        assert expected.colors.tolist() == list(range(graph.n))
        assert expected.rounds == 1
        for provider in providers:
            got = run_mother_algorithm_vectorized(graph, colors, m, params=params,
                                                  kernels=provider)
            assert np.array_equal(got.colors, expected.colors), provider.kind
            assert np.array_equal(got.parts, expected.parts), provider.kind


class TestProviderShape:
    def test_three_kernels_on_every_tier(self, providers):
        kernels = ("mother_first", "remove_class", "kw_round")
        fields = {f.name for f in dataclasses.fields(KernelProvider)}
        assert fields == {"kind", "version", "threads", "detail", *kernels}
        for provider in providers:
            assert all(callable(getattr(provider, name)) for name in kernels)

