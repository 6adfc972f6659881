"""The jit backend: resolution, parity, threading, and the fallback path.

Three layers of coverage:

* **Resolution** — ``backend="jit"`` resolves through the registry, describes
  itself (tier, threads, versions), and unknown backends fail with the typed
  :class:`UnknownBackendError` everywhere (registry, reductions, Run specs).
* **Parity** — property tests pin the jit engine to the array backend across
  the composed pipelines, whichever kernel tier resolved.  The plain-Python
  provider (the *exact* source the numba tier compiles) is parity-tested
  separately so the numba kernels' logic is verified even where numba is not
  installed; the C tier is exercised whenever a compiler is present.
* **Shared drivers** — the one CSR driver per primitive
  (``run_mother_algorithm_vectorized`` and the two reductions) runs the same
  on ``kernels=None`` (NumPy) and on a provider, matches the reference path
  on degenerate graphs, skips the NumPy-only CSR gathers when given kernels,
  rejects negative input colors on every path, and never resolves the tier
  itself: :class:`JitEngine` is the one caller of ``get_provider()``.
* **Fallback** — with numba unimportable and the C tier disabled the engine
  degrades to the array backend with a single :class:`RuntimeWarning` per
  process and bit-identical results.
"""

import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import edge_case_graphs, make_input_coloring
from repro.congest import generators
from repro.congest.graph import Graph
from repro.congest.ids import InputColoringError
from repro.core import pipelines
from repro.core.kernels_jit import (
    get_provider,
    python_provider,
    requested_thread_cap,
    reset_provider_cache,
)
from repro.core.reduce import (
    kuhn_wattenhofer_reduction,
    remove_color_class_reduction,
)
from repro.core.vectorized import run_mother_algorithm_vectorized
from repro.core import kernels_jit
from repro.engine import (
    ArrayEngine,
    BatchRunner,
    GraphSpec,
    JitEngine,
    UnknownBackendError,
    available_backends,
    describe_backends,
    get_engine,
)
from repro.engine import jit as jit_module
from repro.verify.coloring import assert_proper_coloring


@pytest.fixture
def pristine_provider():
    """Restore the process-wide provider cache and warning flag after a test
    that monkeypatches the resolution environment."""
    yield
    reset_provider_cache()
    jit_module._reset_fallback_warning()


def random_graph(family: str, n: int, arg: float, seed: int):
    if family == "gnp":
        return generators.gnp(n, min(1.0, max(0.02, arg)), seed=seed)
    if family == "tree":
        return generators.random_tree(n, seed=seed)
    degree = max(1, min(n - 1, int(arg * 10)))
    return generators.random_regular(n + ((n * degree) % 2), degree, seed=seed)


def assert_coloring_parity(a, b):
    assert np.array_equal(a.colors, b.colors)
    assert a.rounds == b.rounds
    assert a.color_space_size == b.color_space_size
    if a.parts is not None and b.parts is not None:
        assert np.array_equal(a.parts, b.parts)


# --------------------------------------------------------------------------- #
# Resolution and introspection
# --------------------------------------------------------------------------- #


class TestJitResolution:
    def test_registered(self):
        assert "jit" in available_backends()
        engine = get_engine("jit")
        assert isinstance(engine, JitEngine)
        assert engine.name == "jit"

    def test_unknown_backend_is_typed(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            get_engine("gpu")
        assert excinfo.value.backend == "gpu"
        assert excinfo.value.available == available_backends()
        assert "jit" in str(excinfo.value)

    def test_unknown_backend_is_a_value_error(self):
        # Pre-existing `except ValueError` call sites keep working.
        with pytest.raises(ValueError):
            get_engine("gpu")

    def test_reduction_dispatchers_raise_the_same_type(self, ring12):
        colors = np.arange(12)
        with pytest.raises(UnknownBackendError, match="remove_color_class_reduction"):
            remove_color_class_reduction(ring12, colors, backend="gpu")
        with pytest.raises(UnknownBackendError, match="kuhn_wattenhofer_reduction"):
            kuhn_wattenhofer_reduction(ring12, colors, 12, backend="gpu")

    def test_describe_backends_covers_jit(self):
        infos = {info["backend"]: info for info in describe_backends()}
        assert set(infos) == set(available_backends())
        jit_info = infos["jit"]
        assert jit_info["implementation"] == "JitEngine"
        assert "numpy" in jit_info["versions"]
        assert isinstance(jit_info["available"], bool)
        if jit_info["available"]:
            assert jit_info["kernel"] in ("numba", "cc")
            assert jit_info["threads"] >= 1
        else:
            assert jit_info["fallback"] == "array"

    def test_warmup_is_idempotent(self):
        engine = JitEngine()
        engine.warmup()
        engine.warmup()
        assert engine.describe()["threads"] >= 1

    def test_thread_cap_env(self, monkeypatch, pristine_provider):
        monkeypatch.setenv("REPRO_NUM_THREADS", "1")
        assert requested_thread_cap() == 1
        reset_provider_cache()
        provider = get_provider()
        if provider is not None:
            assert provider.threads == 1

    def test_thread_cap_invalid_is_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "lots")
        assert requested_thread_cap() is None


# --------------------------------------------------------------------------- #
# Parity: jit engine vs array, whichever kernel tier resolved
# --------------------------------------------------------------------------- #


class TestJitEngineParity:
    @settings(max_examples=20, deadline=None)
    @given(
        family=st.sampled_from(["gnp", "regular", "tree"]),
        n=st.integers(min_value=4, max_value=50),
        arg=st.floats(min_value=0.05, max_value=0.6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_delta_plus_one_property_parity(self, family, n, arg, seed):
        graph = random_graph(family, n, arg, seed)
        a = pipelines.delta_plus_one_coloring(graph, seed=seed, backend="array")
        b = pipelines.delta_plus_one_coloring(graph, seed=seed, backend="jit")
        assert_coloring_parity(a, b)
        assert b.metadata["backend"] == "jit"
        assert_proper_coloring(graph, b.colors, max_colors=max(1, graph.max_degree) + 1)

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=60),
        p=st.floats(min_value=0.05, max_value=0.5),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_reductions_property_parity(self, n, p, seed):
        graph = generators.gnp(n, p, seed=seed)
        colors, m = make_input_coloring(graph, seed=seed)
        a = remove_color_class_reduction(graph, colors, backend="array")
        b = remove_color_class_reduction(graph, colors, backend="jit")
        assert np.array_equal(a.colors, b.colors)
        assert a.rounds == b.rounds
        ka = kuhn_wattenhofer_reduction(graph, colors, m, backend="array")
        kb = kuhn_wattenhofer_reduction(graph, colors, m, backend="jit")
        assert np.array_equal(ka.colors, kb.colors)
        assert ka.rounds == kb.rounds

    def test_engine_primitives_on_zoo(self, small_graph_zoo):
        arr = get_engine("array")
        jit = get_engine("jit")
        for graph in small_graph_zoo:
            colors, m = make_input_coloring(graph, seed=5)
            assert_coloring_parity(
                arr.run_mother(graph, colors, m, d=0, k=1),
                jit.run_mother(graph, colors, m, d=0, k=1),
            )
            assert_coloring_parity(
                arr.remove_color_class(graph, colors),
                jit.remove_color_class(graph, colors),
            )
            assert_coloring_parity(
                arr.kuhn_wattenhofer(graph, colors, m),
                jit.kuhn_wattenhofer(graph, colors, m),
            )

    def test_batch_runner_with_reference_parity_check(self):
        result = BatchRunner(backend="jit", parity_check=True).run(
            "delta_plus_one", [GraphSpec("random_regular", 200, 6, seed=1)]
        )
        records = list(result)
        assert len(records) == 1
        assert records[0]["backend"] == "jit"

    def test_solve_api_accepts_jit(self):
        from repro.api.solve import solve
        from repro.api.spec import Problem, Run

        problem = Problem(graph=GraphSpec("random_regular", 120, 6, seed=0))
        report_a = solve(problem, Run(algorithm="delta_plus_one", backend="array"))
        report_j = solve(problem, Run(algorithm="delta_plus_one", backend="jit"))
        strip = lambda rec: {k: v for k, v in rec.items() if k not in ("seconds", "backend")}
        assert strip(report_j.record) == strip(report_a.record)


# --------------------------------------------------------------------------- #
# Parity of the raw kernel tiers (python = the numba source, cc = the C port)
# --------------------------------------------------------------------------- #


class TestKernelTierParity:
    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=40),
        p=st.floats(min_value=0.1, max_value=0.5),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_python_tier_mother_parity(self, n, p, seed):
        # python_provider executes the exact functions the numba tier
        # compiles, so this validates the numba kernels' logic without numba.
        graph = generators.gnp(n, p, seed=seed)
        colors, m = make_input_coloring(graph, seed=seed)
        a = get_engine("array").run_mother(graph, colors, m, d=0, k=1)
        b = run_mother_algorithm_vectorized(graph, colors, m, d=0, k=1,
                                            kernels=python_provider())
        assert_coloring_parity(a, b)
        assert b.metadata["kernel"] == "python"

    def test_python_tier_reduction_parity(self, petersen):
        colors, m = make_input_coloring(petersen, seed=9)
        kernels = python_provider()
        a = remove_color_class_reduction(petersen, colors, backend="array")
        b = remove_color_class_reduction(petersen, colors, backend="jit", kernels=kernels)
        assert np.array_equal(a.colors, b.colors) and a.rounds == b.rounds
        ka = kuhn_wattenhofer_reduction(petersen, colors, m, backend="array")
        kb = kuhn_wattenhofer_reduction(petersen, colors, m, backend="jit", kernels=kernels)
        assert np.array_equal(ka.colors, kb.colors) and ka.rounds == kb.rounds

    def test_cc_tier_when_compiler_present(self):
        from repro.core.kernels_cc import cc_provider, find_compiler

        if find_compiler() is None:
            pytest.skip("no C compiler on this machine")
        provider = cc_provider()
        if provider is None:
            pytest.skip("C tier failed to build on this machine")
        assert provider.kind == "cc"
        graph = generators.random_regular(300, 6, seed=4)
        colors, m = make_input_coloring(graph, seed=4)
        a = get_engine("array").run_mother(graph, colors, m, d=0, k=1)
        b = run_mother_algorithm_vectorized(graph, colors, m, d=0, k=1, kernels=provider)
        assert_coloring_parity(a, b)

    def test_numba_tier_when_numba_present(self):
        pytest.importorskip("numba")
        reset_provider_cache()
        try:
            provider = get_provider()
            assert provider is not None and provider.kind == "numba"
            graph = generators.random_regular(300, 6, seed=4)
            colors, m = make_input_coloring(graph, seed=4)
            a = get_engine("array").run_mother(graph, colors, m, d=0, k=1)
            b = run_mother_algorithm_vectorized(graph, colors, m, d=0, k=1, kernels=provider)
            assert_coloring_parity(a, b)
        finally:
            reset_provider_cache()


# --------------------------------------------------------------------------- #
# The fallback path: no compiled tier at all
# --------------------------------------------------------------------------- #


class TestFallback:
    def _force_fallback(self, monkeypatch):
        # `import numba` raises with None in sys.modules, and the C tier is
        # disabled by env — exactly a machine with neither tier.
        monkeypatch.setitem(sys.modules, "numba", None)
        monkeypatch.setenv("REPRO_JIT_DISABLE", "cc")
        reset_provider_cache()
        jit_module._reset_fallback_warning()

    def test_degrades_to_array_with_single_warning(self, monkeypatch, pristine_provider):
        self._force_fallback(monkeypatch)
        graph = generators.random_regular(200, 6, seed=3)
        engine = JitEngine()
        with pytest.warns(RuntimeWarning, match="falling back to the array backend"):
            result = pipelines.delta_plus_one_coloring(graph, seed=3, backend=engine)
        expected = pipelines.delta_plus_one_coloring(graph, seed=3, backend="array")
        assert_coloring_parity(expected, result)

        # The warning is per-process, not per-engine: a second engine (and a
        # second call) stays silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            again = JitEngine()
            result2 = pipelines.delta_plus_one_coloring(graph, seed=3, backend=again)
            info = again.describe()
            assert info["available"] is False
            assert info["kernel"] is None
        assert_coloring_parity(expected, result2)

    def test_fallback_describe_and_primitives(self, monkeypatch, pristine_provider):
        self._force_fallback(monkeypatch)
        engine = JitEngine()
        with pytest.warns(RuntimeWarning):
            info = engine.describe()
        assert info["available"] is False
        assert info["fallback"] == "array"
        assert info["kernel"] is None
        graph = generators.gnp(40, 0.2, seed=1)
        colors, m = make_input_coloring(graph, seed=1)
        arr = get_engine("array")
        assert_coloring_parity(
            arr.run_mother(graph, colors, m), engine.run_mother(graph, colors, m)
        )
        assert_coloring_parity(
            arr.remove_color_class(graph, colors), engine.remove_color_class(graph, colors)
        )
        assert_coloring_parity(
            arr.kuhn_wattenhofer(graph, colors, m), engine.kuhn_wattenhofer(graph, colors, m)
        )

    def test_disable_env_forces_fallback_without_monkeypatching_imports(
        self, monkeypatch, pristine_provider
    ):
        monkeypatch.setenv("REPRO_JIT_DISABLE", "numba,cc")
        reset_provider_cache()
        assert get_provider() is None

    def test_active_tier_names_the_fallback(self, monkeypatch, pristine_provider):
        # The queryable per-job answer to the once-per-process warning: a
        # long-running server surfaces this in every manifest and /healthz.
        self._force_fallback(monkeypatch)
        engine = JitEngine()
        with pytest.warns(RuntimeWarning):
            assert engine.active_tier() == "jit:fallback-array"

    def test_active_tier_names_the_compiled_tier(self):
        engine = JitEngine()
        info = engine.describe()
        if info["available"]:
            assert engine.active_tier() == f"jit:{info['kernel']}"
        assert get_engine("array").active_tier() == "array"
        assert get_engine("reference").active_tier() == "reference"


# --------------------------------------------------------------------------- #
# The shared CSR drivers: one per primitive, NumPy or kernels per round
# --------------------------------------------------------------------------- #


PATH3 = Graph(3, [(0, 1), (1, 2)])


#: Every way to run a reduction: (backend, kernels).
REDUCTION_PATHS = [
    pytest.param("reference", None, id="reference"),
    pytest.param("array", None, id="array"),
    pytest.param("jit", None, id="jit"),
    pytest.param("jit", python_provider(), id="python"),
]


class TestSharedDrivers:
    @pytest.mark.parametrize("backend,kernels", REDUCTION_PATHS)
    def test_removal_rejects_negative_colors(self, backend, kernels):
        # The array path used to read -2 as column target - 2 ([-2, 2, 0]).
        with pytest.raises(InputColoringError, match="non-negative"):
            remove_color_class_reduction(PATH3, [-2, 5, 0], backend=backend, kernels=kernels)

    @pytest.mark.parametrize("backend,kernels", REDUCTION_PATHS)
    def test_kw_rejects_negative_colors(self, backend, kernels):
        # The jit path used to disagree with reference and array ([0, 2, 1]).
        with pytest.raises(InputColoringError, match="non-negative"):
            kuhn_wattenhofer_reduction(PATH3, [-1, 3, 1], 6, backend=backend, kernels=kernels)

    @pytest.mark.parametrize("backend,kernels", REDUCTION_PATHS)
    def test_reductions_reject_wrong_shape_and_range(self, backend, kernels):
        with pytest.raises(InputColoringError, match="shape"):
            remove_color_class_reduction(PATH3, [0, 1], backend=backend, kernels=kernels)
        with pytest.raises(InputColoringError, match="shape"):
            kuhn_wattenhofer_reduction(PATH3, [[0, 1, 0]], 6, backend=backend, kernels=kernels)
        with pytest.raises(InputColoringError, match="out of range"):
            kuhn_wattenhofer_reduction(PATH3, [0, 6, 0], 6, backend=backend, kernels=kernels)

    @pytest.mark.parametrize("name,graph", edge_case_graphs())
    def test_python_tier_matches_reference_on_edge_cases(self, name, graph):
        kernels = python_provider()
        colors, m = make_input_coloring(graph, seed=2)
        delta = graph.max_degree
        ref = get_engine("reference")
        for d, k in [(0, 1), (0, 3)] + ([(1, 2)] if delta >= 2 else []):
            expected = ref.run_mother(graph, colors, m, d=d, k=k)
            for tier in (None, kernels):
                got = run_mother_algorithm_vectorized(graph, colors, m, d=d, k=k, kernels=tier)
                assert_coloring_parity(expected, got)
        for target in (None, delta + 4):
            for tier in (None, kernels):
                a = remove_color_class_reduction(graph, colors, target, backend="reference")
                b = remove_color_class_reduction(graph, colors, target, backend="array",
                                                 kernels=tier)
                assert_coloring_parity(a, b)
                ka = kuhn_wattenhofer_reduction(graph, colors, m, target, backend="reference")
                kb = kuhn_wattenhofer_reduction(graph, colors, m, target, backend="array",
                                                kernels=tier)
                assert_coloring_parity(ka, kb)
                assert ka.metadata["phases"] == kb.metadata["phases"]

    def test_kernels_skip_the_numpy_csr_gathers(self, monkeypatch, random_regular8):
        calls = []
        original = Graph.incident_csr_entries

        def counting(self, vertices):
            calls.append(len(vertices))
            return original(self, vertices)

        monkeypatch.setattr(Graph, "incident_csr_entries", counting)
        colors, m = make_input_coloring(random_regular8, seed=3)
        kernels = python_provider()
        mother = run_mother_algorithm_vectorized(random_regular8, colors, m, kernels=kernels)
        removal = remove_color_class_reduction(random_regular8, colors, backend="array",
                                               kernels=kernels)
        assert mother.rounds >= 1 and removal.rounds >= 1
        assert calls == []
        # The NumPy step does gather, so the counter is live.
        remove_color_class_reduction(random_regular8, colors, backend="array")
        assert calls

    def test_metadata_names_the_path(self, petersen):
        colors, m = make_input_coloring(petersen, seed=1)
        kernels = python_provider()
        numpy_run = run_mother_algorithm_vectorized(petersen, colors, m)
        kernel_run = run_mother_algorithm_vectorized(petersen, colors, m, kernels=kernels)
        assert numpy_run.metadata["implementation"] == "vectorized"
        assert "kernel" not in numpy_run.metadata
        assert kernel_run.metadata["implementation"] == "jit"
        assert kernel_run.metadata["kernel"] == "python"
        for reduce, args in ((remove_color_class_reduction, ()),
                             (kuhn_wattenhofer_reduction, (m,))):
            assert reduce(petersen, colors, *args, backend="array").metadata["backend"] == "array"
            assert reduce(petersen, colors, *args, backend="jit",
                          kernels=kernels).metadata["backend"] == "jit"

    def test_only_the_engine_resolves_the_tier(self, monkeypatch):
        graph = generators.gnp(40, 0.2, seed=6)
        colors, m = make_input_coloring(graph, seed=6)
        resolved = JitEngine()
        resolved.active_tier()  # resolve before get_provider is poisoned

        def poisoned(refresh=False):
            raise AssertionError("get_provider() called below the engine")

        monkeypatch.setattr(kernels_jit, "get_provider", poisoned)
        expected = get_engine("reference")
        for engine in (ArrayEngine(), resolved):
            assert_coloring_parity(expected.run_mother(graph, colors, m),
                                   engine.run_mother(graph, colors, m))
            assert_coloring_parity(expected.remove_color_class(graph, colors),
                                   engine.remove_color_class(graph, colors))
            assert_coloring_parity(expected.kuhn_wattenhofer(graph, colors, m),
                                   engine.kuhn_wattenhofer(graph, colors, m))
        for tier in (None, python_provider()):
            assert_coloring_parity(
                expected.run_mother(graph, colors, m),
                run_mother_algorithm_vectorized(graph, colors, m, kernels=tier),
            )
            for backend in ("array", "jit"):
                if backend == "jit" and tier is None:
                    continue  # asks the jit engine: covered by the engine rows
                assert_coloring_parity(
                    expected.remove_color_class(graph, colors),
                    remove_color_class_reduction(graph, colors, backend=backend, kernels=tier),
                )
                assert_coloring_parity(
                    expected.kuhn_wattenhofer(graph, colors, m),
                    kuhn_wattenhofer_reduction(graph, colors, m, backend=backend, kernels=tier),
                )
        # A JitEngine passed as the reductions' backend lends its own provider.
        assert_coloring_parity(
            expected.remove_color_class(graph, colors),
            remove_color_class_reduction(graph, colors, backend=resolved),
        )
