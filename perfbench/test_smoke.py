"""Self-tests of the benchmark harness, on tiny inputs (``--smoke``).

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs once untraced and once traced; the last output line must
be a correct result naming exactly the metrics of ``BENCHMARK.json``, and
each traced run must measure the layers its workload reaches.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import types

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from spans import Tracer, named, patched  # noqa: E402

#: Per-layer metrics each workload's traced run must measure as non-zero.
TRACED = {
    "flagship-jit": [
        "congest.generators.build_s", "congest.ids.assign_s", "core.linial.total_s",
        "core.linial.iterated_s", "core.corollaries.linial_step_s",
        "engine.run_mother.linial_kernel_s", "core.linial.steps", "core.corollaries.kdelta_s",
        "engine.run_mother.kdelta_kernel_s", "core.corollaries.kdelta_rounds",
        "engine.remove_color_class_s", "engine.remove_color_class.rounds",
        "api.records.coloring_record_s", "api.solve.unattributed_s", "trace.ops",
    ],
    "corpus-zoo": [
        "corpus.load_file_graph_s", "corpus.cache_hits", "congest.ids.delta4_input_s",
        "verify.recheck_s", "engine.sink.write_s", "engine.batch.overhead_s", "trace.ops",
        *(f"core.runner_s.{name}" for name in (
            "corollary14", "defective", "defective_one_round", "delta_plus_one",
            "delta_squared", "kdelta", "linial", "linial_reduction", "outdegree",
            "ruling_set", "theorem13")),
    ],
    "serve-jobs": [
        "server.submit_s", "server.queue_wait_s", "server.execute_s", "server.cell_s",
        "server.notify_lag_s", "server.attempts", "trace.ops",
    ],
}


def _run(workload: str, trace: int, cwd: pathlib.Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TRACED))
def test_workload_smoke(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    kind = "per_layer" if trace else "end_to_end"
    units = harness.catalog()[kind]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        assert [name for name in TRACED[workload] if not values[name]] == []
    else:
        assert all(value > 0 for value in values.values()), values


def test_fails_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("corpus-zoo", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_spans_nest_and_patches_restore():
    layer = types.SimpleNamespace()
    layer.inner = lambda x: x + 1
    layer.outer = lambda x: layer.inner(x) * 2
    originals = (layer.inner, layer.outer)

    tracer = Tracer()
    with patched([(layer, "inner", lambda fn: tracer.wrap("inner", fn, keep=lambda r: r)),
                  (layer, "outer", lambda fn: tracer.wrap("outer", fn, capture=True))]):
        assert layer.outer(1) == 4
    assert (layer.inner, layer.outer) == originals
    spans = tracer.take()
    (inner,), (outer,) = named(spans, "inner"), named(spans, "outer")
    assert inner.parent is outer and outer.parent is None
    assert inner.result == 2 and outer.call == ((1,), {})
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert tracer.take() == []


def test_p90_stays_within_the_samples():
    assert harness.p90([1.0, 2.0, 3.0]) <= 3.0
    assert harness.p90([5.0]) == 5.0
    assert harness.per_op([{"t": 1.0, "n": 1}, {"t": 3.0, "n": 2}, {"t": 2.0, "n": 2}],
                          counts=("n",)) == {"t": 2.0, "n": 5 / 3}
