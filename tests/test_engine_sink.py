"""Tests for the JSONL result sink, its one reader, manifests and resume."""

import json

import numpy as np
import pytest

from repro.engine import BatchRunner, GraphSpec, JsonlSink, SinkError, open_sink
from repro.engine.sink import RunManifest, cell_id, cell_key, grid_hash, read_run, task_name


def manifest(**overrides) -> RunManifest:
    base = dict(task="kdelta", backend="array", grid_hash="abc123", cells=4,
                parity_check=False, version="1.2.0")
    base.update(overrides)
    return RunManifest(**base)


RECORDS = [
    {"family": "gnp", "n": 30, "Delta": 4, "seed": 0, "rounds": 2, "seconds": 0.25,
     "proper": True},
    {"family": "gnp", "n": 30, "Delta": 4, "seed": 1, "rounds": 1, "seconds": 0.125,
     "proper": False},
]


class TestCellIdentity:
    def test_cell_key_is_param_order_independent(self):
        spec = GraphSpec("gnp", 30, 4, 1)
        assert cell_key("kdelta", spec, {"k": 1, "d": 2}) == cell_key(
            "kdelta", spec, {"d": 2, "k": 1}
        )

    def test_cell_key_distinguishes_cells(self):
        spec = GraphSpec("gnp", 30, 4, 1)
        keys = {
            cell_key("kdelta", spec, {"k": 1}),
            cell_key("kdelta", spec, {"k": 2}),
            cell_key("linial", spec, {"k": 1}),
            cell_key("kdelta", GraphSpec("gnp", 30, 4, 2), {"k": 1}),
        }
        assert len(keys) == 4

    def test_cell_key_accepts_numpy_params(self):
        spec = GraphSpec("gnp", 30, 4, 1)
        assert cell_key("kdelta", spec, {"k": np.int64(3)}) == cell_key(
            "kdelta", spec, {"k": 3}
        )

    def test_task_name_of_callable(self):
        from helpers import scaled_n_task

        assert task_name(scaled_n_task) == "helpers:scaled_n_task"
        assert task_name("kdelta") == "kdelta"

    def test_cell_id_and_grid_hash(self):
        key = cell_key("kdelta", GraphSpec("gnp", 30, 4, 1), {})
        assert len(cell_id(key)) == 16
        assert grid_hash([key, "other"]) != grid_hash(["other", key])  # order matters


class TestJsonlSink:
    def test_round_trip_preserves_types(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlSink(path) as sink:
            sink.start(manifest())
            sink.write("c1", RECORDS[0])
            sink.write("c2", RECORDS[1])
        assert sink.written == 2
        with JsonlSink(path, resume=True) as resumed:
            resumed.start(manifest())
            assert resumed.completed == {"c1": RECORDS[0], "c2": RECORDS[1]}
            assert resumed.completed["c1"]["rounds"] == 2  # int stays int
            assert resumed.completed["c1"]["seconds"] == 0.25  # float stays float
            assert resumed.completed["c1"]["proper"] is True  # bool stays bool

    def test_numpy_scalars_serialised(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlSink(path) as sink:
            sink.start(manifest())
            sink.write("c1", {"rounds": np.int64(3), "seconds": np.float64(0.5)})
        lines = path.read_text().splitlines()
        assert json.loads(lines[1])["record"] == {"rounds": 3, "seconds": 0.5}

    def test_first_line_is_manifest(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlSink(path) as sink:
            sink.start(manifest())
        head = json.loads(path.read_text().splitlines()[0])
        assert RunManifest.from_dict(head["manifest"]) == manifest()

    def test_torn_final_line_dropped_on_resume(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlSink(path) as sink:
            sink.start(manifest())
            sink.write("c1", RECORDS[0])
        with path.open("a") as f:  # a write the dying run never finished
            f.write('{"cell": "c2", "rec')
        with JsonlSink(path, resume=True) as resumed:
            resumed.start(manifest())
            assert set(resumed.completed) == {"c1"}
        # the torn tail is gone from the file itself
        assert len(path.read_text().splitlines()) == 2

    def test_malformed_interior_line_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlSink(path) as sink:
            sink.start(manifest())
            sink.write("c1", RECORDS[0])
        with path.open("a") as f:
            f.write("{not json}\n")
        with pytest.raises(SinkError, match="malformed JSONL"):
            JsonlSink(path, resume=True).start(manifest())

    def test_wrong_shape_line_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlSink(path) as sink:
            sink.start(manifest())
        with path.open("a") as f:
            f.write('{"no-cell-field": 1}\n')
        with pytest.raises(SinkError, match="not a"):
            JsonlSink(path, resume=True).start(manifest())

    def test_missing_manifest_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"cell": "c1", "record": {}}\n')
        with pytest.raises(SinkError, match="manifest"):
            JsonlSink(path, resume=True).start(manifest())

    def test_resume_refuses_different_sweep(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlSink(path) as sink:
            sink.start(manifest())
        for other in (manifest(grid_hash="ffff"), manifest(task="linial"),
                      manifest(backend="reference"), manifest(parity_check=True)):
            with pytest.raises(SinkError, match="different sweep"):
                JsonlSink(path, resume=True).start(other)

    def test_refused_resume_never_mutates_the_file(self, tmp_path):
        # Even with a torn tail, a file that fails the manifest check must be
        # left exactly as found — reject first, truncate only afterwards.
        path = tmp_path / "run.jsonl"
        with JsonlSink(path) as sink:
            sink.start(manifest())
            sink.write("c1", RECORDS[0])
        with path.open("a") as f:
            f.write('{"cell": "c2", "rec')  # torn tail
        before = path.read_text()
        with pytest.raises(SinkError, match="different sweep"):
            JsonlSink(path, resume=True).start(manifest(task="linial"))
        assert path.read_text() == before

    def test_resume_tolerates_version_bump(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlSink(path) as sink:
            sink.start(manifest(version="1.1.0"))
        JsonlSink(path, resume=True).start(manifest(version="1.2.0"))  # no raise

    def test_resume_of_missing_file_starts_fresh(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlSink(path, resume=True) as sink:
            sink.start(manifest())
            assert sink.completed == {}
        assert path.exists()

    def test_torn_manifest_starts_fresh(self, tmp_path):
        # a run killed during its very first write leaves a partial manifest
        path = tmp_path / "run.jsonl"
        path.write_text('{"manifest": {"task": "kd')
        with JsonlSink(path, resume=True) as sink:
            sink.start(manifest())
            assert sink.completed == {}
            sink.write("c1", RECORDS[0])
        run = read_run(path)
        assert run.manifest == manifest() and not run.torn
        assert run.records == [("c1", RECORDS[0])]


MANIFEST_LINE = json.dumps({"manifest": manifest().to_dict()}) + "\n"
C1_LINE = json.dumps({"cell": "c1", "record": RECORDS[0]}) + "\n"
C2_LINE = json.dumps({"cell": "c2", "record": RECORDS[1]}) + "\n"
EVENT_LINE = json.dumps({"event": {"cell": "c2", "event": "retry"}}) + "\n"


class TestReadRun:
    @pytest.mark.parametrize("text, manifest_, records, events, torn", [
        ("", None, [], [], False),
        (MANIFEST_LINE + C1_LINE + '{"cell": "c2", "rec', manifest(),
         [("c1", RECORDS[0])], [], True),
        ('{"manifest": {"task"', None, [], [], True),
        (MANIFEST_LINE + C1_LINE + EVENT_LINE + C2_LINE, manifest(),
         [("c1", RECORDS[0]), ("c2", RECORDS[1])],
         [{"cell": "c2", "event": "retry"}], False),
        (MANIFEST_LINE + C1_LINE + "{not json}\n" + C2_LINE, SinkError, None, None, None),
    ], ids=["empty", "torn-tail", "torn-manifest", "events", "malformed-interior"])
    def test_one_policy(self, tmp_path, text, manifest_, records, events, torn):
        path = tmp_path / "run.jsonl"
        path.write_text(text)
        if manifest_ is SinkError:
            with pytest.raises(SinkError, match="malformed JSONL at line 3"):
                read_run(path)
        else:
            run = read_run(path)
            assert (run.manifest, run.records, run.events, run.torn) == (
                manifest_, records, events, torn)
        assert path.read_text() == text  # reading never mutates the file


class TestSinkListeners:
    def test_listener_fires_after_each_durable_write(self, tmp_path):
        seen = []
        with JsonlSink(tmp_path / "run.jsonl") as sink:
            sink.add_listener(lambda cell, record: seen.append((cell, dict(record))))
            sink.start(manifest())
            sink.write("c0", RECORDS[0])
            sink.write("c1", RECORDS[1])
        assert seen == [("c0", RECORDS[0]), ("c1", RECORDS[1])]


class TestBackendTier:
    def test_runner_manifest_carries_active_tier(self):
        runner = BatchRunner(backend="array")
        cells = BatchRunner.grid("gnp", 30, 4, seeds=(0,))
        assert runner.manifest("kdelta", cells).backend_tier == "array"

    def test_jit_tier_is_kind_or_fallback(self):
        from repro.engine.registry import get_engine

        tier = get_engine("jit").active_tier()
        assert tier in ("jit:numba", "jit:cc", "jit:fallback-array")

    def test_tier_mismatch_does_not_block_resume(self, tmp_path):
        # the tier is provenance, not identity: a restart may resolve a
        # different tier (e.g. numba missing after an env change) and must
        # still resume the same sweep
        path = tmp_path / "run.jsonl"
        with JsonlSink(path) as sink:
            sink.start(manifest(backend_tier="jit:numba"))
            sink.write("c0", RECORDS[0])
        with JsonlSink(path, resume=True) as resumed:
            resumed.start(manifest(backend_tier="jit:fallback-array"))  # no raise
            assert set(resumed.completed) == {"c0"}

    def test_progress_callback_reports_each_cell(self, tmp_path):
        calls = []
        runner = BatchRunner(backend="array")
        cells = BatchRunner.grid("gnp", 30, 4, seeds=(0, 1))
        with JsonlSink(tmp_path / "run.jsonl") as sink:
            runner.run("kdelta", cells, sink=sink,
                       progress=lambda done, total, cell, rec: calls.append((done, total, cell)))
        assert calls[0] == (0, 2, None)  # the resume-baseline call
        assert [c[0] for c in calls[1:]] == [1, 2]
        assert all(c[1] == 2 for c in calls)
        assert all(c[2] is not None for c in calls[1:])

    def test_progress_reports_resumed_cells_up_front(self, tmp_path):
        runner = BatchRunner(backend="array")
        cells = BatchRunner.grid("gnp", 30, 4, seeds=(0, 1))
        path = tmp_path / "run.jsonl"
        with JsonlSink(path) as sink:
            runner.run("kdelta", cells, sink=sink)
        calls = []
        with JsonlSink(path, resume=True) as sink:
            runner.run("kdelta", cells, sink=sink,
                       progress=lambda done, total, cell, rec: calls.append((done, total)))
        assert calls[0] == (2, 2)  # every cell already durable before any work
        assert calls[-1] == (2, 2)


class TestOpenSink:
    def test_suffix_dispatch(self, tmp_path):
        assert isinstance(open_sink(tmp_path / "a.jsonl"), JsonlSink)
        assert isinstance(open_sink(tmp_path / "a.ndjson"), JsonlSink)

    def test_unknown_suffix_rejected(self, tmp_path):
        with pytest.raises(SinkError, match="suffix"):
            open_sink(tmp_path / "a.parquet")
        with pytest.raises(SinkError, match=r"CSV result sinks were removed.*\.jsonl.*repro export"):
            open_sink(tmp_path / "a.csv")


class TestRunnerManifest:
    def test_one_shot_params_grid_iterable(self, tmp_path):
        # A generator params_grid must behave exactly like a list: re-used for
        # every spec, and counted once in the manifest.
        runner = BatchRunner(backend="array")
        cells = BatchRunner.grid("gnp", 30, 4, seeds=(0, 1))
        with JsonlSink(tmp_path / "run.jsonl") as sink:
            result = runner.run("kdelta", cells,
                                params_grid=({"k": k} for k in (1, 2)), sink=sink)
        assert len(result) == 4
        assert sorted((r["seed"], r["k"]) for r in result) == [
            (0, 1), (0, 2), (1, 1), (1, 2)]
        listed = runner.manifest("kdelta", cells, params_grid=[{"k": 1}, {"k": 2}])
        generated = runner.manifest("kdelta", cells,
                                    params_grid=({"k": k} for k in (1, 2)))
        assert generated == listed and generated.cells == 4

    def test_manifest_describes_sweep(self):
        runner = BatchRunner(backend="array", parity_check=True)
        cells = BatchRunner.grid("gnp", 30, 4, seeds=(0, 1))
        m = runner.manifest("kdelta", cells, params_grid=[{"k": 1}, {"k": 2}])
        assert m.task == "kdelta"
        assert m.backend == "array"
        assert m.cells == 4
        assert m.parity_check is True
        # the hash pins the grid: any change to cells or params changes it
        assert m.grid_hash != runner.manifest("kdelta", cells, params_grid=[{"k": 1}]).grid_hash
