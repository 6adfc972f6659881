"""Merge validation and canonical output: `repro merge` / merge_shards.

The merge contract: k disjoint, complete shard files of one sweep join into
a file indistinguishable from a single-box run (byte-identical modulo the
wall-clock `seconds` field), and every violation — overlap, missing shard,
hash drift, torn tail, failed cell — fails loudly before anything is written.
"""

import json

import pytest

from repro.engine import BatchRunner
from repro.engine.merge import MergeError, merge_shards
from repro.engine.sink import JsonlSink, SinkError, open_sink

CELLS = BatchRunner.grid("random_regular", (30, 40), (4, 6), seeds=(0, 1))
PARAMS = {"k": 1}


def run_shards(tmp_path, of, backend="array", stem="s", cells=CELLS):
    """Write the `of` shard files of one sweep; return their paths."""
    runner = BatchRunner(backend=backend)
    paths = []
    for index in range(of):
        path = tmp_path / f"{stem}{index}.jsonl"
        with open_sink(path) as sink:
            runner.run("kdelta", cells, params_grid=[PARAMS], sink=sink,
                       shard=(index, of))
        paths.append(path)
    return paths


def run_full(tmp_path, backend="array", name="full.jsonl", cells=CELLS):
    path = tmp_path / name
    with open_sink(path) as sink:
        BatchRunner(backend=backend).run("kdelta", cells, params_grid=[PARAMS],
                                         sink=sink)
    return path


def normalized(path):
    """The file's lines, parsed, with wall-clock fields dropped."""
    out = []
    for line in path.read_text().splitlines():
        obj = json.loads(line)
        if "record" in obj:
            obj["record"].pop("seconds", None)
        out.append(obj)
    return out


class TestHappyPath:
    @pytest.mark.parametrize("of", [2, 3])
    def test_merged_equals_unsharded_run(self, tmp_path, of):
        shards = run_shards(tmp_path, of)
        merged = tmp_path / "merged.jsonl"
        result = merge_shards(shards, merged)
        assert result.cells == len(CELLS)
        assert result.shards == of
        assert normalized(merged) == normalized(run_full(tmp_path))

    def test_single_shard_identity(self, tmp_path):
        (shard,) = run_shards(tmp_path, 1)
        merged = tmp_path / "merged.jsonl"
        merge_shards([shard], merged)
        assert normalized(merged) == normalized(run_full(tmp_path))

    def test_jit_backend_round_trip(self, tmp_path):
        cells = CELLS[:4]
        shards = run_shards(tmp_path, 2, backend="jit", cells=cells)
        merged = tmp_path / "merged.jsonl"
        merge_shards(shards, merged)
        assert normalized(merged) == normalized(
            run_full(tmp_path, backend="jit", cells=cells))

    def test_input_order_irrelevant(self, tmp_path):
        shards = run_shards(tmp_path, 3)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        merge_shards(shards, a)
        merge_shards(list(reversed(shards)), b)
        assert a.read_text() == b.read_text()

    def test_manifest_is_canonical_single_box(self, tmp_path):
        shards = run_shards(tmp_path, 2)
        merged = tmp_path / "merged.jsonl"
        result = merge_shards(shards, merged)
        manifest = json.loads(merged.read_text().splitlines()[0])["manifest"]
        assert manifest["shard"] is None
        assert manifest["workers"] == 1
        assert manifest["cells"] == len(CELLS)
        assert result.manifest.grid_hash == manifest["grid_hash"]

    def test_merged_file_resumes_with_zero_cells(self, tmp_path):
        shards = run_shards(tmp_path, 2)
        merged = tmp_path / "merged.jsonl"
        merge_shards(shards, merged)
        computed = []

        def progress(done, total, cell, record):
            if cell is not None:
                computed.append(cell)

        with JsonlSink(merged, resume=True) as sink:
            BatchRunner(backend="array").run("kdelta", CELLS,
                                            params_grid=[PARAMS], sink=sink,
                                            progress=progress)
        assert computed == []

    def test_events_carried_over_tagged(self, tmp_path):
        shards = run_shards(tmp_path, 2)
        # Append a provenance event line to shard 1 in the sink's format.
        with shards[1].open("a") as handle:
            handle.write(json.dumps(
                {"event": {"kind": "test-event", "detail": "x"}},
                separators=(",", ":")) + "\n")
        merged = tmp_path / "merged.jsonl"
        result = merge_shards(shards, merged)
        assert result.events == 1
        events = [json.loads(l)["event"] for l in merged.read_text().splitlines()
                  if "event" in json.loads(l)]
        manifest = json.loads(shards[1].read_text().splitlines()[0])["manifest"]
        assert events == [{"shard": manifest["shard"]["index"],
                           "kind": "test-event", "detail": "x"}]


class TestValidation:
    def test_overlapping_shards_rejected(self, tmp_path):
        shards = run_shards(tmp_path, 2)
        with pytest.raises(MergeError, match="overlap"):
            merge_shards([shards[0], shards[0]], tmp_path / "out.jsonl")

    def test_missing_shard_rejected(self, tmp_path):
        shards = run_shards(tmp_path, 3)
        with pytest.raises(MergeError, match="missing"):
            merge_shards(shards[:2], tmp_path / "out.jsonl")

    def test_grid_hash_drift_rejected(self, tmp_path):
        other = BatchRunner.grid("random_regular", (50, 60), (4, 6), seeds=(0, 1))
        a = run_shards(tmp_path, 2, stem="a")
        b = run_shards(tmp_path, 2, stem="b", cells=other)
        with pytest.raises(MergeError, match="grid_hash"):
            merge_shards([a[0], b[1]], tmp_path / "out.jsonl")

    def test_torn_final_line_fails_coverage(self, tmp_path):
        shards = run_shards(tmp_path, 2)
        text = shards[0].read_text()
        assert text.endswith("\n")
        shards[0].write_text(text[:-20])  # tear the last record mid-JSON
        with pytest.raises(MergeError, match="no durable record"):
            merge_shards(shards, tmp_path / "out.jsonl")
        # The torn input was not mutated by the merge attempt.
        assert shards[0].read_text() == text[:-20]

    def test_malformed_interior_line_rejected(self, tmp_path):
        shards = run_shards(tmp_path, 2)
        lines = shards[1].read_text().splitlines()
        lines.insert(2, "{not json}")
        shards[1].write_text("\n".join(lines) + "\n")
        with pytest.raises(MergeError, match=r"s1\.jsonl: malformed JSONL at line 3"):
            merge_shards(shards, tmp_path / "out.jsonl")

    def test_csv_output_rejected_before_reading_shards(self, tmp_path):
        with pytest.raises(SinkError, match="repro export"):
            merge_shards([tmp_path / "ghost.jsonl"], tmp_path / "out.csv")

    def test_cell_error_record_refused(self, tmp_path):
        shards = run_shards(tmp_path, 2)
        lines = shards[0].read_text().splitlines()
        failed = json.loads(lines[1])
        failed["record"] = {"error": {"kind": "crash", "type": "Boom",
                                      "message": "injected"}}
        lines[1] = json.dumps(failed, separators=(",", ":"))
        shards[0].write_text("\n".join(lines) + "\n")
        with pytest.raises(MergeError, match="CellError"):
            merge_shards(shards, tmp_path / "out.jsonl")

    def test_unsharded_file_rejected(self, tmp_path):
        full = run_full(tmp_path)
        with pytest.raises(MergeError, match="not a shard file"):
            merge_shards([full], tmp_path / "out.jsonl")

    def test_shard_count_drift_rejected(self, tmp_path):
        two = run_shards(tmp_path, 2, stem="two")
        three = run_shards(tmp_path, 3, stem="three")
        with pytest.raises(MergeError, match="shard-count drift"):
            merge_shards([two[0], three[1]], tmp_path / "out.jsonl")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(MergeError, match="not found"):
            merge_shards([tmp_path / "ghost.jsonl"], tmp_path / "out.jsonl")

    def test_empty_input_list_rejected(self, tmp_path):
        with pytest.raises(MergeError, match="at least one"):
            merge_shards([], tmp_path / "out.jsonl")

    def test_version_drift_rejected(self, tmp_path):
        shards = run_shards(tmp_path, 2)
        lines = shards[1].read_text().splitlines()
        head = json.loads(lines[0])
        head["manifest"]["version"] = "0.0.1"
        lines[0] = json.dumps(head, separators=(",", ":"))
        shards[1].write_text("\n".join(lines) + "\n")
        with pytest.raises(MergeError, match="version"):
            merge_shards(shards, tmp_path / "out.jsonl")

    def test_nothing_written_on_failure(self, tmp_path):
        shards = run_shards(tmp_path, 3)
        out = tmp_path / "out.jsonl"
        with pytest.raises(MergeError):
            merge_shards(shards[:2], out)
        assert not out.exists()
