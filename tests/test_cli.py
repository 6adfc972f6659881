"""Tests for the command-line interface (generated from the algorithm registry)."""

import csv
import json

import pytest

from repro.api.registry import algorithm_names, get_algorithm
from repro.api.spec import JobSpec, spec_hash
from repro.cli import build_parser, main

BATCH_GRID = ["batch", "--task", "kdelta", "--family", "random_regular", "gnp",
              "-n", "50", "--delta", "4", "--seeds", "2", "--param", "k=1"]


def write_spec(tmp_path, name="run.json", **overrides):
    document = {
        "schema": 1,
        "problems": [
            {"graph": {"family": "random_regular", "n": 50, "delta": 4, "seed": 0}},
            {"graph": {"family": "gnp", "n": 50, "delta": 4, "seed": 1}},
        ],
        "run": {"algorithm": "kdelta", "backend": "array"},
        "params_grid": [{"k": 1}, {"k": 2}],
    }
    document.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return path, document


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["color", "delta_plus_one", "--family", "hypercube"])

    def test_color_requires_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["color"])

    def test_color_subcommands_generated_from_registry(self):
        # every registered algorithm parses as a color subcommand with its
        # schema-generated param flags — zero hand-written CLI branches.
        for name in algorithm_names():
            flags = []
            for param in get_algorithm(name).params:
                if param.required:
                    flags += [f"--{param.name}", "3"] if param.type is not str \
                        else [f"--{param.name}", param.choices[0]]
            args = build_parser().parse_args(["color", name, *flags])
            assert args.algorithm_name == name
            assert args.nodes == 200 and args.delta == 8  # shared graph args

    def test_color_param_defaults_come_from_schema(self):
        args = build_parser().parse_args(["color", "kdelta"])
        assert args.k == 1
        args = build_parser().parse_args(["color", "ruling_set", "--r", "3"])
        assert args.r == 3 and args.baseline is False

    def test_serve_defaults_and_overrides(self):
        args = build_parser().parse_args(["serve"])
        assert (args.host, args.port, args.workers) == ("127.0.0.1", 8765, 2)
        assert args.state_dir == "repro-jobs"
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "4", "--state-dir", "/tmp/j"])
        assert args.port == 0 and args.workers == 4 and args.state_dir == "/tmp/j"

    def test_batch_task_choices_come_from_registry(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["batch", "--task", "nonexistent"])
        args = build_parser().parse_args(["batch", "--task", "one_round_tightness"])
        assert args.task == "one_round_tightness"

    def test_batch_defaults(self):
        args = build_parser().parse_args(["batch"])
        assert args.workers == 1
        assert args.output is None
        assert args.resume is False


class TestListAlgorithms:
    def test_table_covers_registry(self, capsys):
        assert main(["list-algorithms"]) == 0
        out = capsys.readouterr().out
        for name in algorithm_names():
            assert name in out
        assert "guarantee" in out

    def test_json_listing(self, capsys):
        assert main(["list-algorithms", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {entry["name"] for entry in payload} == set(algorithm_names())
        kdelta = next(e for e in payload if e["name"] == "kdelta")
        assert kdelta["params"][0] == {
            "name": "k", "type": "int", "required": False, "default": 1,
            "help": kdelta["params"][0]["help"],
        }


class TestListBackends:
    def test_table_covers_registry(self, capsys):
        from repro.engine import available_backends

        assert main(["list-backends"]) == 0
        out = capsys.readouterr().out
        for name in available_backends():
            assert name in out
        assert "REPRO_NUM_THREADS" in out

    def test_json_listing(self, capsys):
        from repro.engine import available_backends

        assert main(["list-backends", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["backend"] for entry in payload] == available_backends()
        jit = next(e for e in payload if e["backend"] == "jit")
        assert {"available", "versions", "threads"} <= set(jit)

    def test_backend_flag_accepts_jit(self):
        args = build_parser().parse_args(["color", "delta_plus_one", "--backend", "jit"])
        assert args.backend == "jit"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["color", "delta_plus_one", "--backend", "gpu"])


class TestColorCommand:
    def test_delta_plus_one(self, capsys):
        assert main(["color", "delta_plus_one", "-n", "80", "--delta", "6", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "verified" in out and "guarantee:" in out
        assert "delta_plus_one [array]" in out

    def test_kdelta_param_flag(self, capsys):
        assert main(["color", "kdelta", "-n", "80", "--delta", "6", "--k", "4",
                     "--seed", "1"]) == 0
        assert "kdelta [array]" in capsys.readouterr().out

    def test_defective(self, capsys):
        assert main(["color", "defective_one_round", "-n", "60", "--delta", "8",
                     "--d", "2", "--seed", "2"]) == 0
        assert "max defect" in capsys.readouterr().out

    def test_outdegree(self, capsys):
        assert main(["color", "outdegree", "-n", "60", "--delta", "8", "--beta", "2",
                     "--seed", "2"]) == 0
        assert "max outdegree" in capsys.readouterr().out

    def test_ruling_set_baseline(self, capsys):
        assert main(["color", "ruling_set", "-n", "60", "--delta", "8", "--r", "2",
                     "--baseline", "--seed", "3"]) == 0
        assert "set size" in capsys.readouterr().out

    def test_parity_check(self, capsys):
        assert main(["color", "linial_reduction", "-n", "50", "--delta", "4",
                     "--parity-check"]) == 0
        assert "reference-parity checked" in capsys.readouterr().out

    def test_experiment(self, capsys):
        assert main(["experiment", "E9"]) == 0
        assert "Theorem 1.6" in capsys.readouterr().out

    @pytest.mark.parametrize("family", ["ring", "grid", "tree", "gnp", "power_law"])
    def test_color_all_families(self, family, capsys):
        assert main(["color", "delta_plus_one", "--family", family, "-n", "50",
                     "--delta", "4", "--seed", "4"]) == 0
        assert "verified" in capsys.readouterr().out


class TestRunSpecCommand:
    def test_run_spec(self, tmp_path, capsys):
        path, document = write_spec(tmp_path)
        assert main(["run", "--spec", str(path)]) == 0
        out = capsys.readouterr().out
        assert "cells=4" in out
        # the hash pins the *canonical* (normalized) form of the document
        assert f"spec hash: {spec_hash(JobSpec.from_dict(document))}" in out

    def test_run_spec_manifest_embeds_spec_hash(self, tmp_path, capsys):
        path, document = write_spec(tmp_path)
        out_file = tmp_path / "replay.jsonl"
        assert main(["run", "--spec", str(path), "--workers", "2",
                     "--output", str(out_file)]) == 0
        manifest = json.loads(out_file.read_text().splitlines()[0])["manifest"]
        assert manifest["spec_hash"] == spec_hash(JobSpec.from_dict(document))
        assert manifest["task"] == "kdelta" and manifest["cells"] == 4

    def test_run_spec_missing_file(self, tmp_path, capsys):
        assert main(["run", "--spec", str(tmp_path / "nope.json")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_run_spec_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", "--spec", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_run_spec_unknown_algorithm(self, tmp_path, capsys):
        path, _ = write_spec(tmp_path, run={"algorithm": "no_such", "backend": "array"},
                             params_grid=None)
        assert main(["run", "--spec", str(path)]) == 1
        assert "unknown algorithm" in capsys.readouterr().err

    def test_run_spec_single_problem_form(self, tmp_path, capsys):
        path = tmp_path / "single.json"
        path.write_text(json.dumps({
            "problem": {"graph": {"family": "ring", "n": 24, "delta": 2, "seed": 0}},
            "run": {"algorithm": "delta_plus_one"},
        }))
        assert main(["run", "--spec", str(path), "--parity-check"]) == 0
        assert "cells=1" in capsys.readouterr().out


class TestBatchCommand:
    def test_batch_serial(self, capsys):
        assert main(BATCH_GRID) == 0
        out = capsys.readouterr().out
        assert "cells=4" in out and "total wall-clock" in out

    def test_batch_workers(self, capsys):
        assert main(BATCH_GRID + ["--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "workers=2" in out and "across 2 workers" in out

    def test_batch_unknown_param_rejected(self, capsys):
        bad = [a if a != "k=1" else "q=1" for a in BATCH_GRID]
        assert main(bad) == 1
        err = capsys.readouterr().err
        assert "unknown parameter" in err and "'kdelta'" in err and "['k']" in err

    def test_batch_ill_typed_param_rejected(self, capsys):
        bad = [a if a != "k=1" else "k=fast" for a in BATCH_GRID]
        assert main(bad) == 1
        assert "expects int" in capsys.readouterr().err

    def test_batch_out_of_range_param_rejected(self, capsys):
        bad = [a if a != "k=1" else "k=0" for a in BATCH_GRID]
        assert main(bad) == 1
        assert ">= 1" in capsys.readouterr().err

    def test_batch_missing_required_param_rejected(self, capsys):
        assert main(["batch", "--task", "one_round_tightness", "-n", "30",
                     "--delta", "4"]) == 1
        assert "required parameter" in capsys.readouterr().err

    def test_batch_output_jsonl(self, tmp_path, capsys):
        out_file = tmp_path / "run.jsonl"
        assert main(BATCH_GRID + ["--output", str(out_file)]) == 0
        assert "wrote 4 record(s)" in capsys.readouterr().out
        lines = out_file.read_text().splitlines()
        assert len(lines) == 5  # manifest + 4 records
        manifest = json.loads(lines[0])["manifest"]
        assert manifest["task"] == "kdelta" and manifest["cells"] == 4

    def test_batch_resume_after_partial_run(self, tmp_path, capsys):
        out_file = tmp_path / "run.jsonl"
        assert main(BATCH_GRID + ["--output", str(out_file)]) == 0
        full = out_file.read_text().splitlines()
        # Simulate a sweep killed after two cells, mid-write of the third.
        out_file.write_text("\n".join(full[:3]) + "\n" + full[3][:20])
        capsys.readouterr()
        assert main(BATCH_GRID + ["--workers", "2", "--output", str(out_file),
                                  "--resume"]) == 0
        out = capsys.readouterr().out
        assert "wrote 2 record(s)" in out and "2 cell(s) resumed" in out
        resumed = out_file.read_text().splitlines()
        # identical stream modulo the wall-clock field
        def cells_of(lines):
            return [json.loads(line)["cell"] for line in lines[1:]]
        assert cells_of(resumed) == cells_of(full)

    def test_batch_resume_requires_output(self):
        with pytest.raises(SystemExit):
            main(BATCH_GRID + ["--resume"])

    def test_batch_resume_rejects_malformed_jsonl(self, tmp_path, capsys):
        out_file = tmp_path / "run.jsonl"
        assert main(BATCH_GRID + ["--output", str(out_file)]) == 0
        with out_file.open("a") as f:
            f.write("{definitely not json}\n")
        assert main(BATCH_GRID + ["--output", str(out_file), "--resume"]) == 1
        assert "malformed JSONL" in capsys.readouterr().err

    def test_batch_resume_rejects_different_sweep(self, tmp_path, capsys):
        out_file = tmp_path / "run.jsonl"
        assert main(BATCH_GRID + ["--output", str(out_file)]) == 0
        different = [a if a != "kdelta" else "linial" for a in BATCH_GRID]
        different.remove("--param")
        different.remove("k=1")
        assert main(different + ["--output", str(out_file), "--resume"]) == 1
        assert "different sweep" in capsys.readouterr().err

    def test_batch_unknown_output_format(self, capsys):
        assert main(BATCH_GRID + ["--output", "run.parquet"]) == 1
        assert "suffix" in capsys.readouterr().err

    def test_batch_parallel_parity_checked(self, capsys):
        assert main(BATCH_GRID + ["--workers", "2", "--parity-check"]) == 0
        assert "parity-checked" in capsys.readouterr().out

    def test_experiment_workers(self, capsys):
        assert main(["experiment", "E1", "--workers", "2"]) == 0
        assert "Corollary 1.2(1)" in capsys.readouterr().out


class TestResultFiles:
    @pytest.mark.parametrize("argv", [
        BATCH_GRID,
        ["run", "--spec", "SPEC"],
        ["corpus", "--graphs", "road-sample"],
        ["merge", "shard0.jsonl"],
    ], ids=["batch", "run", "corpus", "merge"])
    def test_csv_output_rejected_before_any_work(self, tmp_path, capsys, argv):
        spec, _ = write_spec(tmp_path)
        argv = [str(spec) if arg == "SPEC" else arg for arg in argv]
        out_file = tmp_path / "run.csv"
        assert main(argv + ["--output", str(out_file)]) == 1
        captured = capsys.readouterr()
        assert "CSV result sinks were removed" in captured.err
        assert ".jsonl" in captured.err and "repro export" in captured.err
        assert captured.out == "" and not out_file.exists()

    def test_export_round_trip(self, tmp_path, capsys):
        from test_engine_sink import manifest

        from repro.engine.sink import JsonlSink

        run_file, table = tmp_path / "run.jsonl", tmp_path / "table.csv"
        records = [
            ("c2", {"n": 30, "ok": True, "ratio": 0.5}),
            ("c1", {"n": 40, "ok": False, "label": "42", "extra": None}),
            ("c3", {"n": 50, "error": {"kind": "crash", "attempts": 2}}),
        ]
        with JsonlSink(run_file) as sink:
            sink.start(manifest())
            for cell, record in records:
                sink.write(cell, record)
            sink.note({"cell": "c3", "event": "retry"})
        assert main(["export", str(run_file), "--output", str(table)]) == 0
        assert "exported 3 record(s)" in capsys.readouterr().out
        with table.open(newline="") as handle:
            header, *rows = csv.reader(handle)
        assert header == ["cell", "n", "ok", "ratio", "label", "extra", "error"]
        with JsonlSink(run_file, resume=True) as resumed:
            resumed.start(manifest())
        assert [row[0] for row in rows] == list(resumed.completed)
        assert rows[0] == ["c2", "30", "True", "0.5", "", "", ""]
        assert rows[1] == ["c1", "40", "False", "", "42", "", ""]
        assert json.loads(rows[2][-1]) == records[2][1]["error"]

    def test_export_missing_file(self, tmp_path, capsys):
        assert main(["export", str(tmp_path / "nope.jsonl"),
                     "--output", str(tmp_path / "t.csv")]) == 1
        assert "not found" in capsys.readouterr().err
