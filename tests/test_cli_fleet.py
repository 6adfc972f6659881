"""CLI tests for fleet-scale sweeps: --shard, `repro merge`, --fleet.

The fleet coordinator itself is exercised both through real shard
subprocesses (`repro batch --fleet 2`) and — for the retry path — through
`run_fleet` driving scripted subprocesses that fail on their first launch.
"""

import json
import subprocess
import sys

import pytest

from repro.cli import main
from repro.engine.fleet import ShardOutcome, run_fleet
from repro.engine.retry import RetryPolicy

BATCH = ["batch", "--task", "kdelta", "--family", "random_regular",
         "-n", "30", "40", "--delta", "4", "--seeds", "2", "--param", "k=1"]


def normalized(path):
    out = []
    for line in path.read_text().splitlines():
        obj = json.loads(line)
        if "record" in obj:
            obj["record"].pop("seconds", None)
        out.append(obj)
    return out


class TestShardFlag:
    def test_bad_shard_syntax_exits(self, tmp_path):
        for bad in ("2", "a/b", "2/2", "-1/2"):
            with pytest.raises(SystemExit):
                main(BATCH + ["--shard", bad,
                              "--output", str(tmp_path / "s.jsonl")])

    def test_shard_requires_output(self):
        with pytest.raises(SystemExit, match="--shard requires --output"):
            main(BATCH + ["--shard", "0/2"])

    def test_shard_and_merge_round_trip(self, tmp_path, capsys):
        full = tmp_path / "full.jsonl"
        assert main(BATCH + ["--output", str(full)]) == 0
        shards = []
        for index in range(2):
            path = tmp_path / f"s{index}.jsonl"
            assert main(BATCH + ["--shard", f"{index}/2",
                                 "--output", str(path)]) == 0
            shards.append(path)
        merged = tmp_path / "merged.jsonl"
        assert main(["merge", *map(str, shards), "--output", str(merged)]) == 0
        out = capsys.readouterr().out
        assert "merged 2 shard(s)" in out
        assert normalized(merged) == normalized(full)

    def test_merge_failure_reports_error(self, tmp_path, capsys):
        path = tmp_path / "s0.jsonl"
        assert main(BATCH + ["--shard", "0/2", "--output", str(path)]) == 0
        code = main(["merge", str(path), "--output", str(tmp_path / "m.jsonl")])
        assert code == 1
        assert "ERROR" in capsys.readouterr().err


class TestFleet:
    def test_fleet_requires_output(self):
        with pytest.raises(SystemExit, match="--fleet requires --output"):
            main(BATCH + ["--fleet", "2"])

    def test_fleet_excludes_shard(self, tmp_path):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(BATCH + ["--fleet", "2", "--shard", "0/2",
                          "--output", str(tmp_path / "out.jsonl")])

    @pytest.mark.parametrize("name", ["out.txt", "out.csv"])
    def test_bad_output_suffix_fails_before_any_shard(self, tmp_path, capsys, name):
        assert main(BATCH + ["--fleet", "2", "--output", str(tmp_path / name)]) == 1
        assert "fleet: launching" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []  # no shard file was created

    def test_fleet_runs_and_merges(self, tmp_path, capsys):
        out = tmp_path / "fleet.jsonl"
        full = tmp_path / "full.jsonl"
        assert main(BATCH + ["--output", str(full)]) == 0
        assert main(BATCH + ["--fleet", "2", "--output", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "[shard 0/2]" in stdout and "[shard 1/2]" in stdout
        assert normalized(out) == normalized(full)
        # the intermediate shard files are kept next to the merged output
        assert (tmp_path / "fleet.shard0of2.jsonl").exists()
        assert (tmp_path / "fleet.shard1of2.jsonl").exists()


class TestRunFleet:
    def spawn_script(self, script):
        return subprocess.Popen([sys.executable, "-c", script],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)

    def test_crashed_shard_is_relaunched(self, tmp_path):
        # First launch of each shard dies; the relaunch (crash floor: one
        # free retry even under the fail-fast default policy) succeeds.
        marker = tmp_path / "attempt"

        def spawn(index, attempt):
            script = (f"import pathlib, sys\n"
                      f"marker = pathlib.Path({str(marker)!r} + str({index}))\n"
                      f"if not marker.exists():\n"
                      f"    marker.write_text('x')\n"
                      f"    print('dying'); sys.exit(3)\n"
                      f"print('shard ok')\n")
            return self.spawn_script(script)

        lines = []
        outcomes = run_fleet(spawn, 2, retry=RetryPolicy(), echo=lines.append)
        assert all(o.ok and o.attempts == 2 for o in outcomes)
        assert any("relaunching" in line for line in lines)
        assert sum("shard ok" in line for line in lines) == 2

    def test_exhausted_shard_reports_failure(self):
        def spawn(index, attempt):
            return self.spawn_script("import sys; sys.exit(7)")

        outcomes = run_fleet(spawn, 1, retry=RetryPolicy(), echo=lambda _: None)
        assert outcomes == [ShardOutcome(index=0, attempts=2, returncode=7)]
        assert not outcomes[0].ok

    def test_output_is_prefixed_per_shard(self):
        def spawn(index, attempt):
            return self.spawn_script(f"print('hello from', {index})")

        lines = []
        run_fleet(spawn, 2, echo=lines.append)
        assert any(line.startswith("[shard 0/2] hello") for line in lines)
        assert any(line.startswith("[shard 1/2] hello") for line in lines)
