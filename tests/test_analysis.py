"""Tests for the analysis layer: bounds, tables, and the experiment harness."""

import pathlib

import pytest

from repro.analysis import bounds
from repro.analysis.experiments import EXPERIMENTS, run_experiment
from repro.analysis.tables import Table

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "results"


class TestBounds:
    def test_log_star(self):
        assert bounds.log_star(1) == 0
        assert bounds.log_star(2) == 1
        assert bounds.log_star(4) == 2
        assert bounds.log_star(16) == 3
        assert bounds.log_star(65536) == 4
        assert bounds.log_star(2 ** 65536 if False else 10 ** 80) == 5

    def test_corollary12_formulas(self):
        assert bounds.corollary12_1_colors(10) == 25600
        assert bounds.corollary12_2_colors(10, 4) == 640
        assert bounds.corollary12_2_rounds(10, 4) == 40
        assert bounds.corollary12_3_colors(9) == 81

    def test_outdegree_and_defective_bounds_positive(self):
        for delta in (8, 16, 64):
            for b in (1, 2, 4):
                assert bounds.corollary12_4_colors(delta, b) > 0
                assert bounds.corollary12_5_colors(delta, b) > 0
                assert bounds.corollary12_6_rounds(delta, b) > 0

    def test_theorem11_round_bound_decreases_in_k(self):
        values = [bounds.theorem11_round_bound(16 ** 4, 16, 0, k) for k in (1, 2, 4, 8)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_theorem13_and_15(self):
        assert bounds.theorem13_colors(16, 0.5) == 64
        assert bounds.theorem13_rounds(16, 0.5) == 2
        assert bounds.theorem15_rounds(16, 2) == 4
        assert bounds.sew13_ruling_rounds(16, 2) == 16

    def test_theorem16_matches_examples(self):
        delta = 20
        assert bounds.theorem16_max_reduction(delta + 1, delta) == 0
        assert bounds.theorem16_max_reduction(delta + 2, delta) == 1
        assert bounds.theorem16_max_reduction(2 * delta + 2, delta) == 2
        assert bounds.theorem16_max_reduction(3 * delta, delta) == 3


class TestTable:
    def test_add_row_and_render(self):
        t = Table("demo", ["a", "b"])
        t.add_row(1, 2.5)
        t.add_row("x", 3)
        t.add_note("a note")
        text = t.render()
        assert "### demo" in text
        assert "| a" in text and "2.50" in text
        assert "- a note" in text

    def test_row_length_checked(self):
        t = Table("demo", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_column_and_dicts(self):
        t = Table("demo", ["a", "b"])
        t.add_row(1, 2)
        t.add_row(3, 4)
        assert t.column("b") == [2, 4]
        assert t.to_dicts()[1] == {"a": 3, "b": 4}


class TestExperimentHarness:
    def test_registry_complete(self):
        assert sorted(EXPERIMENTS) == [f"E{i}" for i in (1, 10, 2, 3, 4, 5, 6, 7, 8, 9)]

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("E99")

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS, key=lambda e: int(e[1:])))
    def test_table_matches_golden(self, name):
        # Every experiment replays its saved spec(s) and must render exactly
        # the committed table (benchmarks/results/ is the golden; regenerate it
        # with `pytest benchmarks/test_e*.py -k regenerate`).
        golden = next(RESULTS_DIR.glob(f"{name}_*.md")).read_text(encoding="utf-8")
        table = run_experiment(name)
        assert table.render() + "\n" == golden
        if name == "E1":
            assert all(r == 1 for r in table.column("rounds"))
        elif name == "E2":
            # rounds never grow with k, and the frozen doubling axis still
            # reaches the one-round collapse it was discovered with
            rounds = table.column("rounds")
            assert all(a >= b for a, b in zip(rounds, rounds[1:]))
            assert rounds[-1] <= 1
        elif name == "E9":
            assert all(table.column("proper"))
