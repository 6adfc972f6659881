"""The experiment suite E1-E10 (one per theorem / corollary item).

The paper has no empirical evaluation section; the reproduction's experiments
verify every stated bound empirically and compare against the baselines the
paper discusses.  Each experiment is defined exactly once, as the declarative
:class:`repro.api.spec.JobSpec` sweep(s) of :func:`experiment_specs` — the
documents saved to ``specs/`` — and :func:`run_experiment` replays them with
:func:`repro.api.solve.run_spec` and hands the records to the experiment's
renderer, which returns a :class:`repro.analysis.tables.Table` with one row
per configuration, including the paper's bound next to the measured quantity.

All experiments run on the ``"array"`` backend by default (the vectorized CSR
twin — identical outputs to the per-node reference simulator, property-tested
in ``tests/test_engine_parity.py``).  Pass ``backend="reference"`` to re-run
any experiment on the model-faithful scheduler, ``parity_check=True`` to have
the runner re-execute every cell on the reference backend and insist on
identical results, or ``workers=N`` to shard every sweep across a process
pool; the table is the same either way.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.analysis import bounds
from repro.analysis.tables import Table
from repro.api.registry import ParamSpec, register_algorithm
from repro.congest.ids import random_proper_coloring
from repro.core import baselines, one_round
from repro.engine.base import Engine
from repro.engine.batch import BatchRunner, GraphSpec, Workload
from repro.verify.coloring import assert_proper_coloring

__all__ = ["EXPERIMENTS", "run_experiment", "experiment_specs"]

Records = list[dict[str, Any]]


# --------------------------------------------------------------------------- #
# Data-dependent axes (frozen into the specs by experiment_specs)
# --------------------------------------------------------------------------- #


def degree_scaled_axis(eff_delta: int, epsilons: tuple[float, ...]) -> list[int]:
    """The ``Delta^eps``-derived parameter axis of E4/E5, clamped to ``[1, Delta-1]``."""
    return [max(1, min(eff_delta - 1, int(round(eff_delta ** eps)))) for eps in epsilons]


def doubling_k_axis(runner: BatchRunner, spec: GraphSpec, eff_delta: int) -> list[int]:
    """E2's data-dependent axis: double ``k`` until the round count collapses
    to 1 (or the Linial regime ``k > 16*Delta``); return the ks visited."""
    ks = [1]
    while runner.run_cell("kdelta", spec, params={"k": ks[-1]})["rounds"] > 1:
        if 2 * ks[-1] > 16 * eff_delta:
            break
        ks.append(2 * ks[-1])
    return ks


# --------------------------------------------------------------------------- #
# Experiment-only tasks (registered like every repro.core algorithm)
# --------------------------------------------------------------------------- #


@register_algorithm(
    "one_round_tightness",
    summary="Theorem 1.6: one-round reduction of exactly k colors from a tight m-coloring",
    guarantee="proper m-k coloring in exactly 1 round when m = k(Delta-k+3)",
    source="Theorem 1.6 / Lemma 4.1",
    params=[
        ParamSpec("k", int, minimum=1, help="number of colors removed in the one round"),
        ParamSpec("m", int, minimum=1,
                  help="input color-space size (tight at k(Delta-k+3))"),
    ],
)
def _task_one_round_tightness(w: Workload, engine: Engine, k: int, m: int) -> Mapping[str, Any]:
    """Bespoke E9 task: Theorem 1.6 needs its own tight input coloring, not Delta^4."""
    delta = w.spec.delta
    colors, m = random_proper_coloring(w.graph, num_colors=m, seed=w.spec.seed)
    res = one_round.one_round_color_reduction(w.graph, colors, m, k=k, delta=delta)
    proper = True
    try:
        assert_proper_coloring(w.graph, res.colors, max_colors=m - k)
    except AssertionError:
        proper = False
    return {
        "rounds": int(res.rounds),
        "m": int(m),
        "k": int(k),
        "output colors space": int(res.color_space_size),
        "m - k": int(m - k),
        "proper": proper,
        "_colors": res.colors,
    }


@register_algorithm(
    "baseline",
    summary="one contender of the E10 baseline comparison",
    guarantee="proper coloring (contender-specific color/round bounds; "
              "'luby' is randomized, 'greedy' is centralized)",
    source="E10 / Section 1 baselines",
    params=[
        ParamSpec("algorithm", str,
                  choices=("mother", "linial", "beg18", "kw_halving", "luby", "greedy"),
                  help="which contender to run"),
        ParamSpec("k", int, default=1, minimum=1,
                  help="batch size for the 'mother' contender"),
    ],
)
def _task_e10_baselines(w: Workload, engine: Engine, algorithm: str, k: int = 1) -> Mapping[str, Any]:
    """One row of the E10 comparison; ``algorithm`` picks the contender."""
    from repro.core import corollaries
    from repro.core.linial import linial_coloring

    if algorithm == "mother":
        res = corollaries.kdelta_coloring(w.graph, w.input_colors, w.m, k=k, backend=engine)
    elif algorithm == "linial":
        res = linial_coloring(w.graph, seed=w.spec.seed, backend=engine)
    elif algorithm == "beg18":
        res = baselines.locally_iterative_beg18(w.graph, w.input_colors, w.m, backend=engine)
    elif algorithm == "kw_halving":
        start = corollaries.delta_squared_coloring(w.graph, w.input_colors, w.m, backend=engine)
        kw = engine.kuhn_wattenhofer(w.graph, start.colors, start.color_space_size)
        return {
            "rounds": int(start.rounds + kw.rounds),
            "colors used": int(kw.num_colors),
            "color space": int(kw.color_space_size),
            "_colors": kw.colors,
        }
    elif algorithm == "luby":
        res = baselines.luby_randomized_coloring(w.graph, seed=w.spec.seed)
    elif algorithm == "greedy":
        res = baselines.greedy_sequential(w.graph)
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown E10 algorithm {algorithm!r}")
    return {
        "rounds": int(res.rounds),
        "colors used": int(res.num_colors),
        "color space": int(res.color_space_size),
        "_colors": res.colors,
    }


# --------------------------------------------------------------------------- #
# Renderers: the records of an experiment's spec(s) -> its table
# --------------------------------------------------------------------------- #


def _render_e1(records: Records) -> Table:
    """E1 — Corollary 1.2 (1): Linial's one-round color reduction."""
    table = Table(
        "E1 — Corollary 1.2(1): one-round reduction of a Delta^4-coloring",
        ["family", "Delta", "n", "rounds", "colors used", "color space", "paper bound 256*Delta^2"],
    )
    for rec in records:
        table.add_row(
            rec["family"], rec["Delta"], rec["n"], rec["rounds"], rec["colors used"],
            rec["color space"], bounds.corollary12_1_colors(rec["Delta"]),
        )
    table.add_note("Every row must have rounds = 1 and color space <= 256*Delta^2.")
    return table


def _render_e2(records: Records) -> Table:
    """E2 — Corollary 1.2 (2): the k sweep (rounds vs colors trade-off)."""
    eff = records[0]["Delta"]
    table = Table(
        f"E2 — Corollary 1.2(2): O(k*Delta) colors in O(Delta/k) rounds (Delta={eff})",
        ["k", "rounds", "round bound 16*Delta/k", "colors used", "color bound 16*Delta*k"],
    )
    for rec in records:
        k = rec["k"]
        table.add_row(
            k, rec["rounds"], bounds.corollary12_2_rounds(eff, k), rec["colors used"],
            bounds.corollary12_2_colors(eff, k),
        )
    table.add_note("Rounds fall linearly in 1/k while the color budget grows linearly in k.")
    return table


def _render_e3(records: Records) -> Table:
    """E3 — Corollary 1.2 (3): Delta^2 colors in O(1) rounds."""
    table = Table(
        "E3 — Corollary 1.2(3): Delta^2 colors in O(1) rounds (k = ceil(Delta/16))",
        ["Delta", "rounds", "colors used", "color bound Delta^2"],
    )
    for rec in records:
        table.add_row(
            rec["Delta"], rec["rounds"], rec["colors used"],
            bounds.corollary12_3_colors(rec["Delta"]),
        )
    table.add_note("Rounds stay O(1) (at most 256 by the proof, tiny in practice) as Delta grows.")
    return table


def _render_e4(records: Records) -> Table:
    """E4 — Corollary 1.2 (4): beta-outdegree colorings."""
    eff = records[0]["Delta"]
    table = Table(
        f"E4 — Corollary 1.2(4): beta-outdegree O(Delta/beta)-colorings (Delta={eff})",
        ["beta", "rounds", "round bound O(Delta/beta)", "colors used", "color bound O(Delta/beta)",
         "max outdegree"],
    )
    for rec in records:
        table.add_row(
            rec["beta"], rec["rounds"], bounds.corollary12_4_rounds(eff, rec["beta"]),
            rec["colors used"], bounds.corollary12_4_colors(eff, rec["beta"]),
            rec["max outdegree"],
        )
    table.add_note("The orientation of monochromatic edges always has outdegree <= beta (hard invariant).")
    return table


def _render_e5(one_round_records: Records, multi_round_records: Records) -> Table:
    """E5 — Corollary 1.2 (5)+(6): defective colorings, both variants per ``d``."""
    eff = one_round_records[0]["Delta"]
    table = Table(
        f"E5 — Corollary 1.2(5)/(6): d-defective O((Delta/d)^2)-colorings (Delta={eff})",
        ["variant", "d", "rounds", "colors used", "color bound O((Delta/d)^2)", "max defect"],
    )
    for one, multi in zip(one_round_records, multi_round_records, strict=True):
        for variant, rec in (("one round (5)", one), ("multi round (6)", multi)):
            table.add_row(
                variant, rec["d"], rec["rounds"], rec["colors used"],
                bounds.corollary12_5_colors(eff, rec["d"]), rec["max defect"],
            )
    table.add_note("max defect <= d in every row (hard invariant).")
    return table


def _render_e6(records: Records) -> Table:
    """E6 — the (Delta+1)-coloring pipeline."""
    table = Table(
        "E6 — (Delta+1)-coloring pipeline: IDs -> Linial -> k=1 mother -> class removal",
        ["n", "Delta", "linial rounds", "mother rounds", "reduce rounds", "total rounds",
         "colors used", "Delta+1"],
    )
    for rec in records:
        table.add_row(
            rec["n"], rec["Delta"], rec["linial rounds"], rec["mother rounds"],
            rec["reduce rounds"], rec["rounds"], rec["colors used"], rec["Delta"] + 1,
        )
    table.add_note("Total rounds grow linearly in Delta and only additively (log* n) in n.")
    return table


def _render_e7(records: Records) -> Table:
    """E7 — Theorem 1.3: O(Delta^{1+eps}) colors."""
    epsilon = records[0]["epsilon"]
    table = Table(
        f"E7 — Theorem 1.3: O(Delta^(1+eps))-coloring (eps={epsilon})",
        ["Delta", "rounds (measured)", "paper rounds O(Delta^(1/2-eps/2))",
         "substituted bound O(Delta^eps + Delta^(1-eps))", "colors used", "color bound Delta^(1+eps)"],
    )
    for rec in records:
        eff = rec["Delta"]
        substituted = eff ** epsilon + eff ** (1 - epsilon)
        table.add_row(
            eff, rec["rounds"], bounds.theorem13_rounds(eff, epsilon), substituted,
            rec["colors used"], bounds.theorem13_colors(eff, epsilon),
        )
    table.add_note(
        "The Theorem 3.1 black box ([Bar16, BEG18]) is substituted by the k=1 mother algorithm; "
        "measured rounds follow the substituted bound, colors follow the paper bound (see DESIGN.md)."
    )
    return table


def _render_e8(records: Records) -> Table:
    """E8 — Theorem 1.5: (2, r)-ruling sets vs the SEW13 baseline."""
    eff = records[0]["Delta"]
    table = Table(
        f"E8 — Theorem 1.5: (2,r)-ruling sets (Delta={eff})",
        ["r", "method", "rounds", "ruling rounds only", "paper bound", "set size"],
    )
    for rec in records:
        r = rec["r"]
        if rec.get("baseline"):
            method, bound = "SEW13 baseline", bounds.sew13_ruling_rounds(eff, r)
        else:
            method, bound = "Theorem 1.5", bounds.theorem15_rounds(eff, r)
        table.add_row(r, method, rec["rounds"], rec["ruling rounds only"], bound, rec["set size"])
    table.add_note(
        "The ruling-phase rounds follow Lemma 3.2 exactly; the end-to-end advantage of Theorem 1.5 "
        "depends on the Theorem 3.1 black box we substitute (see DESIGN.md)."
    )
    return table


def _render_e9(*per_delta: Records) -> Table:
    """E9 — one spec (and one record) per Delta, each at its tight ``(k, m)``."""
    table = Table(
        "E9 — Theorem 1.6: one-round reduction of exactly k colors",
        ["Delta", "m = k(Delta-k+3)", "k (paper)", "rounds", "output colors space", "m - k",
         "proper"],
    )
    for rec in (rec for records in per_delta for rec in records):
        table.add_row(
            rec["Delta"], rec["m"], rec["k"], rec["rounds"], rec["output colors space"],
            rec["m - k"], rec["proper"],
        )
    table.add_note(
        "Lemma 4.3's matching impossibility (no one-round algorithm reaches m-k-1 colors when "
        "m = k(Delta-k+3)-1) is verified exhaustively for small Delta in the test suite."
    )
    return table


#: E10's contenders in row order: the table label and the ``baseline`` params.
_E10_CONTENDERS: list[tuple[str, dict[str, Any]]] = [
    *[(f"mother algorithm (k={k})", {"algorithm": "mother", "k": k}) for k in (1, 4, 16)],
    ("Linial from unique IDs", {"algorithm": "linial"}),
    ("locally-iterative (BEG18 regime) + reduce", {"algorithm": "beg18"}),
    ("Delta^2 + Kuhn-Wattenhofer halving", {"algorithm": "kw_halving"}),
    ("randomized (Luby-style, Delta+1 palette)", {"algorithm": "luby"}),
    ("sequential greedy (centralized)", {"algorithm": "greedy"}),
]


def _render_e10(records: Records) -> Table:
    """E10 — baseline comparison, one row per contender."""
    table = Table(
        f"E10 — baselines vs the mother algorithm (Delta={records[0]['Delta']}, n={records[0]['n']})",
        ["algorithm", "rounds", "colors used", "color space"],
    )
    for (label, _), rec in zip(_E10_CONTENDERS, records, strict=True):
        table.add_row(label, rec["rounds"], rec["colors used"], rec["color space"])
    table.add_note("Deterministic Delta+1 in O(Delta) rounds vs O(Delta log Delta) for KW halving; "
                   "randomized Luby needs O(log n) rounds but is not deterministic.")
    return table


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #

#: Each experiment's renderer.  It receives the records of the experiment's
#: spec parts — ``experiment_specs()`` keys ``EN`` or ``EN_<part>``, in order.
EXPERIMENTS: dict[str, Callable[..., Table]] = {
    "E1": _render_e1,
    "E2": _render_e2,
    "E3": _render_e3,
    "E4": _render_e4,
    "E5": _render_e5,
    "E6": _render_e6,
    "E7": _render_e7,
    "E8": _render_e8,
    "E9": _render_e9,
    "E10": _render_e10,
}


def run_experiment(
    name: str,
    backend: str | None = None,
    parity_check: bool | None = None,
    workers: int | None = None,
) -> Table:
    """Replay experiment ``name`` (``"E1"`` .. ``"E10"``) and render its table.

    The three overrides are forwarded to :func:`repro.api.solve.run_spec`;
    like there, they never change what a cell computes, only where and how it
    is checked.
    """
    # Imported here: the registry imports this module on first lookup, and
    # repro.api.solve imports the registry.
    from repro.api.solve import run_spec

    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)}")
    specs = experiment_specs()
    parts = [
        run_spec(job, backend=backend, parity_check=parity_check, workers=workers)[0].records
        for key, job in specs.items() if key.split("_")[0] == name
    ]
    return EXPERIMENTS[name](*parts)


# --------------------------------------------------------------------------- #
# E1-E10 as saved declarative specs
# --------------------------------------------------------------------------- #


def experiment_specs() -> "dict[str, JobSpec]":
    """Every experiment's sweep as a declarative :class:`JobSpec`.

    This is the single definition of E1-E10: :func:`run_experiment` replays
    these specs, ``scripts/generate_experiment_specs.py`` saves them to
    ``specs/`` and ``repro run --spec`` replays the saved documents.

    Data-dependent axes are *frozen into the spec* here:

    * E2's ``k`` axis doubles until the round count collapses to 1 — the spec
      records the ks that doubling visits (discovered with a quick array-
      backend run here);
    * E4/E5's ``beta`` / ``d`` axes and E9's tight ``(k, m)`` pairs depend
      only on the cell's effective Delta;
    * E5 (two algorithm variants) and E9 (per-Delta parameter pairing) expand
      into one spec per variant / Delta, since a spec names exactly one
      algorithm and sweeps a pure (cells x params) grid.
    """
    from repro.api.spec import JobSpec, Problem, Run

    def job(algorithm: str, cells: list[GraphSpec], grid=None, params=None) -> JobSpec:
        return JobSpec(
            run=Run(algorithm=algorithm, params=params or {}, backend="array"),
            problems=tuple(Problem(graph=cell) for cell in cells),
            params_grid=None if grid is None else tuple(grid),
        )

    runner = BatchRunner(backend="array")
    specs: dict[str, JobSpec] = {}

    # E1 — Corollary 1.2(1): one-round reduction over two families.
    specs["E1"] = job("linial_reduction", [
        GraphSpec(family, 300, delta, 1)
        for family in ("random_regular", "gnp") for delta in (4, 8, 16)
    ])

    # E2 — the k sweep; freeze the data-dependent doubling axis.
    e2_cell = GraphSpec("random_regular", 400, 16, 2)
    ks = doubling_k_axis(runner, e2_cell, runner.workload(e2_cell).eff_delta)
    specs["E2"] = job("kdelta", [e2_cell], grid=[{"k": k} for k in ks])

    # E3 — Delta^2 colors in O(1) rounds.
    specs["E3"] = job("delta_squared",
                      [GraphSpec("random_regular", 400, delta, 3) for delta in (8, 16, 32)])

    # E4 — beta-outdegree colorings; betas derived from the effective Delta.
    e4_cell = GraphSpec("random_regular", 300, 16, 4)
    betas = degree_scaled_axis(runner.workload(e4_cell).eff_delta, (0.25, 0.5, 0.75))
    specs["E4"] = job("outdegree", [e4_cell], grid=[{"beta": b} for b in betas])

    # E5 — defective colorings, one spec per variant.
    e5_cell = GraphSpec("random_regular", 300, 16, 5)
    ds = degree_scaled_axis(runner.workload(e5_cell).eff_delta, (0.25, 0.5, 0.75))
    specs["E5_one_round"] = job("defective_one_round", [e5_cell], grid=[{"d": d} for d in ds])
    specs["E5_multi_round"] = job("defective", [e5_cell], grid=[{"d": d} for d in ds])

    # E6 — the (Delta+1) pipeline over growing n.
    specs["E6"] = job("delta_plus_one",
                      [GraphSpec("random_regular", n, 12, 6) for n in (100, 400, 1000)])

    # E7 — Theorem 1.3 over growing Delta.
    specs["E7"] = job("theorem13",
                      [GraphSpec("random_regular", 300, delta, 7) for delta in (8, 16, 32)],
                      params={"epsilon": 0.5})

    # E8 — ruling sets: Theorem 1.5 vs the SEW13 baseline, per radius.
    e8_cell = GraphSpec("random_regular", 300, 16, 8)
    specs["E8"] = job("ruling_set", [e8_cell], grid=[
        {"r": r, **({"baseline": True} if baseline else {})}
        for r in (2, 3) for baseline in (False, True)
    ])

    # E9 — Theorem 1.6 tightness at the largest k the theorem allows for each
    # Delta, with its tight m = k(Delta-k+3); one spec per Delta.
    for delta in (4, 6, 8):
        k = min(delta - 1, (delta + 3) // 2)
        specs[f"E9_delta{delta}"] = job(
            "one_round_tightness", [GraphSpec("random_regular", 200, delta, 9)],
            params={"k": k, "m": one_round.required_input_colors(delta, k)},
        )

    # E10 — the baseline comparison as a params grid over contenders.
    e10_cell = GraphSpec("random_regular", 300, 16, 10)
    specs["E10"] = job("baseline", [e10_cell], grid=[params for _, params in _E10_CONTENDERS])
    return specs
