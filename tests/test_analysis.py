"""Tests for the experiment harness, figure registry, tables, and reporting."""

import gc
import json
import os
import pathlib
import subprocess
import sys
import weakref

import pytest

import repro.analysis.experiments as experiments
from repro.analysis import (
    BENCH_SCALE,
    EXPERIMENT_REGISTRY,
    PAPER_SCALE,
    SMOKE_SCALE,
    AveragedMetrics,
    ExperimentResult,
    ExperimentSpec,
    Variant,
    compare_tables,
    paper_table_reports,
    parameter_table,
    point_key,
    render_result,
    render_series,
    render_summary,
    run_experiment,
    run_experiments,
)
from repro.core.errors import ExperimentError
from repro.core.policy import ConflictPolicy
from repro.sim.metrics import RunMetrics
from repro.sim.params import SimulationParameters


def tiny_spec(**overrides):
    base = SimulationParameters(
        database_size=40, num_terminals=30, total_completions=60, seed=2
    )
    defaults = dict(
        experiment_id="test-exp",
        title="test experiment",
        workload="readwrite",
        base_params=base,
        mpl_levels=(5, 15),
        variants=(
            Variant("commutativity", {"policy": ConflictPolicy.COMMUTATIVITY}),
            Variant("recoverability", {"policy": ConflictPolicy.RECOVERABILITY}),
        ),
        metrics=("throughput", "blocking_ratio"),
        runs=1,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


def fake_metrics(throughput):
    return RunMetrics(
        simulated_time=10.0,
        completions=int(throughput * 10),
        commits=int(throughput * 10),
        pseudo_commits=0,
        response_time_total=5.0,
        blocks=3,
        restarts=1,
        cycle_checks=4,
        aborts=1,
        abort_length_total=2,
        commit_dependency_edges=0,
        events_processed=100,
    )


class TestAveragedMetrics:
    def test_from_runs_averages(self):
        averaged = AveragedMetrics.from_runs([fake_metrics(10), fake_metrics(20)])
        assert averaged.runs == 2
        assert averaged.throughput == pytest.approx(15.0)

    def test_from_zero_runs_rejected(self):
        with pytest.raises(ExperimentError):
            AveragedMetrics.from_runs([])

    def test_metric_lookup(self):
        averaged = AveragedMetrics.from_runs([fake_metrics(10)])
        assert averaged.metric("throughput") == pytest.approx(10.0)
        with pytest.raises(ExperimentError):
            averaged.metric("latency_p99")


class TestExperimentSpecValidation:
    def test_valid_spec_passes(self):
        tiny_spec().validate()

    def test_empty_levels_rejected(self):
        with pytest.raises(ExperimentError):
            tiny_spec(mpl_levels=()).validate()

    def test_duplicate_variant_labels_rejected(self):
        with pytest.raises(ExperimentError):
            tiny_spec(
                variants=(Variant("same", {}), Variant("same", {}))
            ).validate()

    def test_zero_runs_rejected(self):
        with pytest.raises(ExperimentError):
            tiny_spec(runs=0).validate()


class TestRunExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(tiny_spec())

    def test_all_points_present(self, result):
        assert set(result.points) == {"commutativity", "recoverability"}
        for label in result.points:
            assert set(result.points[label]) == {5, 15}

    def test_series_and_peak(self, result):
        series = result.series("recoverability", "throughput")
        assert [level for level, _ in series] == [5, 15]
        peak_level, peak_value = result.peak("recoverability")
        assert peak_value == max(value for _, value in series)

    def test_improvement_is_computable(self, result):
        improvement = result.improvement("recoverability", "commutativity")
        assert improvement > -1.0

    def test_unknown_variant_raises(self, result):
        with pytest.raises(ExperimentError):
            result.series("optimistic", "throughput")

    def test_progress_callback_is_invoked(self):
        lines = []
        run_experiment(tiny_spec(mpl_levels=(5,)), progress=lines.append)
        assert len(lines) == 2
        assert all("test-exp" in line for line in lines)

    def test_an_evicted_system_is_collected_at_once(self, monkeypatch):
        monkeypatch.setattr(experiments, "_SIMULATION_CACHE", {})
        params = SimulationParameters(database_size=20, total_completions=10, mpl_level=2)
        experiments._simulate_point((params, "readwrite"))
        (by_seed,) = experiments._SIMULATION_CACHE.values()
        evicted = weakref.ref(by_seed[params.seed])
        del by_seed
        gc.disable()  # only the eviction itself may collect it
        try:
            experiments._simulate_point((params.replace(database_size=21), "readwrite"))
        finally:
            gc.enable()
        assert evicted() is None


class TestParallelRunner:
    def test_parallel_points_match_serial_exactly(self):
        spec = tiny_spec()
        serial = run_experiment(spec, workers=1)
        parallel = run_experiment(spec, workers=2)
        assert parallel.points == serial.points

    def test_parallel_preserves_progress_ordering(self):
        serial_lines, parallel_lines = [], []
        spec = tiny_spec(mpl_levels=(5,))
        run_experiment(spec, progress=serial_lines.append, workers=1)
        run_experiment(spec, progress=parallel_lines.append, workers=2)
        assert parallel_lines == serial_lines

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ExperimentError):
            run_experiment(tiny_spec(), workers=0)


def figure_ids():
    """The 20 figure experiments: every experiment but the ablations."""
    return [entry.experiment_id for entry in EXPERIMENT_REGISTRY if entry.kind != "ablation"]


def batch_points(experiment_ids, scale):
    """How many points a batch of registry experiments names, and how many
    of them are distinct simulations; nothing is run."""
    tasks = [
        task
        for experiment_id in experiment_ids
        for task in experiments._point_tasks(EXPERIMENT_REGISTRY.spec(experiment_id, scale))
    ]
    return len(tasks), len({point_key(*task) for task in tasks})


class TestBatchRunner:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_batch_matches_each_spec_alone(self, workers):
        specs = [tiny_spec(), tiny_spec(experiment_id="other", mpl_levels=(15, 25))]
        alone_lines, batch_lines = [], []
        alone = [run_experiment(spec, progress=alone_lines.append) for spec in specs]
        batch = list(run_experiments(specs, progress=batch_lines.append, workers=workers))
        assert [result.spec for result in batch] == specs
        assert [result.points for result in batch] == [result.points for result in alone]
        assert batch_lines == alone_lines

    @pytest.mark.parametrize("experiment_ids, scale, named, distinct", [
        (EXPERIMENT_REGISTRY.ids(), SMOKE_SCALE, 116, 80),
        (EXPERIMENT_REGISTRY.ids(), BENCH_SCALE, 260, 174),
        (EXPERIMENT_REGISTRY.ids(), PAPER_SCALE, 3170, 2090),
        # Figures 4-7 read four metrics of one set of runs.
        (["figure-4", "figure-5", "figure-6", "figure-7"], PAPER_SCALE, 480, 120),
    ], ids=["smoke", "bench", "paper", "figures-4-to-7-paper"])
    def test_distinct_points_of_a_batch(self, experiment_ids, scale, named, distinct):
        assert batch_points(experiment_ids, scale) == (named, distinct)

    def test_one_site_curves_of_figure_4_sites_are_the_centralized_figures(self):
        ids = ["figure-4", "figure-4-2pl", "figure-4-sites"]
        results = dict(zip(ids, run_experiments(
            [EXPERIMENT_REGISTRY.spec(experiment_id, SMOKE_SCALE) for experiment_id in ids]
        )))
        sites = results["figure-4-sites"].points
        assert sites["1-site/semantic"] == results["figure-4"].points["recoverability"]
        assert sites["1-site/2pl"] == results["figure-4-2pl"].points["2pl"]


class TestExperimentRegistry:
    def test_registry_covers_figures_and_ablations(self):
        ablations = ["ablation-pseudo-commit-slot", "ablation-write-probability"]
        assert EXPERIMENT_REGISTRY.ids("ablation") == ablations
        assert EXPERIMENT_REGISTRY.ids() == figure_ids() + ablations

    def test_every_entry_has_a_builder_and_a_check(self):
        for entry in EXPERIMENT_REGISTRY:
            assert callable(entry.builder), entry.experiment_id
            assert callable(entry.check), entry.experiment_id

    def test_distributed_figures_are_kinded(self):
        for experiment_id in (
            "figure-4-sites", "figure-4-sites-scaling",
            "figure-4-protocols", "figure-4-commit",
        ):
            assert EXPERIMENT_REGISTRY.entry(experiment_id).kind == "distributed"
        assert EXPERIMENT_REGISTRY.entry("figure-4-2pl").kind == "baseline"
        assert EXPERIMENT_REGISTRY.entry("figure-4").kind == "figure"

    def test_paper_figures_carry_the_paper_claim(self):
        for entry in EXPERIMENT_REGISTRY:
            paper_figure = entry.experiment_id in {f"figure-{n}" for n in range(4, 19)}
            assert bool(entry.paper_claim) == paper_figure, entry.experiment_id
        assert "~67%" in EXPERIMENT_REGISTRY.entry("figure-4").paper_claim

    def test_unknown_id_raises_with_known_ids_listed(self):
        with pytest.raises(ExperimentError, match="figure-4"):
            EXPERIMENT_REGISTRY.entry("figure-99")

    def test_tables_are_not_a_registry_entry(self):
        with pytest.raises(ExperimentError, match="unknown experiment 'tables'"):
            EXPERIMENT_REGISTRY.spec("tables")

    def test_spec_builds_and_validates_for_every_id(self):
        for experiment_id in EXPERIMENT_REGISTRY.ids():
            spec = EXPERIMENT_REGISTRY.spec(experiment_id, SMOKE_SCALE)
            spec.validate()
            assert spec.experiment_id == experiment_id

    def test_ablation_specs_match_their_design(self):
        slot = EXPERIMENT_REGISTRY.spec("ablation-pseudo-commit-slot", SMOKE_SCALE)
        assert {variant.label for variant in slot.variants} == {
            "holds-slot", "releases-slot"
        }
        write = EXPERIMENT_REGISTRY.spec("ablation-write-probability", SMOKE_SCALE)
        assert len(write.variants) == 6
        assert write.mpl_levels == (100,)


class TestReporting:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(tiny_spec())

    def test_render_series_has_one_row_per_level(self, result):
        text = render_series(result)
        assert "mpl" in text
        assert len(text.splitlines()) == 1 + len(result.spec.mpl_levels)

    def test_render_summary_mentions_peaks_and_improvement(self, result):
        text = render_summary(result)
        assert "peak" in text
        assert "recoverability vs commutativity" in text

    def test_render_result_includes_title_and_description(self, result):
        text = render_result(result)
        assert result.spec.title in text
        assert "summary" in text


class TestFigureRegistry:
    def test_all_figures_are_registered(self):
        ids = figure_ids()
        # The paper's 15 figures plus the strict-2PL baseline and the
        # multi-site router, read-scaling, replication-protocol and
        # commit-protocol experiments.
        assert len(ids) == 20
        assert "figure-4-2pl" in ids
        assert "figure-4-sites" in ids
        assert "figure-4-sites-scaling" in ids
        assert "figure-4-protocols" in ids
        assert "figure-4-commit" in ids
        assert ids[0] == "figure-4" and ids[-1] == "figure-18"

    def test_every_figure_builds_at_the_smoke_scale(self):
        for figure_id in figure_ids():
            spec = EXPERIMENT_REGISTRY.spec(figure_id, SMOKE_SCALE)
            spec.validate()
            assert spec.experiment_id == figure_id
            assert spec.runs == SMOKE_SCALE.runs
            assert tuple(spec.mpl_levels) == SMOKE_SCALE.mpl_levels

    def test_scales_are_ordered_by_size(self):
        assert (
            SMOKE_SCALE.total_completions
            < BENCH_SCALE.total_completions
            < PAPER_SCALE.total_completions
        )

    def test_workloads_and_resources_match_the_paper(self):
        assert EXPERIMENT_REGISTRY.spec("figure-4", SMOKE_SCALE).workload == "readwrite"
        assert EXPERIMENT_REGISTRY.spec("figure-14", SMOKE_SCALE).workload == "adt"
        assert EXPERIMENT_REGISTRY.spec("figure-10", SMOKE_SCALE).base_params.resource_units == 5
        assert EXPERIMENT_REGISTRY.spec("figure-11", SMOKE_SCALE).base_params.resource_units == 1
        unfair = EXPERIMENT_REGISTRY.spec("figure-8", SMOKE_SCALE)
        assert unfair.base_params.fair_scheduling is False
        adt_15 = EXPERIMENT_REGISTRY.spec("figure-15", SMOKE_SCALE)
        assert all(variant.overrides["pc"] == 2 for variant in adt_15.variants)

    def test_figure_metrics_match_what_the_paper_plots(self):
        assert EXPERIMENT_REGISTRY.spec("figure-5", SMOKE_SCALE).metrics == ("response_time",)
        assert EXPERIMENT_REGISTRY.spec("figure-6", SMOKE_SCALE).metrics == (
            "blocking_ratio",
            "restart_ratio",
        )
        assert EXPERIMENT_REGISTRY.spec("figure-7", SMOKE_SCALE).metrics == (
            "cycle_check_ratio",
            "abort_length",
        )


def hand_result(experiment_id, throughputs, counters=None):
    """A smoke-scale result of one registry experiment with hand-set numbers.

    ``throughputs`` gives each variant's throughput per mpl level; every
    level of a variant carries ``counters[label]``.
    """
    spec = EXPERIMENT_REGISTRY.spec(experiment_id, SMOKE_SCALE)
    points = {
        label: {
            level: AveragedMetrics(
                runs=1, throughput=value, response_time=1.0, blocking_ratio=0.0,
                restart_ratio=0.0, cycle_check_ratio=0.0, abort_length=0.0,
                completions=1.0, pseudo_commit_fraction=0.0,
                counters=tuple(sorted((counters or {}).get(label, {}).items())),
            )
            for level, value in zip(spec.mpl_levels, values)
        }
        for label, values in throughputs.items()
    }
    return ExperimentResult(spec=spec, points=points)


class TestShapeChecks:
    """Each check holds on a result with the claimed shape, and names every
    expectation a result without it fails, with its numbers."""

    @staticmethod
    def check(experiment_id, throughputs, counters=None):
        result = hand_result(experiment_id, throughputs, counters)
        return EXPERIMENT_REGISTRY.entry(experiment_id).check(result)

    def test_figure_4(self):
        holds = {"commutativity": (50.0, 40.0), "recoverability": (70.0, 65.0)}
        assert self.check("figure-4", holds) == []
        breaks = {"commutativity": (50.0, 40.0), "recoverability": (55.0, 30.0)}
        assert self.check("figure-4", breaks) == [
            "recoverability peak vs 1.2 x commutativity peak: got 55, expected >= 60",
            "recoverability vs commutativity throughput at mpl=50: got 30, expected >= 40",
        ]

    def test_figure_14(self):
        holds = {"Pc=4,Pr=0": (10.0, 9.0), "Pc=4,Pr=4": (11.0, 10.0), "Pc=4,Pr=8": (13.0, 11.0)}
        assert self.check("figure-14", holds) == []
        breaks = dict(holds, **{"Pc=4,Pr=8": (11.5, 11.0)})
        assert self.check("figure-14", breaks) == [
            "Pc=4,Pr=8 peak vs 1.2 x Pc=4,Pr=0 peak: got 11.5, expected >= 12"
        ]

    def test_figure_4_commit(self):
        throughputs = {"one-phase": (20.0, 30.0), "two-phase": (18.0, 25.0)}
        counters = {
            "one-phase": {"replication_under_replicated_window": 3, "resource_messages_sent": 10},
            "two-phase": {
                "commit_prepare_rounds": 5, "commit_certifications": 5, "commit_prepare_acks": 10,
                "commit_re_replicated_objects": 2, "resource_messages_sent": 20,
            },
        }
        assert self.check("figure-4-commit", throughputs, counters) == []
        counters["two-phase"]["replication_under_replicated_window"] = 1
        assert self.check("figure-4-commit", throughputs, counters) == [
            "two-phase replication_under_replicated_window: got 2, expected == 0"
        ]

    def test_ablation_write_probability(self):
        throughputs = {
            f"Pw={probability}/{policy}": (12.0 if policy == "recoverability" else 10.0,)
            for probability in (0.1, 0.3, 0.5)
            for policy in ("commutativity", "recoverability")
        }
        assert self.check("ablation-write-probability", throughputs) == []
        throughputs["Pw=0.5/recoverability"] = (11.0,)
        assert self.check("ablation-write-probability", throughputs) == [
            "recoverability gain at Pw=0.5 vs the gain at Pw=0.1 minus 0.05: "
            "got 0.1, expected >= 0.15"
        ]


class TestTables:
    def test_paper_table_reports_cover_the_four_types(self):
        reports = paper_table_reports()
        assert [report.type_name for report in reports] == ["page", "stack", "set", "table"]
        assert all(report.all_sound for report in reports)

    def test_stack_set_table_match_exactly(self):
        for type_name in ("stack", "set", "table"):
            report = compare_tables(type_name)
            assert report.exact_matches == len(report.comparisons)

    def test_page_refinement_is_reported(self):
        report = compare_tables("page")
        refinements = report.refinements
        assert len(refinements) == 1
        assert (refinements[0].requested, refinements[0].executed) == ("write", "write")

    def test_render_contains_both_table_names(self):
        text = compare_tables("stack").render()
        assert "Table III" in text and "Table IV" in text

    def test_parameter_table_lists_nominal_values(self):
        text = parameter_table()
        assert "database_size" in text
        assert "1000" in text
        assert "write_probability" in text


def modules_loaded_by(code):
    """The modules that running ``code`` adds to a fresh interpreter's ``sys.modules``."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import json, sys; before = set(sys.modules)\n"
        f"{code}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    )
    return set(json.loads(result.stdout.splitlines()[-1]))


def test_import_loads_no_profiler_modules():
    # The analysis package runs experiments; it must not pull in the
    # profiler or the interpreter-build probes as a side effect of import.
    added = modules_loaded_by("import repro.analysis")
    assert not {"cProfile", "pstats", "profile", "sysconfig"} & added


def test_import_loads_no_process_pool_modules():
    # ``run_experiments`` imports its process pool only when it fans out
    # (workers > 1); the serial path and a bare import must not pay for it.
    added = modules_loaded_by("import repro.analysis")
    assert not {"concurrent.futures", "multiprocessing"} & added


def test_import_analysis_defers_the_table_derivation():
    added = modules_loaded_by("import repro.analysis")
    assert "repro.analysis.figures" in added
    assert not {"repro.analysis.tables", "repro.core.derivation"} & added


RUN_50 = (
    "from repro.sim import Simulation, SimulationParameters\n"
    "simulation = Simulation(SimulationParameters(\n"
    "    total_completions=50, site_count={sites}), workload_kind='readwrite')\n"
    "assert simulation.run().completions == 50\n"
    "assert (type(simulation.router).__name__ == 'TransactionRouter') == ({sites} > 1)"
)


def test_centralized_run_loads_no_multi_site_checker_or_analysis_modules():
    # The paper's own configuration never runs these layers, so it must not
    # pay for importing them.
    added = modules_loaded_by(RUN_50.format(sites=1))
    assert "repro.sim.simulator" in added
    unused = ("repro.distributed", "repro.core.history", "repro.core.serializability",
              "repro.core.derivation", "repro.analysis")
    assert sorted(m for m in added if m.startswith(unused)) == []


def test_bare_package_imports_resolve_the_deferred_modules():
    added = modules_loaded_by(
        "import repro\n"
        "assert repro.distributed.TransactionRouter().site_count == 1\n"
        "import repro.core\n"
        "assert repro.core.history.ExecutionLog is repro.ExecutionLog"
    )
    assert {"repro.distributed.router", "repro.core.history"} <= added


def test_multi_site_run_loads_the_router_on_first_use():
    added = modules_loaded_by(RUN_50.format(sites=2))
    assert "repro.distributed.router" in added


SIMULATE_50 = (
    "import io, json\n"
    "from repro.cli import main\n"
    "out = io.StringIO()\n"
    "assert main(['simulate', '--completions', '50'{options}], out=out) == 0\n"
    "{check}"
)


def test_centralized_simulate_command_loads_no_multi_site_or_table_modules():
    added = modules_loaded_by(SIMULATE_50.format(
        options="", check="assert out.getvalue().startswith('throughput')"))
    assert "repro.cli" in added
    unused = ("repro.distributed", "repro.analysis.tables", "repro.core.derivation")
    assert sorted(m for m in added if m.startswith(unused)) == []


def test_multi_site_simulate_command_prints_its_router_accounting():
    added = modules_loaded_by(SIMULATE_50.format(
        options=", '--sites', '2', '--json'",
        check="assert json.loads(out.getvalue())['sites']['begins'] >= 50"))
    assert "repro.distributed.router" in added
