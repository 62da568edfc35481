"""Tests for the per-iteration phase chain (its span attrs and its
equivalence to a plain phase loop), the graph-partition policy's
contiguous min-cut and audit record, and fault-plan determinism of the
two graph-driven policies."""

from __future__ import annotations

import pickle

import pytest

from repro.apps.cmeans import CMeansApp
from repro.apps.gmm import GMMApp
from repro.data.synth import gaussian_mixture
from repro.runtime.dag import TaskGraph
from repro.runtime.job import JobConfig
from repro.runtime.phases import ITERATION_PHASES
from repro.runtime.policies.graph_partition import contiguous_min_cut
from repro.runtime.prs import PRSRuntime

from tests.helpers import CountdownApp


class _RecordingPhase:
    """Stands in for a phase: keeps the attrs the chain hands it."""

    def __init__(self, name, seen):
        self.name = name
        self._seen = seen

    def run(self, ctx, attrs):
        self._seen.append(attrs)
        yield from ()


class TestGraphValidation:
    def test_linear_builds_a_chain_with_edge_bytes(self):
        seen = []
        names = [cls.name for cls in ITERATION_PHASES]
        g = TaskGraph(
            [_RecordingPhase(n, seen) for n in names],
            edge_bytes={("map", "combine"): 64.0},
        )
        assert [p.name for p in g.phases] == names
        assert list(g.run(ctx=None)) == []
        assert [a["dag_node"] for a in seen] == names
        assert "dag_edge" not in seen[0]
        assert [a["dag_edge"] for a in seen[1:]] == [
            f"{a}->{b}" for a, b in zip(names, names[1:])
        ]
        by_node = {a["dag_node"]: a for a in seen}
        assert by_node["combine"]["dag_edge_bytes"] == 64.0
        assert "dag_edge_bytes" not in by_node["map"]


class TestContiguousMinCut:
    def test_balanced_split_no_slide_needed(self):
        ranges, cut = contiguous_min_cut(
            [1.0] * 4, [5.0, 1.0, 5.0], [0.5, 0.5], slack=0
        )
        assert ranges == [(0, 2), (2, 4)]
        assert cut == 1.0

    def test_boundary_slides_to_cheaper_edge(self):
        # Nominal boundary at 2 costs 9; sliding one block right costs 1.
        ranges, cut = contiguous_min_cut(
            [1.0] * 4, [5.0, 9.0, 1.0], [0.5, 0.5], slack=1
        )
        assert ranges == [(0, 3), (3, 4)]
        assert cut == 1.0

    def test_single_device_has_no_cut(self):
        ranges, cut = contiguous_min_cut([1.0, 2.0], [7.0], [1.0])
        assert ranges == [(0, 2)]
        assert cut == 0.0

    def test_edge_count_must_match(self):
        with pytest.raises(ValueError, match="needs 1 edge"):
            contiguous_min_cut([1.0, 1.0], [1.0, 1.0], [0.5, 0.5])


def run_job(app_factory, delta4, **config_kwargs):
    return PRSRuntime(delta4, JobConfig(**config_kwargs)).run(app_factory())


def cmeans_app():
    pts, _, _ = gaussian_mixture(600, 8, 3, seed=11)
    return CMeansApp(pts, 3, seed=11, max_iterations=4)


def gmm_app():
    pts, _, _ = gaussian_mixture(600, 8, 3, seed=11)
    return GMMApp(pts, 3, seed=11, max_iterations=4)


class _LegacyPipeline:
    """A plain loop over the phases, bypassing ``TaskGraph.run``."""

    def run(self, ctx):
        for phase_cls in ITERATION_PHASES:
            yield from phase_cls().run(ctx)


class TestLinearEquivalence:
    """The phase chain reproduces a plain phase loop bit for bit."""

    @pytest.mark.parametrize("app_factory", [cmeans_app, gmm_app])
    def test_outputs_and_spans_match_legacy_pipeline(
        self, app_factory, delta4, monkeypatch
    ):
        dag_result = run_job(app_factory, delta4)
        monkeypatch.setattr(
            "repro.runtime.prs.iteration_graph", lambda ctx: _LegacyPipeline()
        )
        legacy_result = run_job(app_factory, delta4)
        assert pickle.dumps(dag_result.output) == pickle.dumps(
            legacy_result.output
        )
        assert dag_result.makespan == legacy_result.makespan
        assert [
            (s.name, s.attrs["rank"], s.attrs["iteration"], s.start, s.end)
            for s in dag_result.trace.phase_spans
        ] == [
            (s.name, s.attrs["rank"], s.attrs["iteration"], s.start, s.end)
            for s in legacy_result.trace.phase_spans
        ]

    def test_dag_attrs_present_on_phase_spans(self, delta4):
        # CountdownApp on four ranks: 500 four-byte items (2,000 input
        # bytes) and 2,048 map-output bytes per rank.
        result = run_job(lambda: CountdownApp(n=2000), delta4)
        links = {
            "map": ("broadcast", 2000.0),
            "combine": ("map", 2048.0),
            "shuffle": ("combine", 2048.0),
            "reduce": ("shuffle", 2048.0),
            "gather": ("reduce", None),
            "convergence": ("gather", None),
        }
        spans = [
            s
            for s in result.trace.tracer.find(category="phase")
            if s.attrs.get("iteration") == 0
        ]
        assert sorted(s.name for s in spans) == sorted(
            cls.name for cls in ITERATION_PHASES for _ in range(4)
        )
        for span in spans:
            expected = {"dag_node": span.name}
            if span.name in links:
                prev, nbytes = links[span.name]
                expected["dag_deps"] = prev
                expected["dag_edge"] = f"{prev}->{span.name}"
                if nbytes is not None:
                    expected["dag_edge_bytes"] = nbytes
            dag = {k: v for k, v in span.attrs.items() if k.startswith("dag_")}
            assert dag == expected
            # dag_* first, in chain order, then the trace's own keys
            assert list(span.attrs)[: len(expected) + 2] == [
                *expected, "rank", "iteration",
            ]


class TestGraphPartitionAudit:
    def test_cut_record_inputs_and_outputs(self, delta4):
        result = run_job(gmm_app, delta4, scheduling="graph-partition")
        cuts = [
            d for d in result.trace.audit.records
            if d.kind == "graph-partition-cut"
        ]
        assert len(cuts) == 8
        first = cuts[0]
        assert (first.node, first.iteration) == ("delta00", -1)
        assert repr(first.inputs) == repr({
            "blocks": 50,
            "graph_edges": 49,
            "total_edge_bytes": 2336.0,
            "shares": [0.11206896551724138, 0.8879310344827587],
            "partition_items": 75,
        })
        assert repr(first.outputs) == repr({
            "cut_bytes": 64.0,
            "ranges": {"delta00.cpu": [0, 4], "delta00.gpu0": [4, 50]},
        })


class TestGraphPolicyFaultDeterminism:
    """The new policies keep faulted runs bitwise identical to fault-free
    runs, and fault plans are deterministic across repeats."""

    @pytest.mark.parametrize("policy", ["affinity", "graph-partition"])
    def test_faulted_output_matches_fault_free(self, policy, delta4):
        clean = run_job(gmm_app, delta4, scheduling=policy)
        faulted = run_job(
            gmm_app, delta4, scheduling=policy, faults="gpu_kill@1:t=0.02"
        )
        assert faulted.recovery is not None
        assert faulted.recovery.faults_injected == 1
        assert pickle.dumps(clean.output) == pickle.dumps(faulted.output)

    @pytest.mark.parametrize("policy", ["affinity", "graph-partition"])
    def test_fault_plan_is_deterministic(self, policy, delta4):
        kwargs = dict(
            scheduling=policy, faults="cpu_hiccup@0:t=0.01", fault_seed=3
        )
        first = run_job(gmm_app, delta4, **kwargs)
        second = run_job(gmm_app, delta4, **kwargs)
        assert pickle.dumps(first.output) == pickle.dumps(second.output)
        assert first.makespan == second.makespan
        assert first.trace.phase_spans == second.trace.phase_spans

    @pytest.mark.parametrize("policy", ["affinity", "graph-partition"])
    def test_decisions_are_audited(self, policy, delta4):
        result = run_job(gmm_app, delta4, scheduling=policy)
        kinds = {d.kind for d in result.trace.audit.records}
        expected = (
            "affinity-place" if policy == "affinity" else "graph-partition-cut"
        )
        assert expected in kinds
