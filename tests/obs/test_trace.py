"""Evaluation tracer: ring buffer, sinks, scoping, engine span hooks."""

import json
import threading

from repro.core.modular import perfect_model_for_hilog
from repro.core.semantics import well_founded_for_hilog
from repro.db import DatabaseSession
from repro.engine.seminaive import seminaive_well_founded
from repro.hilog.parser import parse_program
from repro.obs.trace import (
    EvaluationTracer,
    current_tracer,
    set_global_tracer,
    tracing,
)
from repro.workloads.games import normal_game_program
from repro.workloads.graphs import chain_edges

TC = """
    e(a, b). e(b, c). e(c, d).
    tc(X, Y) :- e(X, Y).
    tc(X, Y) :- e(X, Z), tc(Z, Y).
"""

GAME = """
    winning(X) :- move(X, Y), not winning(Y).
    move(a, b). move(b, a).
"""


class TestTracerCore:
    def test_emit_stamps_kind_seq_ts(self):
        tracer = EvaluationTracer()
        first = tracer.emit("stratum", added=3)
        second = tracer.emit("stratum", added=4)
        assert first["kind"] == "stratum" and first["added"] == 3
        assert (first["seq"], second["seq"]) == (0, 1)
        assert first["ts"] <= second["ts"]

    def test_ring_buffer_bounds_memory(self):
        tracer = EvaluationTracer(capacity=8)
        for i in range(100):
            tracer.emit("iteration", i=i)
        events = tracer.events()
        assert len(events) == 8
        assert [e["i"] for e in events] == list(range(92, 100))

    def test_events_filter_by_kind(self):
        tracer = EvaluationTracer()
        tracer.emit("stratum")
        tracer.emit("iteration")
        tracer.emit("stratum")
        assert len(tracer.events("stratum")) == 2
        assert len(tracer.events()) == 3

    def test_span_measures_duration_and_mutates(self):
        tracer = EvaluationTracer()
        with tracer.span("maintenance", mode="incremental") as fields:
            fields["added"] = 7
        (event,) = tracer.events("maintenance")
        assert event["mode"] == "incremental" and event["added"] == 7
        assert event["duration_s"] >= 0

    def test_clear(self):
        tracer = EvaluationTracer()
        tracer.emit("stratum")
        tracer.clear()
        assert len(tracer) == 0


class TestSink:
    def test_jsonl_sink_path(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = EvaluationTracer(sink=path)
        tracer.emit("stratum", added=1)
        tracer.emit("iteration", delta=2)
        tracer.close()
        lines = [json.loads(line)
                 for line in open(path, encoding="utf-8")]
        assert [line["kind"] for line in lines] == ["stratum", "iteration"]

    def test_dead_sink_degrades_to_ring(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        handle = open(path, "a", encoding="utf-8")
        tracer = EvaluationTracer(sink=handle)
        handle.close()  # sink dies under the tracer
        tracer.emit("stratum")
        tracer.emit("stratum")
        assert len(tracer) == 2  # ring keeps working, no exception

    def test_close_is_idempotent(self, tmp_path):
        tracer = EvaluationTracer(sink=str(tmp_path / "t.jsonl"))
        tracer.close()
        tracer.close()


class TestScoping:
    def test_default_is_none(self):
        assert current_tracer() is None

    def test_contextvar_scope(self):
        tracer = EvaluationTracer()
        with tracing(tracer):
            assert current_tracer() is tracer
        assert current_tracer() is None

    def test_global_reaches_background_threads(self):
        tracer = EvaluationTracer()
        previous = set_global_tracer(tracer)
        seen = []
        try:
            thread = threading.Thread(
                target=lambda: seen.append(current_tracer()))
            thread.start()
            thread.join()
        finally:
            set_global_tracer(previous)
        assert seen == [tracer]

    def test_contextvar_shadows_global(self):
        inner, outer = EvaluationTracer(), EvaluationTracer()
        previous = set_global_tracer(outer)
        try:
            with tracing(inner):
                assert current_tracer() is inner
            assert current_tracer() is outer
        finally:
            set_global_tracer(previous)


class TestEngineSpans:
    def test_seminaive_evaluation_emits_spans(self):
        program = parse_program(TC)
        tracer = EvaluationTracer()
        with tracing(tracer):
            perfect_model_for_hilog(program, strategy="seminaive")
        kinds = {event["kind"] for event in tracer.events()}
        assert {"iteration", "stratum", "evaluate"} <= kinds
        (evaluate,) = tracer.events("evaluate")
        assert evaluate["facts"] > 0 and evaluate["duration_s"] >= 0
        stratum = tracer.events("stratum")[-1]
        assert stratum["iterations"] >= 1
        assert stratum["candidates"] >= stratum["added"]

    def test_wellfounded_emits_alternation_spans(self):
        program = parse_program(GAME)
        tracer = EvaluationTracer()
        with tracing(tracer):
            well_founded_for_hilog(program, strategy="seminaive")
        kinds = {event["kind"] for event in tracer.events()}
        assert {"alternation", "evaluate"} <= kinds
        (summary,) = tracer.events("evaluate")
        assert summary["undefined"] == 2
        assert summary["alternations"] >= 1

    def test_alternation_spans_count_what_the_overestimate_lost(self):
        def alternations(edges):
            tracer = EvaluationTracer()
            with tracing(tracer):
                result = seminaive_well_founded(normal_game_program(edges))
            events = tracer.events("alternation")
            assert len(events) == result.alternations
            first = events[0]
            assert (first["overdeleted"], first["rederived"], first["removed"]) \
                == (0, 0, 0)
            for event in events:
                assert event["overdeleted"] == event["rederived"] + event["removed"]
            assert [event["grew"] for event in events] == \
                [True] * (len(events) - 1) + [False]
            return events

        # A path: every position has one move, so what is over-deleted has
        # no other derivation to come back by — ten positions start out
        # possibly winning, the five that lose are removed one a round.
        path = alternations(chain_edges(10))
        assert len(path) == 6
        assert sum(event["rederived"] for event in path) == 0
        assert [event["removed"] for event in path] == [0, 1, 1, 1, 1, 1]
        # Alternative moves: a's move to b dies, its move into the cycle
        # keeps it in the overestimate.
        forked = alternations(
            [("a", "b"), ("b", "c"), ("a", "e"), ("e", "f"), ("f", "e")]
        )
        assert sum(event["rederived"] for event in forked) > 0

    def test_untraced_evaluation_emits_nothing(self):
        tracer = EvaluationTracer()
        perfect_model_for_hilog(parse_program(TC), strategy="seminaive")
        assert len(tracer) == 0

    def test_session_updates_emit_maintenance_spans(self):
        session = DatabaseSession(TC)
        tracer = EvaluationTracer()
        with tracing(tracer):
            session.insert("e(d, f).")
            session.retract("e(d, f).")
        maintenance = tracer.events("maintenance")
        assert len(maintenance) == 2
        assert maintenance[0]["inserted"] == 1
        assert maintenance[0]["mode"] == session.mode
        assert maintenance[1]["retracted"] == 1
        assert all(event["duration_s"] >= 0 for event in maintenance)
