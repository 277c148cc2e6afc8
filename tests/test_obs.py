"""Tests for the structured observability layer (:mod:`repro.obs`).

Covers the event log core, the three sinks, nesting spans, per-fix
provenance records, the report renderer — and the soak-level cross-check
that every counted failure path also produced exactly one event.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.obs import (
    CountingSink,
    Event,
    EventLog,
    FixProvenance,
    JsonLinesSink,
    RingBufferSink,
)
from repro.obs.report import (
    format_summary,
    load_events,
    main as report_main,
    summarize_events,
)
from repro.obs.spans import span_context
from repro.perf import PerfRegistry


@pytest.fixture(autouse=True)
def clean_obs():
    """Isolate every test from the process-global log and ring."""
    obs.reset()
    yield
    obs.reset()


class TestEvent:
    def _event(self, **fields):
        return Event(seq=3, t_mono=1.5, wall=1700000000.0, severity="warning",
                     component="estimator", name="cov_fallback",
                     trace="t00000001", fields=fields)

    def test_as_dict_flattens_fields(self):
        d = self._event(status="capped", cond=2.5e14).as_dict()
        assert d["event"] == "cov_fallback"
        assert d["severity"] == "warning"
        assert d["trace"] == "t00000001"
        assert d["status"] == "capped"
        assert d["cond"] == 2.5e14

    def test_to_json_is_one_parseable_line(self):
        line = self._event(k=1).to_json()
        assert "\n" not in line
        assert json.loads(line)["k"] == 1

    def test_numpy_scalars_become_plain_numbers(self):
        d = self._event(std=np.float64(25.0), n=np.int64(7)).as_dict()
        assert d["std"] == 25.0 and isinstance(d["std"], float)
        assert d["n"] == 7 and isinstance(d["n"], int)

    def test_unserialisable_degrades_to_repr_not_crash(self):
        line = self._event(obj=object()).to_json()
        assert "object object" in json.loads(line)["obj"]


class TestEventLog:
    def test_emit_returns_event_and_numbers_monotonically(self):
        log = EventLog()
        a = log.emit("first")
        b = log.emit("second")
        assert a.name == "first" and b.seq > a.seq

    def test_disabled_log_emits_nothing(self):
        log = EventLog()
        sink = log.add_sink(CountingSink())
        log.disable()
        assert log.emit("quiet") is None
        log.enable()
        log.emit("loud")
        assert sink.by_name == {"loud": 1}

    def test_unknown_severity_coerced_to_info(self):
        assert EventLog().emit("e", severity="catastrophic").severity == "info"

    def test_raising_sink_is_detached_not_fatal(self):
        class Broken:
            def write(self, event):
                raise IOError("disk gone")

        log = EventLog()
        broken = log.add_sink(Broken())
        good = log.add_sink(CountingSink())
        event = log.emit("survives")
        assert event is not None
        assert broken not in log.sinks()
        assert log.dropped_sinks == 1
        log.emit("still-works")
        assert good.count("survives") == 1 and good.count("still-works") == 1

    def test_trace_ids_are_unique(self):
        log = EventLog()
        ids = {log.next_trace_id() for _ in range(50)}
        assert len(ids) == 50


class TestRingBufferSink:
    def test_bounded_eviction_keeps_newest(self):
        log = EventLog()
        ring = log.add_sink(RingBufferSink(capacity=3))
        for i in range(5):
            log.emit(f"e{i}")
        assert [e.name for e in ring.tail()] == ["e2", "e3", "e4"]
        assert ring.total == 5

    def test_drain_empties_the_ring(self):
        log = EventLog()
        ring = log.add_sink(RingBufferSink())
        log.emit("a")
        log.emit("a")
        assert ring.counts() == {"a": 2}
        assert [e.name for e in ring.drain()] == ["a", "a"]
        assert len(ring) == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)


class TestJsonLinesSink:
    def test_writes_parseable_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog()
        with JsonLinesSink(path) as sink:
            log.add_sink(sink)
            log.emit("a", component="x", k=1)
            log.emit("b", component="x", k=2)
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert [r["event"] for r in records] == ["a", "b"]
        assert sink.written == 2

    def test_close_is_idempotent_and_no_events_means_no_file(self, tmp_path):
        sink = JsonLinesSink(tmp_path / "never.jsonl")
        sink.close()
        sink.close()
        assert not (tmp_path / "never.jsonl").exists()


class TestSpans:
    def test_events_inside_span_inherit_its_trace(self):
        with obs.span("outer", component="test"):
            inner = obs.emit("leaf")
        closing = obs.tail()[-1]
        assert closing.name == "span"
        assert inner.trace == closing.trace is not None

    def test_nested_spans_share_trace_and_report_depth(self):
        with obs.span("outer") as sp_out:
            with obs.span("inner") as sp_in:
                assert sp_in.trace_id == sp_out.trace_id
        inner_ev, outer_ev = obs.tail()[-2:]
        assert inner_ev.fields["span"] == "inner"
        assert inner_ev.fields["depth"] == 1
        assert outer_ev.fields["depth"] == 0

    def test_duration_recorded_into_perf_registry(self):
        registry = PerfRegistry()
        log = EventLog()
        with span_context(log, "timed.op", perf_registry=registry):
            pass
        assert registry.snapshot()["timers"]["timed.op"]["count"] == 1

    def test_annotate_lands_on_closing_event(self):
        with obs.span("solve") as sp:
            sp.annotate(confidence=0.93)
        assert obs.tail()[-1].fields["confidence"] == 0.93

    def test_exception_propagates_and_span_reports_error(self):
        with pytest.raises(ValueError):
            with obs.span("doomed"):
                raise ValueError("boom")
        closing = obs.tail()[-1]
        assert closing.severity == "warning"
        assert closing.fields["status"] == "error"
        assert closing.fields["error"] == "ValueError"


class TestFixProvenance:
    def test_defaults_are_the_empty_solve(self):
        prov = FixProvenance()
        assert prov.solver == "none" and not prov.cov_fallback

    @pytest.mark.parametrize("status,expected", [
        ("ok", False), ("none", False),
        ("capped", True), ("rank-deficient", True), ("error", True),
    ])
    def test_cov_fallback_property(self, status, expected):
        assert FixProvenance(cov_status=status).cov_fallback is expected

    def test_with_stream_enriches_without_mutating(self):
        base = FixProvenance(solver="gauss-newton", confidence=0.9)
        full = base.with_stream(beacon_id="b0", stream_t=12.0, buffered=40,
                                shed=2, degraded=False)
        assert base.beacon_id is None
        assert full.beacon_id == "b0" and full.solver == "gauss-newton"

    def test_to_fields_omits_nones_and_is_json_safe(self):
        fields = FixProvenance(cov_status="capped").to_fields()
        assert "cov_cond" not in fields and "beacon_id" not in fields
        assert fields["cov_fallback"] is True
        json.dumps(fields)


class TestReport:
    def _write_log(self, path):
        log = EventLog()
        with JsonLinesSink(path) as sink:
            log.add_sink(sink)
            with span_context(log, "session.solve",
                             perf_registry=PerfRegistry()):
                log.emit("fix.provenance", component="service",
                         confidence=0.9, cov_fallback=True, env_restarts=1,
                         degraded=False)
            log.emit("buffer.shed", severity="warning", component="service")

    def test_summarize_counts_spans_and_provenance(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        self._write_log(path)
        records, malformed = load_events(path)
        assert malformed == 0
        summary = summarize_events(records)
        assert summary["n_events"] == 3
        assert summary["by_name"]["fix.provenance"] == 1
        assert summary["spans"]["session.solve"]["count"] == 1
        assert summary["provenance"]["fixes"] == 1
        assert summary["provenance"]["cov_fallbacks"] == 1
        assert summary["provenance"]["env_restarts"] == 1

    def test_malformed_lines_counted_never_fatal(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        self._write_log(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{truncated by a cra\n")
            fh.write("[1, 2, 3]\n")
        records, malformed = load_events(path)
        assert len(records) == 3 and malformed == 2

    def test_format_summary_renders_all_sections(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        self._write_log(path)
        records, malformed = load_events(path)
        text = format_summary(summarize_events(records), tail=records[-2:],
                              malformed=malformed)
        assert "events by name" in text
        assert "fix provenance" in text
        assert "spans" in text
        assert "last 2 events" in text

    def test_main_exit_codes(self, tmp_path, capsys):
        assert report_main([str(tmp_path / "missing.jsonl")]) == 2
        assert report_main([]) == 2
        path = tmp_path / "ev.jsonl"
        self._write_log(path)
        assert report_main([str(path), "--tail", "1"]) == 0
        out = capsys.readouterr().out
        assert "repro obs event-log report" in out


class TestSoakEventCrossCheck:
    """Every counted failure path must have produced exactly one event.

    The equality below is the tentpole's acceptance invariant: obs events
    and :mod:`repro.perf` counters are incremented at the same call sites,
    so any silent path (count without event, or event without count) breaks
    it.
    """

    #: (event name, perf counter name) pairs emitted at identical sites.
    PAIRS = [
        ("fix.provenance", "service.fixes_accepted"),
        ("estimator.cov_fallback", "estimator.cov_fallbacks"),
        ("pipeline.fallback", "pipeline.fallbacks"),
        ("session.solve_skipped", "service.solves_skipped_nodata"),
        ("session.solve_degenerate", "service.solves_degenerate"),
        ("solver.warm_rejected", "estimator.warm_rejected"),
        ("solver.warm_unusable", "estimator.warm_unusable"),
    ]

    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        from repro.sim.faults import FaultModel
        from repro.sim.soak import SoakConfig, run_soak

        path = tmp_path_factory.mktemp("soak") / "events.jsonl"
        return run_soak(SoakConfig(
            duration_s=30.0,
            seed=7,
            fault=FaultModel(loss_rate=0.1),
            events_jsonl=str(path),
        ))

    def test_runs_clean(self, result):
        assert result.untyped_errors == 0
        assert result.events.get("fix.provenance", 0) > 0

    def test_event_volume_matches_perf_counters(self, result):
        for event_name, counter_name in self.PAIRS:
            assert (result.events.get(event_name, 0)
                    == result.perf_counters.get(counter_name, 0)), (
                f"{event_name} events != {counter_name} counter")

    def test_jsonl_log_accounts_for_every_event(self, result):
        with open(result.events_jsonl, encoding="utf-8") as fh:
            lines = [line for line in fh if line.strip()]
        assert len(lines) == sum(result.events.values())
        records = [json.loads(line) for line in lines]
        prov = [r for r in records if r["event"] == "fix.provenance"]
        assert len(prov) == result.events["fix.provenance"]
        for r in prov:
            assert r["beacon_id"] == "b0"
            assert "cov_fallback" in r and "confidence" in r
