"""Tests for the structured observability layer (:mod:`repro.obs`).

Covers the event log core, the sinks, per-fix provenance records, the
report renderer — and the soak-level cross-check that every counted
failure path also produced exactly one event.
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
)
from repro.obs.report import (
    format_summary,
    load_events,
    main as report_main,
    summarize_events,
)


@pytest.fixture(autouse=True)
def clean_obs():
    """Isolate every test from the process-global log."""
    obs.reset()
    yield
    obs.reset()


class TestEvent:
    def _sample(self, **fields):
        return Event(seq=3, t_mono=1.5, wall=1700000000.0, severity="warning",
                     component="estimator", name="cov_fallback",
                     fields=fields)

    def test_as_dict_flattens_fields(self):
        d = self._sample(status="capped", cond=2.5e14).as_dict()
        assert d["event"] == "cov_fallback"
        assert d["severity"] == "warning"
        assert d["status"] == "capped"
        assert d["cond"] == 2.5e14

    def test_to_json_is_one_parseable_line(self):
        line = self._sample(k=1).to_json()
        assert "\n" not in line
        assert json.loads(line)["k"] == 1

    def test_numpy_scalars_become_plain_numbers(self):
        d = self._sample(std=np.float64(25.0), n=np.int64(7)).as_dict()
        assert d["std"] == 25.0 and isinstance(d["std"], float)
        assert d["n"] == 7 and isinstance(d["n"], int)

    def test_unserialisable_degrades_to_repr_not_crash(self):
        line = self._sample(obj=object()).to_json()
        assert "object object" in json.loads(line)["obj"]


class TestEventLog:
    def test_emit_returns_event_and_numbers_monotonically(self):
        log = EventLog()
        log.add_sink(CountingSink())
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
        log = EventLog()
        log.add_sink(CountingSink())
        assert log.emit("e", severity="catastrophic").severity == "info"

    def test_no_event_is_built_without_a_sink(self, monkeypatch):
        from repro.obs import events

        def no_event(*args, **kwargs):
            raise AssertionError("built an Event with no sink attached")

        monkeypatch.setattr(events, "Event", no_event)
        log = EventLog()
        assert log.emit("unheard", k=1) is None
        obs.signal("test.unheard", beacon="b0")
        sink = log.add_sink(CountingSink())
        with pytest.raises(AssertionError):  # a listening sink gets one
            log.emit("heard")
        log.remove_sink(sink)
        assert log.emit("unheard-again") is None

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
        log.emit("still-works")
        assert good.count("survives") == 1 and good.count("still-works") == 1


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


#: An event log in the format written before spans were retired: a fix
#: and a ``span`` record sharing a ``trace`` id, then a shed.
_SPAN_ERA_LOG = "\n".join([
    '{"seq":2,"t_mono":10.5,"wall":1700000000.0,"severity":"info",'
    '"component":"service","event":"service.fixes_accepted",'
    '"trace":"t00000001","n":1,"confidence":0.9,"cov_fallback":true,'
    '"env_restarts":1,"degraded":false}',
    '{"seq":3,"t_mono":10.6,"wall":1700000000.1,"severity":"info",'
    '"component":"service","event":"span","trace":"t00000001",'
    '"span":"session.solve","beacon":"b0","duration_s":0.0012,"depth":0,'
    '"status":"ok"}',
    '{"seq":4,"t_mono":10.7,"wall":1700000000.2,"severity":"warning",'
    '"component":"service","event":"service.shed.rss","n":1}',
]) + "\n"


class TestReport:
    def _write_log(self, path):
        path.write_text(_SPAN_ERA_LOG, encoding="utf-8")

    def test_summarize_counts_spans_and_provenance(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        self._write_log(path)
        records, malformed = load_events(path)
        assert malformed == 0
        summary = summarize_events(records)
        assert summary["n_events"] == 3
        assert summary["by_name"]["service.fixes_accepted"] == 1
        assert summary["by_name"]["span"] == 1
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
        assert "last 2 events" in text

    def test_main_exit_codes(self, tmp_path, capsys):
        assert report_main([str(tmp_path / "missing.jsonl")]) == 2
        assert report_main([]) == 2
        path = tmp_path / "ev.jsonl"
        self._write_log(path)
        assert report_main([str(path), "--tail", "1"]) == 0
        out = capsys.readouterr().out
        assert "repro obs event-log report" in out

    def test_cli_renders_a_span_era_log(self, tmp_path):
        """``python -m repro obs report`` still reads a log with ``span``
        records and ``trace`` keys: it counts them by name."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        path = tmp_path / "ev.jsonl"
        self._write_log(path)
        src = str(Path(repro.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-m", "repro", "obs", "report", str(path)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=120)
        assert out.returncode == 0, out.stderr[-800:]
        section = out.stdout.split("-- events by name --\n", 1)[1]
        counts = dict(line.split() for line in
                      section.split("\n\n", 1)[0].splitlines())
        assert counts == {"service.fixes_accepted": "1", "span": "1",
                          "service.shed.rss": "1"}
        assert "fixes: 1" in out.stdout


class TestSoakEventCrossCheck:
    """Every signal of a soak run was counted exactly as often as evented.

    :func:`repro.obs.signal` writes the perf counter and the event under
    one name, so any path that counts without an event (or the reverse)
    breaks the equality for its name.
    """

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
        assert result.passed
        assert result.events.get("service.fixes_accepted", 0) > 0

    def test_event_volume_matches_perf_counters(self, result):
        with open(result.events_jsonl, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        volume = {}
        for r in records:
            volume[r["event"]] = volume.get(r["event"], 0) + r.get("n", 1)
        assert set(volume) == set(result.events)
        assert "service.solves_attempted" in volume
        for name, n in volume.items():
            assert n == result.perf_counters.get(name, 0), name
        assert result.parity_failures == ()

    def test_jsonl_log_accounts_for_every_event(self, result):
        with open(result.events_jsonl, encoding="utf-8") as fh:
            lines = [line for line in fh if line.strip()]
        assert len(lines) == sum(result.events.values())
        records = [json.loads(line) for line in lines]
        prov = [r for r in records if r["event"] == "service.fixes_accepted"]
        assert len(prov) == result.events["service.fixes_accepted"]
        for r in prov:
            assert r["beacon_id"] == "b0"
            assert "cov_fallback" in r and "confidence" in r


class TestEveryEventIsASignal:
    """No event bypasses :func:`repro.obs.signal`: over a seeded fleet
    replay on the real pipeline, each event name's n-weighted volume is
    exactly its perf counter's growth, with no name exempt."""

    def test_fleet_replay_volume_equals_perf_delta(self):
        from repro.fleet import FleetConfig, TrackingFleet
        from repro.sim.harness import Audit
        from repro.sim.load import LoadConfig, generate_load

        stream = generate_load(LoadConfig(
            duration_s=12.0, n_beacons=3, template_beacons=2, seed=5))
        fleet = TrackingFleet(FleetConfig(n_shards=2))
        with Audit() as audit:
            for t, scans, imu in stream.ticks:
                fleet.ingest_scans(scans)
                fleet.ingest_imu(imu)
                fleet.tick(t)
        assert audit.volume["service.solves_attempted"] > 0
        assert {name: audit.perf_delta.get(name, 0)
                for name in audit.volume} == audit.volume


class TestSwitchesNeverChangeState:
    """``perf.disable()`` / ``obs.disable()`` silence telemetry, not state."""

    @staticmethod
    def _run_session():
        from repro.service import SessionConfig, TrackingSession
        from repro.types import ImuSample, ImuTrace, RssiSample
        from tests.stubs import ScriptedPipeline, step_session

        session = TrackingSession(
            "b0",
            config=SessionConfig(rss_buffer=8, solve_period_s=1.0),
            pipeline_factory=lambda: ScriptedPipeline(
                ("ok", "degenerate", "ok")),
        )
        for k in range(1, 7):
            t = float(k)
            scans = [RssiSample(t - 0.5 + 0.05 * i, -60.0 - i, "b0", 37)
                     for i in range(6)]
            session.ingest(scans + [
                scans[-1],                                   # duplicate
                RssiSample(t - 0.52, -70.0, "b0", 38),       # reordered
                RssiSample(float("nan"), -60.0, "b0", 37),   # rejected
            ])
            imu = ImuTrace([ImuSample(t - 0.4 + 0.1 * i, 0.5, 0.0, 0.0)
                            for i in range(4)])
            step_session(session, t, imu)
        return session

    def test_counters_and_checkpoint_identical_with_switches_off(self):
        from repro import perf

        on = self._run_session()
        perf.disable()
        obs.disable()
        try:
            off = self._run_session()
        finally:
            perf.enable()
            obs.enable()
        for key in ("fixes_accepted", "solves_degenerate", "ingest_duplicate",
                    "ingest_reordered", "ingest_rejected_nonfinite_t"):
            assert on.counters[key] > 0, key
        assert on.rss.shed > 0
        assert off.counters == on.counters
        assert (json.dumps(off.checkpoint(), sort_keys=True)
                == json.dumps(on.checkpoint(), sort_keys=True))

    def test_kernel_counters_move_only_with_perf_on(self, recorded):
        """The LM kernel's plain perf counters (no event, no ledger) count
        iterations, ``max_iter`` calls, seed rows and normal-equation
        rows; switching telemetry off freezes them and leaves every fit
        bit-identical."""
        from repro import perf
        from repro.core.estimator import EllipticalEstimator

        names = ("estimator.lm_iterations", "estimator.lm_max_iter_calls",
                 "estimator.lm_rows", "estimator.lm_normal_rows")
        d = np.linspace(0.0, 4.5, 40)
        p, q = -np.minimum(d, 2.5), -np.clip(d - 2.5, 0.0, 2.0)
        rss = (-59.0 - 22.0 * np.log10(np.hypot(4.0 + p, 3.0 + q))
               + np.random.default_rng(8).normal(0.0, 2.0, 40))
        est = EllipticalEstimator()

        def fit():
            before = [perf.counter_value(n) for n in names]
            res = est.fit(p, q, rss)
            return res, [perf.counter_value(n) - b
                         for n, b in zip(names, before)]

        on, grew_on = fit()
        perf.disable()
        obs.disable()
        try:
            off, grew_off = fit()
        finally:
            perf.enable()
            obs.enable()
        assert grew_on[0] > 0 and 0 <= grew_on[1] <= 1
        assert 0 < grew_on[2] <= grew_on[3]
        assert grew_off == [0, 0, 0, 0]
        assert recorded.named("estimator.lm_iterations") == []
        assert (off.position, off.n, off.gamma) == (on.position, on.n,
                                                    on.gamma)
        assert np.array_equal(off.residuals, on.residuals)
        assert off.warm.to_dict() == on.warm.to_dict()


class TestSignalCatalog:
    """``docs/observability.md`` lists exactly the signals ``src/`` emits."""

    ROOT = __import__("pathlib").Path(__file__).resolve().parents[1]

    @staticmethod
    def _pattern(name):
        import re

        return re.sub(r"<[^<>]*>", "<>", name)

    def _emitted(self):
        import ast

        names = set()
        for path in sorted((self.ROOT / "src" / "repro").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == "obs"):
                    continue
                assert node.func.attr != "emit", (
                    f"{path}:{node.lineno}: obs.emit outside repro.obs")
                if node.func.attr != "signal":
                    continue
                arg = node.args[0]
                if isinstance(arg, ast.Constant):
                    names.add(arg.value)
                else:
                    assert isinstance(arg, ast.JoinedStr), (
                        f"{path}:{node.lineno}: signal name is not a literal")
                    names.add("".join(
                        v.value if isinstance(v, ast.Constant) else "<>"
                        for v in arg.values))
        return names

    def _catalog(self):
        import re

        text = (self.ROOT / "docs" / "observability.md").read_text("utf-8")
        section = text.split("## Signal catalog", 1)[1].split("\n## ", 1)[0]
        return {self._pattern(m) for m in
                re.findall(r"^\| `([^`]+)` \|", section, flags=re.M)}

    def test_catalog_rows_are_the_emitted_names(self):
        emitted = self._emitted()
        assert "service.fixes_accepted" in emitted
        assert "service.transitions.<>-><>" in emitted
        assert self._catalog() == emitted
