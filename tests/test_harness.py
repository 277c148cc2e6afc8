"""The shared harness core and each harness's typed-error contract."""

import math

import pytest

from repro import obs, perf
from repro.errors import DataQualityError, EstimationError, ReproError
from repro.digests import digest_mismatches
from repro.sim.harness import Audit, ErrorLedger, slice_ticks
from repro.types import ImuSample, RssiSample


class TestDigestMismatches:
    def test_equal_streams_have_no_mismatch(self):
        assert digest_mismatches(["a", "b"], ["a", "b"], [1.0, 2.0]) == []

    def test_every_differing_tick_is_reported_with_its_time(self):
        out = digest_mismatches(["a", "b", "c"], ["a", "x", "y"],
                                [1.0, 2.0, 3.0], first_index=5)
        assert out == [(6, 2.0, "b", "x"), (7, 3.0, "c", "y")]

    def test_a_tick_missing_from_either_side_is_a_mismatch(self):
        assert digest_mismatches(["a", "b"], ["a"], [1.0, 2.0]) == [
            (1, 2.0, "b", "<missing>")]
        (index, t, want, got), = digest_mismatches(["a"], ["a", "b"], [1.0])
        assert (index, want, got) == (1, "<missing>", "b")
        assert math.isnan(t)


class TestSliceTicks:
    def test_each_sample_lands_in_the_tick_that_closes_after_it(self):
        scans = [RssiSample(t, -60.0, "b", 37) for t in (0.1, 0.9, 1.0, 2.5)]
        imu = [ImuSample(t, 9.8, 0.0, 0.0) for t in (0.5, 1.5, 3.5)]
        ticks = slice_ticks(scans, imu, duration_s=3.0, tick_s=1.0)
        assert [t for t, _, _ in ticks] == [1.0, 2.0, 3.0]
        assert [[s.timestamp for s in b] for _, b, _ in ticks] == [
            [0.1, 0.9], [1.0], [2.5]]
        assert [[s.timestamp for s in b] for _, _, b in ticks] == [
            [0.5], [1.5], []]  # 3.5 is past the last tick
        assert all(isinstance(b, tuple) for _, b, _ in ticks)

    def test_partial_last_tick_is_kept(self):
        ticks = slice_ticks([], [], duration_s=2.5, tick_s=1.0)
        assert [t for t, _, _ in ticks] == [1.0, 2.0, 3.0]


class TestErrorLedger:
    def test_contract_decides_what_is_typed(self):
        ledger = ErrorLedger(typed=(DataQualityError,))
        ledger.record(DataQualityError("bad frame"))
        ledger.record(EstimationError("outside the contract"))
        ledger.fail("task leaked")
        assert ledger.errors == ["DataQualityError: bad frame",
                                 "EstimationError: outside the contract",
                                 "task leaked"]
        assert ledger.untyped == 2

    def test_capture_books_the_exception_and_goes_on(self):
        ledger = ErrorLedger()
        with ledger.capture():
            raise KeyError("boom")
        with ledger.capture():
            pass
        assert ledger.errors == ["KeyError: 'boom'"] and ledger.untyped == 1

    def test_default_contract_is_repro_error(self):
        ledger = ErrorLedger()
        ledger.record(EstimationError("typed"))
        assert ledger.typed == (ReproError,) and ledger.untyped == 0


class TestAudit:
    def test_counts_signals_and_detaches_its_sinks(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        n_sinks = len(obs.log.sinks())
        with Audit(events_jsonl=str(path)) as audit:
            obs.signal("harness.test_signal", 3)
            obs.signal("harness.test_signal")
        assert len(obs.log.sinks()) == n_sinks
        assert audit.events["harness.test_signal"] == 2
        assert audit.volume["harness.test_signal"] == 4
        assert audit.perf_delta["harness.test_signal"] == 4
        assert audit.parity_failures == []
        assert path.read_text().count("harness.test_signal") == 2

    def test_counter_without_event_fails_parity(self):
        with Audit() as audit:
            obs.signal("harness.test_unpaired")
            perf.count("harness.test_unpaired")
        assert audit.parity_failures == [
            "harness.test_unpaired: events 1 != counter 2"]


#: Named like a ReproError but not one: typed means ``isinstance``.
Lookalike = type("EstimationError", (RuntimeError,), {})


def _chaos(monkeypatch, exc):
    from repro.durability import ChaosConfig, run_chaos
    from repro.gateway import IngestionGateway

    def boom(self, t):
        raise exc

    monkeypatch.setattr(IngestionGateway, "tick", boom)
    return run_chaos(ChaosConfig(ticks=12, n_beacons=2, kills=0,
                                 shard_crashes=0, durability="flush"))


def _gateway_soak(monkeypatch, exc):
    from repro.gateway import GatewaySoakConfig, SimulatedClient, \
        run_gateway_soak
    from repro.sim.load import LoadConfig

    async def boom(self, schedule):
        raise exc

    monkeypatch.setattr(SimulatedClient, "run_schedule", boom)
    return run_gateway_soak(GatewaySoakConfig(
        load=LoadConfig(duration_s=3.0, n_beacons=2, template_beacons=1,
                        rate_hz=3.0),
        n_clients=1))


@pytest.mark.parametrize("run, exc, untyped", [
    # Chaos takes ReproError as typed, but any error fails the run.
    (_chaos, Lookalike("not a repro error"), True),
    (_chaos, EstimationError("typed but fatal"), False),
    # The gateway edge may surface only DataQualityError and
    # ConfigurationError; any other ReproError is a leak.
    (_gateway_soak, EstimationError("outside the edge contract"), True),
    (_gateway_soak, DataQualityError("inside the edge contract"), False),
], ids=["chaos-lookalike", "chaos-typed", "gateway-estimation",
        "gateway-dataquality"])
def test_error_contract(monkeypatch, run, exc, untyped):
    result = run(monkeypatch, exc)
    message = f"{type(exc).__name__}: {exc}"
    assert result.errors and set(result.errors) == {message}
    assert result.untyped_errors == (len(result.errors) if untyped else 0)
    if run is _chaos:
        assert not result.passed  # every error fails chaos
    else:
        assert result.passed is not untyped
