"""Coverage for the smaller infrastructure: calibration, units,
scheduler corners, budget-policy downloads."""

import pytest

from repro.ash.examples import build_remote_increment
from repro.ash.handler import AshBuilder
from repro.bench.testbed import CLIENT_TO_SERVER_VCI, make_an2_pair
from repro.errors import CalibrationError, SandboxViolation
from repro.hw.calibration import Calibration
from repro.hw.link import Frame
from repro.sandbox import BudgetPolicy, SandboxPolicy
from repro.sim.units import CYCLE_PS, cycles, to_us, us


class TestUnits:
    def test_cycle_is_25ns_at_40mhz(self):
        assert CYCLE_PS == 25_000
        assert cycles(40) == us(1.0)

    def test_roundtrips(self):
        assert to_us(us(123.5)) == pytest.approx(123.5)


class TestCalibrationValidation:
    def test_rejects_nonpositive_cpu(self):
        with pytest.raises(CalibrationError):
            Calibration(cpu_mhz=0)

    def test_rejects_misaligned_cache(self):
        with pytest.raises(CalibrationError):
            Calibration(cache_size=1000, cache_line=16)

    def test_rejects_zero_rate(self):
        with pytest.raises(CalibrationError):
            Calibration(an2_rate_bytes_per_s=0)

    def test_rejects_zero_budget(self):
        with pytest.raises(CalibrationError):
            Calibration(ash_budget_ticks=0)

    def test_with_changes_makes_copy(self):
        base = Calibration()
        tweaked = base.with_changes(cpu_mhz=80.0)
        assert tweaked.cpu_mhz == 80.0
        assert base.cpu_mhz == 40.0

    def test_us_cycles_conversion(self):
        cal = Calibration()
        assert cal.us_to_cycles(2.5) == 100


class TestBudgetPolicyDownloads:
    def test_static_estimate_accepted_for_loop_free(self):
        tb = make_an2_pair()
        policy = SandboxPolicy(budget=BudgetPolicy.STATIC_ESTIMATE)
        ash_id = tb.server_kernel.ash_system.download(
            build_remote_increment(), [], policy=policy
        )
        entry = tb.server_kernel.ash_system.entry(ash_id)
        assert entry.static_bound is not None
        assert entry.budget is BudgetPolicy.STATIC_ESTIMATE

    def test_static_estimate_rejects_loops(self):
        tb = make_an2_pair()
        b = AshBuilder("loopy")
        loop = b.label()
        b.mark(loop)
        b.v_j(loop)
        policy = SandboxPolicy(budget=BudgetPolicy.STATIC_ESTIMATE)
        with pytest.raises(SandboxViolation, match="loop-free"):
            tb.server_kernel.ash_system.download(b.finish(), [],
                                                 policy=policy)

    def test_static_estimate_skips_timer_charges(self):
        """A statically-bounded handler avoids the 2 µs of timer
        management per invocation."""
        results = {}
        for name, policy in (
            ("timer", None),
            ("static", SandboxPolicy(budget=BudgetPolicy.STATIC_ESTIMATE)),
        ):
            tb = make_an2_pair()
            ep = tb.server_kernel.create_endpoint_an2(
                tb.server_nic, CLIENT_TO_SERVER_VCI
            )
            b = AshBuilder("nopper")
            b.v_consume()
            ash_id = tb.server_kernel.ash_system.download(
                b.finish(), [], policy=policy
            )
            tb.server_kernel.ash_system.bind(ep, ash_id)
            tb.client_nic.transmit(Frame(b"x", vci=CLIENT_TO_SERVER_VCI))
            tb.run()
            results[name] = tb.server.cpu.cycles_charged
        cal = Calibration()
        saved = results["timer"] - results["static"]
        expected = cal.us_to_cycles(
            cal.ash_timer_setup_us + cal.ash_timer_clear_us
        )
        assert saved == expected


class TestSchedulerCorners:
    def test_ultrix_costs_increase_wake_latency(self):
        from repro.bench.workloads import remote_increment

        boost = remote_increment(mode="user", suspended=True, nprocs=3,
                                 scheduler="boost", iters=5, warmup=1)
        ultrix = remote_increment(mode="user", suspended=True, nprocs=3,
                                  scheduler="ultrix", iters=5, warmup=1)
        assert ultrix.rt_us > boost.rt_us + 50.0

    def test_exiting_process_leaves_scheduler_clean(self):
        tb = make_an2_pair()
        done = []

        def body(proc):
            yield from proc.compute_us(10.0)
            done.append(proc.name)

        for i in range(3):
            tb.server_kernel.spawn_process(f"p{i}", body)
        tb.run()
        assert sorted(done) == ["p0", "p1", "p2"]
        assert tb.server_kernel.scheduler.nprocs == 0
