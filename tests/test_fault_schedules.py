"""A fault schedule is data, and every rate-driven seam fires through
one trigger.

**Schedules.**  Every schedule the repo declares — the tenant-abuse
table, ``bench_crash.cells``, ``sweep_driver.grid_cells``, README's two
examples — is a list of ``{"site", "target", **knobs}`` with targets by
name, so it survives ``json.dumps`` / ``loads`` and the reloaded list
installs the same injectors.  The two rows that carry a handler builder
(``NOT_PLAIN_DATA``) are the named exception.

**The trigger.**  ``_Injector._trigger`` replaced five hand-written
copies of gate -> cap -> ``every`` / ``rate`` draw -> count -> ledger.
The five bodies survive here, verbatim but for living on one ``Ref``
object, as the reference (``tests/test_cpu_hold.SlicedCpu`` is the
precedent): for generated gates, caps, knobs and call sequences the
one trigger must fire on the same calls, count the same ``seen`` /
``fired``, write the same ledger and leave every stream in the same
state — i.e. draw exactly as often.
"""

import ast
import json
import os
import random
import re
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.ash.tenancy import TenantManager
from repro.bench.testbed import make_an2_pair
from repro.bench.workloads import TENANT_ABUSE, tenant_abuse
from repro.errors import SimError
from repro.sim.faults import SITES, FaultPlane, MemPressure, _Injector
from repro.sim.units import us
from tests.test_bench_infra import _load_script

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: schedules with an entry that is not plain data: ``program`` is the
#: builder of the handler the abuse tries to download
NOT_PLAIN_DATA = {"workloads.TENANT_ABUSE[hog_install]",
                  "workloads.TENANT_ABUSE[crash_loop]"}


def _readme_schedules():
    """The list literal of every ``apply_scenario([...])`` in README."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    for n, match in enumerate(re.finditer(r"apply_scenario\(", text)):
        tree = None
        # the shortest prefix ending in "]" that parses is the argument
        for end in (m.end() for m in re.finditer(r"\]", text[match.end():])):
            try:
                tree = ast.literal_eval(text[match.end():match.end() + end])
                break
            except SyntaxError:
                continue
        assert tree is not None, f"README apply_scenario #{n}: no literal"
        yield f"README[{n}]", tree


def declared_schedules() -> dict:
    out = {f"workloads.TENANT_ABUSE[{name}]": rows
           for name, rows in TENANT_ABUSE.items()}
    crash = _load_script("bench_crash")
    for quick in (True, False):
        for i, (section, labels, seams) in enumerate(crash.cells(quick)):
            out[f"bench_crash.cells({quick})[{i}]"] = seams["faults"]
    sweep = _load_script("sweep_driver")
    for smoke in (True, False):
        for cell in sweep.grid_cells(smoke, 16_000):
            if "faults" in cell["kwargs"]:
                out[f"sweep_driver.grid_cells({smoke})"
                    f"[{cell['workload']}/{cell['scenario']}]"] = \
                    cell["kwargs"]["faults"]
    out.update(_readme_schedules())
    return out


SCHEDULES = declared_schedules()


def fingerprint(injector) -> tuple:
    """Class, seam name and every plain-valued attribute — the knobs as
    the injector holds them — plus the names of its sub-seams."""
    knobs = {key: value for key, value in vars(injector).items()
             if isinstance(value, (int, float, str, tuple, type(None)))}
    subs = [seam.site for value in vars(injector).values()
            if isinstance(value, dict)
            for seam in value.values() if isinstance(seam, _Injector)]
    return type(injector).__name__, injector.site, knobs, subs


def install_on_fresh_pair(schedule) -> list:
    tb = make_an2_pair()
    TenantManager(tb.server_kernel).create("mallory")
    plane = tb.attach_fault_plane(seed=1)
    return [fingerprint(inj) for inj in plane.apply_scenario(schedule)]


def test_the_census_of_declared_schedules_is_not_empty():
    assert len(SCHEDULES) >= 7 + 8 + 4 + 2
    assert NOT_PLAIN_DATA <= set(SCHEDULES)
    assert sum(name.startswith("README") for name in SCHEDULES) == 2
    sites = {spec["site"] for rows in SCHEDULES.values() for spec in rows}
    assert sites == set(SITES), "a site no declared schedule uses"


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_declared_schedule_is_plain_data_and_installs(name):
    schedule = SCHEDULES[name]
    if name in NOT_PLAIN_DATA:
        with pytest.raises(TypeError):
            json.dumps(schedule)
        # ...and is plain data once the handler is set aside
        json.dumps([{k: v for k, v in spec.items() if k != "program"}
                    for spec in schedule])
        installed = install_on_fresh_pair(
            tenant_abuse(name[name.index("[") + 1:-1]))
        assert [site for _cls, site, _k, _s in installed] == [
            f"tenant:server:mallory:{spec['action']}" for spec in schedule]
        return
    reloaded = json.loads(json.dumps(schedule))
    for spec in reloaded:
        assert isinstance(spec["target"], str)
    fresh = install_on_fresh_pair(reloaded)
    assert fresh == install_on_fresh_pair(schedule)
    assert [cls for cls, *_ in fresh] == [
        SITES[spec["site"]].__name__ for spec in schedule]


class TestTargetsByName:
    def test_unknown_site_names_the_offender(self):
        plane = make_an2_pair().attach_fault_plane(seed=1)
        with pytest.raises(SimError, match="unknown fault site 'wire'"):
            plane.install("wire", "link", drop=0.1)

    @pytest.mark.parametrize("target,part", [
        ("uplink", "uplink"),
        ("server.kernel.nope", "nope"),
        # a world without a TenantManager has no tenant seams
        ("server_kernel.tenants", "tenants"),
        # private state is not a target
        ("server._nics", "_nics"),
    ])
    def test_unknown_target_names_the_offender(self, target, part):
        plane = make_an2_pair().attach_fault_plane(seed=1)
        with pytest.raises(SimError) as exc:
            plane.install("link", target, drop=0.1)
        assert repr(target) in str(exc.value) and repr(part) in str(exc.value)
        assert plane.injectors == []

    def test_a_plane_without_a_testbed_takes_objects_only(self):
        tb = make_an2_pair()
        plane = FaultPlane(tb.engine, seed=1)
        with pytest.raises(SimError, match="'link'.*without a testbed"):
            plane.install("link", "link", drop=0.1)
        assert plane.install("link", tb.link, drop=0.1) is tb.link.impairment


# ---------------------------------------------------------------------------
# the one trigger against the five bodies it replaced
# ---------------------------------------------------------------------------

class Ref:
    """The deleted per-class trigger bodies, verbatim, on one object.

    ``_gate`` and the constructor's gate fields are ``_Injector``'s as
    they were (``enabled`` included: nothing ever cleared it)."""

    def __init__(self, plane, site, skip_first, start_us, stop_us, **knobs):
        self.plane = plane
        self.site = site
        self.rng = plane._rng_for(site)
        self.skip_first = skip_first
        self.start = None if start_us is None else us(start_us)
        self.stop = None if stop_us is None else us(stop_us)
        self.seen = 0
        self.enabled = True
        self.fired = 0
        self._site_rng = {}
        self._site_seen = {}
        vars(self).update(knobs)

    def _gate(self) -> bool:
        self.seen += 1
        if not self.enabled or self.seen <= self.skip_first:
            return False
        now = self.plane.engine.now
        if self.start is not None and now < self.start:
            return False
        if self.stop is not None and now >= self.stop:
            return False
        return True

    def ash_consider(self):                 # AshAbortInjector.consider
        if not self._gate():
            return None
        if self.max_aborts is not None and self.fired >= self.max_aborts:
            return None
        fire = False
        if self.every:
            fire = self.seen % self.every == 0
        if not fire and self.rate:
            fire = self.rng.random() < self.rate
        if not fire:
            return None
        self.fired += 1
        self.plane.record("ash_abort", self.site)
        return self.budget

    def cpu_burst(self, rate):              # CpuContention._burst
        if not self._gate():
            return 0
        if self.max_bursts is not None and self.fired >= self.max_bursts:
            return 0
        if not rate or self.rng.random() >= rate:
            return 0
        self.fired += 1
        self.plane.record("cpu_contention", self.site)
        return self.burst_cycles

    def leak_on_replenish(self):            # TenantLeak.on_replenish
        if not self._gate():
            return False
        if self.max_leaks is not None and self.fired >= self.max_leaks:
            return False
        if self.rate < 1.0 and self.rng.random() >= self.rate:
            return False
        self.fired += 1
        self.plane.record("tenant_leak", self.site)
        return True

    def tenant_consider(self):              # TenantAbortLoop.consider
        if not self._gate():
            return None
        if self.max_aborts is not None and self.fired >= self.max_aborts:
            return None
        if self.seen % self.every != 0:
            return None
        self.fired += 1
        self.plane.record("tenant_abort", self.site)
        return self.budget

    def mem_should_fail(self, site):        # MemPressure.should_fail
        rate = self.rates.get(site, 0.0)
        if not rate:
            return False
        seen = self._site_seen.get(site, 0) + 1
        self._site_seen[site] = seen
        if not self.enabled or seen <= self.skip_first:
            return False
        now = self.plane.engine.now
        if self.start is not None and now < self.start:
            return False
        if self.stop is not None and now >= self.stop:
            return False
        if self.max_failures is not None and self.fired >= self.max_failures:
            return False
        rng = self._site_rng.get(site)
        if rng is None:
            rng = self.plane._rng_for(f"{self.site}:{site}")
            self._site_rng[site] = rng
        if rng.random() >= rate:
            return False
        self.fired += 1
        self.plane.record("mem_pressure", f"{self.site}:{site}")
        return True


MEM_SITES = ("rx_refill", "ash_install", "alloc")

GATES = st.fixed_dictionaries({
    "skip_first": st.integers(0, 4),
    "start_us": st.none() | st.integers(0, 6),
    "stop_us": st.none() | st.integers(0, 9),
})
CAP = st.none() | st.integers(0, 4)
EVERY = st.none() | st.integers(1, 4)
RATE = st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0])
#: one seam call: how far the clock moved first (in half µs, so calls
#: land on, before and after a window edge), and which sub-seam is asked
CALLS = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)),
                 min_size=1, max_size=40)


def _drive(body, calls, engine):
    pattern = []
    engine.now = 0
    for half_us, which in calls:
        engine.now += half_us * us(0.5)
        pattern.append(bool(body(which)))
    return pattern


def _planes():
    """Two planes on one seed — same streams — each on its own clock."""
    return [FaultPlane(SimpleNamespace(now=0), seed=77) for _ in range(2)]


def _same_outcome(old, new, old_plane, new_plane, old_pattern, new_pattern,
                  streams):
    assert new_pattern == old_pattern
    assert (new.seen, new.fired) == (old.seen, old.fired)
    assert new_plane._ledger == old_plane._ledger
    for mine, theirs in streams:
        # equal state <=> equally many draws from equal seeds
        assert mine.getstate() == theirs.getstate()


@settings(max_examples=100, deadline=None)
@given(GATES, CAP, EVERY, RATE, CALLS)
def test_trigger_matches_ash_abort_consider(gates, cap, every, rate, calls):
    old_plane, new_plane = _planes()
    old = Ref(old_plane, "ash:n", **gates, every=every, rate=rate,
              max_aborts=cap, budget=7)
    new = _Injector(new_plane, "ash:n", **gates)
    _same_outcome(
        old, new, old_plane, new_plane,
        _drive(lambda _: old.ash_consider(), calls, old_plane.engine),
        _drive(lambda _: new._trigger("ash_abort", every=every, rate=rate,
                                      cap=cap), calls, new_plane.engine),
        [(new.rng, old.rng)])


@settings(max_examples=100, deadline=None)
@given(GATES, CAP, RATE, RATE, CALLS)
def test_trigger_matches_cpu_burst(gates, cap, rate, budget_rate, calls):
    """``steal`` and ``budget_penalty`` share one stream and one cap."""
    old_plane, new_plane = _planes()
    old = Ref(old_plane, "cpu:n", **gates, max_bursts=cap, burst_cycles=9)
    new = _Injector(new_plane, "cpu:n", **gates)
    rates = (rate, budget_rate, rate)
    _same_outcome(
        old, new, old_plane, new_plane,
        _drive(lambda w: old.cpu_burst(rates[w]), calls, old_plane.engine),
        _drive(lambda w: new._trigger("cpu_contention", rate=rates[w],
                                      cap=cap), calls, new_plane.engine),
        [(new.rng, old.rng)])


@settings(max_examples=100, deadline=None)
@given(GATES, CAP, CALLS)
def test_trigger_matches_tenant_leak(gates, cap, calls):
    """``rate`` had one value in use, 1.0, which drew nothing: it is
    spelled ``every=1``."""
    old_plane, new_plane = _planes()
    old = Ref(old_plane, "tenantleak:n:m", **gates, rate=1.0, max_leaks=cap)
    new = _Injector(new_plane, "tenantleak:n:m", **gates)
    _same_outcome(
        old, new, old_plane, new_plane,
        _drive(lambda _: old.leak_on_replenish(), calls, old_plane.engine),
        _drive(lambda _: new._trigger("tenant_leak", every=1, cap=cap),
               calls, new_plane.engine),
        [(new.rng, old.rng)])


@settings(max_examples=100, deadline=None)
@given(GATES, CAP, st.integers(1, 4), CALLS)
def test_trigger_matches_tenant_abort_consider(gates, cap, every, calls):
    old_plane, new_plane = _planes()
    old = Ref(old_plane, "tenantabort:n:m", **gates, every=every,
              max_aborts=cap, budget=7)
    new = _Injector(new_plane, "tenantabort:n:m", **gates)
    _same_outcome(
        old, new, old_plane, new_plane,
        _drive(lambda _: old.tenant_consider(), calls, old_plane.engine),
        _drive(lambda _: new._trigger("tenant_abort", every=every, cap=cap),
               calls, new_plane.engine),
        [(new.rng, old.rng)])


@settings(max_examples=100, deadline=None)
@given(GATES, CAP, RATE,
       st.lists(st.sampled_from(MEM_SITES), min_size=1, max_size=3,
                unique=True), CALLS)
def test_mem_pressure_matches_should_fail(gates, cap, rate, chosen, calls):
    """The real class: per-site invocation counts and streams, one cap
    and one ``fired`` across sites, a site not chosen never asked."""
    old_plane, new_plane = _planes()
    old = Ref(old_plane, "mem:n", **gates, max_failures=cap,
              rates={site: rate for site in chosen})
    node = SimpleNamespace(name="n", memory=SimpleNamespace())
    new = MemPressure(new_plane, node, rate=rate, sites=chosen,
                      max_failures=cap, **gates)
    assert node.memory.pressure is new
    old_pattern = _drive(lambda w: old.mem_should_fail(MEM_SITES[w]),
                         calls, old_plane.engine)
    new_pattern = _drive(lambda w: new.should_fail(MEM_SITES[w]),
                         calls, new_plane.engine)
    assert new_pattern == old_pattern and new.fired == old.fired
    assert new_plane._ledger == old_plane._ledger
    for site in chosen:
        seam = new._seams[site]
        assert seam.seen == old._site_seen.get(site, 0)
        reference = old._site_rng.get(site) or random.Random(
            f"faultplane:77:mem:n:{site}")
        assert seam.rng.getstate() == reference.getstate()
    # the injector's own stream is never drawn from
    assert new.rng.getstate() == old.rng.getstate()
