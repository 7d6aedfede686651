"""Ablation: sandboxing techniques across platforms (Sec III-B / V-E).

"There are various ways to guarantee safety, depending on the hardware
platform ... the implementation of static ASHs for the Intel x86 uses
hardware support for segmentation and privilege rings to guard ASHs; in
this implementation almost no software checks are needed.  The MIPS
implementation, in contrast, must use software techniques."

Three variants of the remote-increment round trip: no sandbox (the
unsafe baseline), MIPS-style software SFI, and the x86-style policy
where segmentation hardware guards loads/stores (no check instructions
emitted).
"""

from repro.bench.harness import reproduce
from repro.bench.results import BenchTable
from repro.bench.testbed import make_an2_pair
from repro.bench.workloads import am_flow
from repro.sandbox import SandboxPolicy
from repro.sim.units import to_us


def run_variant(sandbox: bool, hardware_checks: bool) -> tuple[float, int]:
    """Returns (round trip µs, sandboxed program length)."""
    tb = make_an2_pair()
    sk, ck = tb.server_kernel, tb.client_kernel
    policy = SandboxPolicy(hardware_checks=True) if hardware_checks else None
    flow = am_flow(tb, mode="ash" if sandbox else "ash-unsafe",
                   policy=policy)
    entry = sk.ash_system.entry(flow.ash_id)
    rts = []

    def client(proc):
        for _ in range(12):
            _reply, ticks = yield from flow.request(proc)
            rts.append(to_us(ticks))

    flow.cli_ep.owner = ck.spawn_process("client", client)
    tb.run()
    mean = sum(rts[2:]) / len(rts[2:])
    return mean, len(entry.program)


def run_sandbox_ablation() -> BenchTable:
    table = BenchTable(
        name="ablation_sandbox",
        title="Ablation: sandbox technique vs remote-increment RTT",
        columns=["RTT us", "program insns"],
    )
    for label, sandbox, hw in (
        ("unsafe (no sandbox)", False, False),
        ("MIPS software SFI", True, False),
        ("x86 segmentation hardware", True, True),
    ):
        rtt, insns = run_variant(sandbox, hw)
        table.add_row(label, **{"RTT us": rtt, "program insns": insns})
    return table


def test_sandbox_ablation(benchmark):
    table = reproduce(benchmark, run_sandbox_ablation)
    unsafe = table.value("unsafe (no sandbox)", "RTT us")
    mips = table.value("MIPS software SFI", "RTT us")
    x86 = table.value("x86 segmentation hardware", "RTT us")
    # software checks cost something; hardware checks cost (almost) nothing
    assert unsafe <= x86 <= mips
    assert mips - unsafe < 15.0
    assert x86 - unsafe < 1.0
    # the x86 variant emits fewer instructions than the MIPS one
    assert (table.value("x86 segmentation hardware", "program insns")
            < table.value("MIPS software SFI", "program insns"))


if __name__ == "__main__":
    from repro.bench.telemetry_cli import bench_main

    bench_main(run_sandbox_ablation)
