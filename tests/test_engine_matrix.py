"""The interpreter path must not rot now that the JIT is the default.

Engine-selection unit tests run in-process; the heavyweight check runs
the VM-centric test modules in a subprocess with
``REPRO_VCODE_ENGINE=interp`` so every pinned VM behavior is exercised
through the reference interpreter as well.
"""

import os
import subprocess
import sys

import pytest

from repro.errors import VcodeError
from repro.hw.memory import PhysicalMemory
from repro.vcode.isa import Insn, assemble
from repro.vcode.vm import ENV_ENGINE, Vm

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: the modules that pin VM semantics (and their sandbox interactions)
VM_MODULES = [
    "tests/test_vcode_vm.py",
    "tests/test_vm_ops_coverage.py",
    "tests/test_vcode_extensions.py",
    "tests/test_sandbox.py",
]


def _prog():
    return assemble("probe", [Insn("li", rd=2, imm=9), Insn("ret")])


def _vm():
    return Vm(PhysicalMemory(1 << 12))


def test_engine_argument_overrides_everything(monkeypatch):
    monkeypatch.setenv(ENV_ENGINE, "interp")
    vm = _vm()
    assert vm._resolve_engine(None) == "interp"
    assert vm.run(_prog(), engine="jit").value == 9
    assert vm._resolve_engine("jit") == "jit"


def test_env_var_sets_default(monkeypatch):
    monkeypatch.setenv(ENV_ENGINE, "interp")
    assert _vm()._resolve_engine(None) == "interp"
    monkeypatch.delenv(ENV_ENGINE)
    assert _vm()._resolve_engine(None) == "jit"


def test_unknown_engine_rejected():
    with pytest.raises(VcodeError, match="unknown execution engine"):
        _vm().run(_prog(), engine="llvm")


def test_jit_unsafe_program_falls_back_to_interp():
    prog = _prog()
    prog.jit_safe = False   # e.g. a previous translation failure
    assert _vm().run(prog, engine="jit").value == 9


def test_vm_suite_passes_under_interpreter():
    env = dict(os.environ, **{ENV_ENGINE: "interp"})
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", *VM_MODULES],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, (
        f"VM test modules fail under REPRO_VCODE_ENGINE=interp:\n"
        f"{proc.stdout[-4000:]}\n{proc.stderr[-2000:]}"
    )
