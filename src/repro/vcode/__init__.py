"""VCODE: the dynamic code generation substrate handlers are written in."""

from .builder import Label, VBuilder
from .isa import Insn, Program, assemble, insn_cost
from .registers import P_TMP, P_VAR, RegisterAllocator
from .vm import TrustedCallContext, Vm, VmResult
from .extensions import (
    build_byteswap,
    build_checksum,
    build_copy,
    build_integrated,
    fold_checksum,
)

__all__ = [
    "Label",
    "VBuilder",
    "Insn",
    "Program",
    "assemble",
    "insn_cost",
    "P_TMP",
    "P_VAR",
    "RegisterAllocator",
    "TrustedCallContext",
    "Vm",
    "VmResult",
    "build_byteswap",
    "build_checksum",
    "build_copy",
    "build_integrated",
    "fold_checksum",
]
