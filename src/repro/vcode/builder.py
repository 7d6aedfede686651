"""The VCODE builder: the ``v_*`` macro interface handlers are written in.

Mirrors the paper's C-macro interface in Python: each ``v_*`` call
appends one instruction, ``label()``/``mark()`` manage control-flow
targets, and ``getreg``/``putreg`` allocate registers in the paper's
two classes.  ``finish()`` assembles the fragment into an executable
:class:`~repro.vcode.isa.Program`.

Example — the remote-increment core::

    b = VBuilder("remote_increment")
    ptr = b.getreg()
    b.v_ld32(ptr, b.A0, 0)      # fetch target address from the message
    val = b.getreg()
    b.v_ld32(val, ptr, 0)       # load the counter
    b.v_addiu(val, val, 1)      # increment
    b.v_st32(val, ptr, 0)       # store back
    b.v_ret()
    program = b.finish()
"""

from __future__ import annotations

from typing import Optional, Union

from ..errors import VcodeError
from .isa import (
    Insn,
    Program,
    REG_A0,
    REG_A1,
    REG_A2,
    REG_A3,
    REG_V0,
    REG_ZERO,
    assemble,
)
from .registers import P_TMP, P_VAR, RegisterAllocator

__all__ = ["Label", "VBuilder"]


class Label:
    """A control-flow target; create with :meth:`VBuilder.label`."""

    _counter = 0

    def __init__(self, name: Optional[str] = None):
        if name is None:
            Label._counter += 1
            name = f"L{Label._counter}"
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Label {self.name}>"


LabelLike = Union[Label, str]


def _label_name(label: LabelLike) -> str:
    return label.name if isinstance(label, Label) else label


class VBuilder:
    """Accumulates instructions for one VCODE fragment."""

    # argument/return register conventions, exposed for handler authors
    A0, A1, A2, A3 = REG_A0, REG_A1, REG_A2, REG_A3
    V0 = REG_V0
    ZERO = REG_ZERO

    def __init__(self, name: str = "fragment"):
        self.name = name
        self.items: list = []
        self.regs = RegisterAllocator()

    # -- registers -----------------------------------------------------------
    def getreg(self, reg_class: str = P_TMP) -> int:
        """Allocate a register (``P_TMP`` scratch or ``P_VAR`` persistent)."""
        return self.regs.alloc(reg_class)

    def putreg(self, reg: int) -> None:
        self.regs.free(reg)

    # -- labels -----------------------------------------------------------
    def label(self, name: Optional[str] = None) -> Label:
        return Label(name)

    def mark(self, label: LabelLike) -> None:
        """Place ``label`` at the current position."""
        self.items.append(("label", _label_name(label)))

    # -- emission core -----------------------------------------------------
    def emit(self, insn: Insn) -> None:
        self.items.append(insn)

    def _i(self, op: str, **kwargs) -> None:
        self.emit(Insn(op, **kwargs))

    # -- ALU -----------------------------------------------------------------
    def v_addu(self, rd: int, rs: int, rt: int) -> None:
        self._i("addu", rd=rd, rs=rs, rt=rt)

    def v_subu(self, rd: int, rs: int, rt: int) -> None:
        self._i("subu", rd=rd, rs=rs, rt=rt)

    def v_multu(self, rd: int, rs: int, rt: int) -> None:
        self._i("multu", rd=rd, rs=rs, rt=rt)

    def v_divu(self, rd: int, rs: int, rt: int) -> None:
        self._i("divu", rd=rd, rs=rs, rt=rt)

    def v_and(self, rd: int, rs: int, rt: int) -> None:
        self._i("and", rd=rd, rs=rs, rt=rt)

    def v_or(self, rd: int, rs: int, rt: int) -> None:
        self._i("or", rd=rd, rs=rs, rt=rt)

    def v_xor(self, rd: int, rs: int, rt: int) -> None:
        self._i("xor", rd=rd, rs=rs, rt=rt)

    def v_nor(self, rd: int, rs: int, rt: int) -> None:
        self._i("nor", rd=rd, rs=rs, rt=rt)

    def v_sltu(self, rd: int, rs: int, rt: int) -> None:
        self._i("sltu", rd=rd, rs=rs, rt=rt)

    def v_sllv(self, rd: int, rs: int, rt: int) -> None:
        self._i("sllv", rd=rd, rs=rs, rt=rt)

    def v_srlv(self, rd: int, rs: int, rt: int) -> None:
        self._i("srlv", rd=rd, rs=rs, rt=rt)

    # -- ALU immediate ----------------------------------------------------------
    def v_addiu(self, rd: int, rs: int, imm: int) -> None:
        self._i("addiu", rd=rd, rs=rs, imm=imm)

    def v_andi(self, rd: int, rs: int, imm: int) -> None:
        self._i("andi", rd=rd, rs=rs, imm=imm)

    def v_ori(self, rd: int, rs: int, imm: int) -> None:
        self._i("ori", rd=rd, rs=rs, imm=imm)

    def v_xori(self, rd: int, rs: int, imm: int) -> None:
        self._i("xori", rd=rd, rs=rs, imm=imm)

    def v_sltiu(self, rd: int, rs: int, imm: int) -> None:
        self._i("sltiu", rd=rd, rs=rs, imm=imm)

    def v_sll(self, rd: int, rs: int, imm: int) -> None:
        self._i("sll", rd=rd, rs=rs, imm=imm)

    def v_srl(self, rd: int, rs: int, imm: int) -> None:
        self._i("srl", rd=rd, rs=rs, imm=imm)

    # -- pseudo-ops ---------------------------------------------------------
    def v_li(self, rd: int, imm: int) -> None:
        self._i("li", rd=rd, imm=imm)

    def v_move(self, rd: int, rs: int) -> None:
        self._i("addu", rd=rd, rs=rs, rt=REG_ZERO)

    def v_nop(self) -> None:
        self._i("nop")

    # -- memory ---------------------------------------------------------------
    def v_ld8(self, rd: int, base: int, offset: int = 0) -> None:
        self._i("ld8", rd=rd, rs=base, imm=offset)

    def v_ld16(self, rd: int, base: int, offset: int = 0) -> None:
        self._i("ld16", rd=rd, rs=base, imm=offset)

    def v_ld32(self, rd: int, base: int, offset: int = 0) -> None:
        self._i("ld32", rd=rd, rs=base, imm=offset)

    def v_st8(self, rt: int, base: int, offset: int = 0) -> None:
        self._i("st8", rt=rt, rs=base, imm=offset)

    def v_st16(self, rt: int, base: int, offset: int = 0) -> None:
        self._i("st16", rt=rt, rs=base, imm=offset)

    def v_st32(self, rt: int, base: int, offset: int = 0) -> None:
        self._i("st32", rt=rt, rs=base, imm=offset)

    # -- control flow --------------------------------------------------------
    def v_beq(self, rs: int, rt: int, label: LabelLike) -> None:
        self._i("beq", rs=rs, rt=rt, label=_label_name(label))

    def v_bne(self, rs: int, rt: int, label: LabelLike) -> None:
        self._i("bne", rs=rs, rt=rt, label=_label_name(label))

    def v_bltu(self, rs: int, rt: int, label: LabelLike) -> None:
        self._i("bltu", rs=rs, rt=rt, label=_label_name(label))

    def v_bgeu(self, rs: int, rt: int, label: LabelLike) -> None:
        self._i("bgeu", rs=rs, rt=rt, label=_label_name(label))

    def v_j(self, label: LabelLike) -> None:
        self._i("j", label=_label_name(label))

    def v_jr(self, rs: int) -> None:
        self._i("jr", rs=rs)

    def v_call(self, name: str) -> None:
        """Call a trusted kernel entry point (args in A0-A3, result in V0)."""
        self._i("call", label=name)

    def v_ret(self) -> None:
        self._i("ret")

    # -- networking extensions (Section II-B) ----------------------------------
    def v_cksum32(self, acc: int, src: int) -> None:
        """acc += src with end-around carry (Internet checksum step)."""
        self._i("cksum32", rd=acc, rs=src)

    def v_bswap32(self, rd: int, rs: int) -> None:
        self._i("bswap32", rd=rd, rs=rs)

    def v_bswap16(self, rd: int, rs: int) -> None:
        self._i("bswap16", rd=rd, rs=rs)

    # -- forbidden ops (for verifier tests and hostile handlers) ---------------
    def v_unsafe(self, op: str, rd: int = 0, rs: int = 0, rt: int = 0) -> None:
        """Emit a signed/FP instruction the verifier must reject."""
        self._i(op, rd=rd, rs=rs, rt=rt)

    # -- assembly ----------------------------------------------------------
    def finish(self) -> Program:
        return assemble(
            self.name, self.items,
            persistent_regs=self.regs.persistent_registers(),
        )
