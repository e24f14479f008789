"""Register renaming: RAT, physical free lists, and recovery.

Models the paper's two-stage pipelined renaming (§IV-B) at the architectural
level: a register alias table maps architectural to physical registers,
destinations draw from per-class free lists, and every rename writes a
recovery-log record so a pipeline flush can restore the RAT by walking the
log backwards (the paper's recovery-log scheme).

The two-*cycle* rename latency itself is applied by the pipeline; this module
provides the state and the rename/commit/flush operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..isa.instruction import DynOp
from ..isa.registers import NUM_ARCH_REGS, NUM_INT_REGS, ZERO, is_fp


@dataclass
class RenamedOp:
    """Rename-stage output for one micro-op: physical operand bindings."""

    seq: int
    dest_preg: Optional[int]
    src_pregs: Tuple[int, ...]
    #: previous mapping of the destination arch reg (for recovery + freeing)
    prev_dest_preg: Optional[int] = None
    dest_arch: Optional[int] = None


class OutOfPhysicalRegisters(RuntimeError):
    """Raised when ``rename`` is called without checking ``can_rename``."""


class RenameUnit:
    """RAT + free lists + recovery log.

    Physical register ids: integers ``0 .. num_int-1`` are the integer pool;
    ``num_int .. num_int+num_fp-1`` are the FP pool.  At reset, architectural
    register *i* maps to physical register *i*'s pool slot, and physical
    register 0 (backing ``r0``) is permanently ready and never reallocated.

    Args:
        num_int: Integer physical registers (paper 8-wide: 180).
        num_fp: FP physical registers (paper 8-wide: 168).
    """

    def __init__(self, num_int: int = 180, num_fp: int = 168):
        if num_int < NUM_INT_REGS or num_fp < NUM_ARCH_REGS - NUM_INT_REGS:
            raise ValueError("physical pools must cover the architectural state")
        self.num_int = num_int
        self.num_fp = num_fp
        self.num_phys = num_int + num_fp
        # initial identity mapping
        self._rat: List[int] = [0] * NUM_ARCH_REGS
        for arch in range(NUM_ARCH_REGS):
            if is_fp(arch):
                self._rat[arch] = num_int + (arch - NUM_INT_REGS)
            else:
                self._rat[arch] = arch
        self._free_int: List[int] = list(range(NUM_INT_REGS, num_int))
        self._free_fp: List[int] = list(
            range(num_int + (NUM_ARCH_REGS - NUM_INT_REGS), num_int + num_fp)
        )
        self.renames = 0
        self.recovered = 0

    # ------------------------------------------------------------------
    def lookup(self, arch: int) -> int:
        """Current physical mapping of an architectural register."""
        return self._rat[arch]

    def free_count(self, fp: bool) -> int:
        return len(self._free_fp) if fp else len(self._free_int)

    def can_rename(self, op: DynOp) -> bool:
        """True if a destination register (if any) can be allocated."""
        if op.dest is None or op.dest == ZERO:
            return True
        pool = self._free_fp if is_fp(op.dest) else self._free_int
        return bool(pool)

    def rename(self, op: DynOp) -> RenamedOp:
        """Rename one micro-op; the caller must have checked ``can_rename``."""
        src_pregs = tuple(self._rat[src] for src in op.srcs)
        dest_preg = None
        prev = None
        if op.dest is not None and op.dest != ZERO:
            pool = self._free_fp if is_fp(op.dest) else self._free_int
            if not pool:
                raise OutOfPhysicalRegisters(f"no free preg for {op}")
            dest_preg = pool.pop()
            prev = self._rat[op.dest]
            self._rat[op.dest] = dest_preg
        self.renames += 1
        return RenamedOp(
            seq=op.seq,
            dest_preg=dest_preg,
            src_pregs=src_pregs,
            prev_dest_preg=prev,
            dest_arch=op.dest,
        )

    # ------------------------------------------------------------------
    def commit_mapping(self, prev_dest_preg: Optional[int]) -> None:
        """Retire: the previous mapping of the destination becomes free."""
        if prev_dest_preg is not None:
            pool = (
                self._free_fp if prev_dest_preg >= self.num_int else self._free_int
            )
            pool.append(prev_dest_preg)

    def undo_mapping(
        self,
        dest_arch: Optional[int],
        dest_preg: Optional[int],
        prev_dest_preg: Optional[int],
    ) -> None:
        """Undo one rename (recovery-log walk-back, youngest first)."""
        if dest_preg is None:
            return
        self._rat[dest_arch] = prev_dest_preg
        pool = self._free_fp if dest_preg >= self.num_int else self._free_int
        pool.append(dest_preg)
        self.recovered += 1

    def commit(self, renamed: RenamedOp) -> None:
        """Retire a :class:`RenamedOp` (wrapper over ``commit_mapping``)."""
        self.commit_mapping(renamed.prev_dest_preg)

    def flush(self, renamed_young_first: List[RenamedOp]) -> None:
        """Undo renames (youngest first), restoring the RAT and free lists."""
        for renamed in renamed_young_first:
            self.undo_mapping(
                renamed.dest_arch, renamed.dest_preg, renamed.prev_dest_preg
            )
