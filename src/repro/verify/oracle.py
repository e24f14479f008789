"""Differential oracle: every scheduler must commit the same execution.

The timing simulators are trace-driven — they replay the functional
executor's dynamic micro-op stream — so architectural equivalence
reduces to two checks per scheduler config:

1. **Commit-stream identity**: the committed sequence numbers must be
   exactly ``0 .. len(trace)-1`` in order.  Any scheduler bug that
   drops, duplicates, or reorders retirement shows up here.
2. **Independent replay**: the committed ``(pc)`` stream is re-executed
   by a second, deliberately separate interpreter in this module, which
   cross-checks each committed op's recorded memory address, branch
   outcome, and control-flow continuity, then compares the final
   architectural register file and memory image against the functional
   executor's.  This catches trace-generation and replay-consistency
   bugs that commit-stream identity alone would mask.

On top of the differential checks, each timing run executes with the
per-cycle invariant checker enabled (see
:mod:`repro.verify.invariants`) and a stall-attribution engine attached,
so bookkeeping violations surface even when the architectural results
happen to match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.config import FIG11_ARCHES, config_for
from ..core.observe import Observer
from ..core.pipeline import Pipeline, SimulationDeadlock
from ..isa.instruction import DynOp
from ..isa.registers import NUM_ARCH_REGS, ZERO, reg_name
from ..telemetry.attribution import StallAttribution
from ..workloads.executor import (
    ExecutionLimitExceeded,
    FunctionalExecutor,
    _ALU_BINOPS,
    _BRANCH_CONDS,
)
from ..workloads.program import Program
from .genprog import SpecItem, assemble
from .invariants import InvariantViolation

#: Dynamic micro-op budget per generated program (a shrunken variant
#: that loses its loop-counter init must be rejected, not simulated).
DEFAULT_MAX_OPS = 50_000


@dataclass
class Failure:
    """One oracle failure for one (program, arch) cell."""

    arch: str
    kind: str  # commit_stream | arch_state | invariant | deadlock | crash
    detail: str

    def __str__(self) -> str:
        return f"[{self.arch}] {self.kind}: {self.detail}"


class CommitLog(Observer):
    """The committed DynOps in commit order: the oracle's observable."""

    def __init__(self, trace):
        self.trace, self.ops = trace, []

    def on_event(self, cycle, seq, stage, cause=""):
        if stage == "commit":
            self.ops.append(self.trace[seq])


class ReplayMismatch(AssertionError):
    """The independent replay disagreed with a committed op's record."""


# ----------------------------------------------------------------------
# independent replay of a committed op stream
# ----------------------------------------------------------------------
def replay_commits(
    program: Program, commits: Sequence[DynOp]
) -> Tuple[List[float], Dict[int, float]]:
    """Re-execute ``commits`` against ``program``; return (regs, memory).

    Raises :class:`ReplayMismatch` if a committed op's recorded memory
    address or branch outcome disagrees with the replayed semantics, or
    if the committed pc stream is not a connected control-flow path.
    """
    regs: List[float] = [0] * NUM_ARCH_REGS
    memory: Dict[int, float] = {}
    code = program.instructions
    expected_pc = 0

    def read(reg: int) -> float:
        return 0 if reg == ZERO else regs[reg]

    for op in commits:
        if op.pc != expected_pc:
            raise ReplayMismatch(
                f"seq {op.seq}: committed pc {op.pc}, control flow "
                f"expected pc {expected_pc}"
            )
        inst = code[op.pc]
        name = inst.opcode.name
        next_pc = op.pc + 1
        if name == "halt":
            break
        if name in _ALU_BINOPS:
            value = _ALU_BINOPS[name](read(inst.srcs[0]), read(inst.srcs[1]))
            if inst.dest is not None and inst.dest != ZERO:
                regs[inst.dest] = value
        elif name == "addi":
            regs[inst.dest] = int(read(inst.srcs[0])) + inst.imm
        elif name == "shl":
            regs[inst.dest] = int(read(inst.srcs[0])) << inst.imm
        elif name == "shr":
            regs[inst.dest] = int(read(inst.srcs[0])) >> inst.imm
        elif name in ("mov", "fmov"):
            regs[inst.dest] = read(inst.srcs[0])
        elif name == "li":
            regs[inst.dest] = inst.imm
        elif name in ("load", "fload"):
            addr = int(read(inst.srcs[-1])) + inst.imm
            if op.mem_addr != addr:
                raise ReplayMismatch(
                    f"seq {op.seq} (pc {op.pc}): recorded address "
                    f"{op.mem_addr}, replay computes {addr}"
                )
            regs[inst.dest] = memory.get(addr, 0)
        elif name in ("store", "fstore"):
            addr = int(read(inst.srcs[-1])) + inst.imm
            if op.mem_addr != addr:
                raise ReplayMismatch(
                    f"seq {op.seq} (pc {op.pc}): recorded address "
                    f"{op.mem_addr}, replay computes {addr}"
                )
            memory[addr] = read(inst.srcs[0])
        elif inst.opcode.is_branch:
            if name == "jmp":
                taken = True
            else:
                taken = _BRANCH_CONDS[name](
                    read(inst.srcs[0]), read(inst.srcs[1])
                )
            if bool(op.taken) != taken:
                raise ReplayMismatch(
                    f"seq {op.seq} (pc {op.pc}): recorded "
                    f"taken={op.taken}, replay computes {taken}"
                )
            if taken:
                next_pc = op.target_pc
        elif name == "nop":
            pass
        else:  # pragma: no cover - closed opcode table
            raise ReplayMismatch(f"unhandled opcode in replay: {name}")
        expected_pc = next_pc
    return regs, memory


def _same_value(a: float, b: float) -> bool:
    """Equality that treats NaN as equal to NaN.

    FP chains can reach NaN (``inf - inf`` after an fmul blow-up); both
    replays compute the identical op sequence, so a shared NaN is
    agreement, not a divergence.
    """
    if a != a and b != b:
        return True
    return a == b


def _diff_state(
    ref_regs: Sequence[float], ref_mem: Dict[int, float],
    got_regs: Sequence[float], got_mem: Dict[int, float],
) -> Optional[str]:
    """First architectural-state difference, or None when identical."""
    for reg in range(NUM_ARCH_REGS):
        if not _same_value(ref_regs[reg], got_regs[reg]):
            return (
                f"{reg_name(reg)}: reference {ref_regs[reg]!r}, "
                f"committed replay {got_regs[reg]!r}"
            )
    for addr in sorted(set(ref_mem) | set(got_mem)):
        if not _same_value(ref_mem.get(addr, 0), got_mem.get(addr, 0)):
            return (
                f"mem[{addr}]: reference {ref_mem.get(addr, 0)!r}, "
                f"committed replay {got_mem.get(addr, 0)!r}"
            )
    return None


# ----------------------------------------------------------------------
# the differential run
# ----------------------------------------------------------------------
def run_reference(
    spec: Sequence[SpecItem], max_ops: int = DEFAULT_MAX_OPS
):
    """Assemble + functionally execute a spec.

    Returns ``(program, trace, final_regs, final_mem)``.  Propagates
    :class:`ExecutionLimitExceeded` for non-halting variants (the
    shrinker uses this to reject them).
    """
    program = assemble(spec)
    executor = FunctionalExecutor(program)
    trace = executor.run(max_ops=max_ops)
    return program, trace, list(executor.registers), dict(executor.memory)


def check_arch(
    program: Program,
    trace,
    ref_regs: Sequence[float],
    ref_mem: Dict[int, float],
    arch: str,
    width: int = 8,
    check_invariants: bool = True,
    max_cycles: int = 5_000_000,
) -> Optional[Failure]:
    """Run one scheduler config against the reference; None when clean."""
    commits = CommitLog(trace)
    pipe = Pipeline(
        trace,
        config_for(arch, width),
        check_invariants=check_invariants,
        observers=[commits, StallAttribution()],
    )
    try:
        result = pipe.run(max_cycles=max_cycles)
    except InvariantViolation as exc:
        return Failure(arch=arch, kind="invariant", detail=str(exc))
    except SimulationDeadlock as exc:
        return Failure(arch=arch, kind="deadlock", detail=str(exc))
    except Exception as exc:  # noqa: BLE001 - any crash is a finding
        return Failure(
            arch=arch, kind="crash",
            detail=f"{type(exc).__name__}: {exc}",
        )
    seqs = [op.seq for op in commits.ops]
    if seqs != list(range(len(trace))):
        return Failure(
            arch=arch, kind="commit_stream",
            detail=_describe_stream_diff(seqs, len(trace)),
        )
    if result.stats.committed != len(trace):
        return Failure(
            arch=arch, kind="commit_stream",
            detail=(
                f"stats.committed={result.stats.committed}, "
                f"trace has {len(trace)} ops"
            ),
        )
    try:
        got_regs, got_mem = replay_commits(program, commits.ops)
    except ReplayMismatch as exc:
        return Failure(arch=arch, kind="arch_state", detail=str(exc))
    diff = _diff_state(ref_regs, ref_mem, got_regs, got_mem)
    if diff is not None:
        return Failure(arch=arch, kind="arch_state", detail=diff)
    return None


def _describe_stream_diff(seqs: List[int], expected_len: int) -> str:
    expected = list(range(expected_len))
    if len(seqs) != expected_len:
        return f"committed {len(seqs)} ops, trace has {expected_len}"
    for index, (got, want) in enumerate(zip(seqs, expected)):
        if got != want:
            return (
                f"commit stream diverges at position {index}: "
                f"committed seq {got}, expected {want}"
            )
    return "commit stream mismatch"


def run_spec(
    spec: Sequence[SpecItem],
    arches: Sequence[str] = FIG11_ARCHES,
    width: int = 8,
    check_invariants: bool = True,
    max_ops: int = DEFAULT_MAX_OPS,
    stop_at_first: bool = False,
) -> List[Failure]:
    """Run one program spec through every config; return all failures."""
    program, trace, ref_regs, ref_mem = run_reference(spec, max_ops=max_ops)
    failures: List[Failure] = []
    for arch in arches:
        failure = check_arch(
            program, trace, ref_regs, ref_mem, arch,
            width=width, check_invariants=check_invariants,
        )
        if failure is not None:
            failures.append(failure)
            if stop_at_first:
                break
    return failures
