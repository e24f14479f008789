"""Core configurations (paper Tables I and II).

:func:`config_for` builds a :class:`CoreConfig` for any evaluated
microarchitecture at any issue width:

====================  =====================================================
``arch`` key          Meaning
====================  =====================================================
``inorder``           stall-on-use in-order core (InO)
``ooo``               baseline out-of-order IQ
``ooo_oldest``        OoO + oldest-first selection (Fig. 11 rightmost bars)
``ces``               clustered P-IQs [Palacharla'97]
``ces_mda``           CES + M-dependence-aware steering (Fig. 13)
``casino``            cascaded S-IQs [HPCA'20]
``fxa``               in-order IXU + half-size OoO back end [MICRO'14]
``ballerino_step1``   S-IQ + P-IQs, R-dependence steering only
``ballerino_step2``   step 1 + MDA steering
``ballerino``         step 2 + P-IQ sharing (the full design, 8 S/P-IQs)
``ballerino_ideal``   sharing without the implementation constraints
``ballerino12``       Ballerino with 1 S-IQ + 11 P-IQs
====================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from ..memory.hierarchy import HierarchyConfig


@dataclass(frozen=True)
class SchedulerParams:
    """Scheduling-window configuration (paper Table II)."""

    kind: str
    iq_size: int = 96  # unified IQ entries (inorder / ooo / fxa back end)
    oldest_first: bool = False
    num_piqs: int = 8  # CES / Ballerino P-IQ count (incl. S-IQ for Ballerino)
    piq_size: int = 12
    siq_size: int = 8
    siq_window: int = 4  # ops examined at the S-IQ head per cycle
    mda_steering: bool = False
    piq_sharing: bool = False
    ideal_sharing: bool = False
    casino_queues: Tuple[int, ...] = (8, 40, 40, 8)
    casino_window: int = 4
    ixu_depth: int = 3


@dataclass(frozen=True)
class CoreConfig:
    """Full core + memory configuration (paper Table I)."""

    name: str
    scheduler: SchedulerParams
    issue_width: int = 8
    decode_width: int = 4  # decode & dispatch width
    commit_width: int = 8
    frequency_ghz: float = 3.4
    voltage: float = 1.04
    rob_size: int = 224
    lq_size: int = 72
    sq_size: int = 56
    phys_int: int = 180
    phys_fp: int = 168
    recovery_penalty: int = 11
    alloc_queue: int = 64  # decode->rename buffering (window analysis: 160 total)
    fetch_latency: int = 3  # fetch+decode pipeline depth
    rename_latency: int = 2  # two-stage pipelined renaming (paper SIV-B)
    mdp_enabled: bool = True
    #: Forward-progress watchdog: raise
    #: :class:`~repro.core.pipeline.DeadlockError` (with a pipeline
    #: snapshot) when no µop commits for this many consecutive cycles.
    #: ``0`` disables the watchdog (the ``max_cycles`` bound still holds).
    deadlock_cycles: int = 100_000
    #: Sampled-simulation knobs (see :mod:`repro.core.sampling`).  With
    #: ``sample_period == 0`` (the default) every cycle is simulated in
    #: detail; a positive period makes :func:`~repro.core.pipeline.
    #: simulate` alternate fast-forward / detailed-warmup / measured
    #: windows and return an extrapolated, ``sampled=True`` result.
    sample_period: int = 0  # µops between measured-window starts
    sample_window: int = 2_000  # committed µops measured per window
    #: Detailed-but-unmeasured cycles at the start of each window.  The
    #: default of 0 measures the whole window (fast-forward does the
    #: warming) — in practice the most accurate protocol, because a
    #: mid-flight measurement boundary cuts through in-flight work
    #: (see docs/performance.md).
    warmup_cycles: int = 0
    ff_width: int = 8  # µops retired per fast-forward cycle
    #: Train the front end / caches / MDP on only the last N fast-forward
    #: µops before each window (0 = train on the whole gap).  Bounding
    #: the warming work makes fast-forward cost independent of the gap
    #: length at some accuracy cost on cold-miss-heavy workloads.
    ff_warmup_ops: int = 0
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)


#: width -> (freq, decode, rob, lq, sq, phys_int, phys_fp, unified_iq)
_WIDTH_PARAMS: Dict[int, Tuple] = {
    2: (2.0, 2, 48, 24, 16, 64, 64, 32),
    4: (2.5, 4, 128, 48, 32, 128, 96, 64),
    8: (3.4, 4, 224, 72, 56, 180, 168, 96),
    10: (3.4, 5, 352, 128, 72, 280, 224, 120),
}

#: width -> CES P-IQ count (Ballerino spends one of these slots on its S-IQ)
_CES_PARAMS: Dict[int, int] = {2: 2, 4: 4, 8: 8, 10: 10}
_CES_SIZE: Dict[int, int] = {2: 16, 4: 16, 8: 12, 10: 12}

_CASINO_PARAMS: Dict[int, Tuple[Tuple[int, ...], int]] = {
    2: ((4, 28), 2),
    4: ((6, 52, 6), 3),
    8: ((8, 40, 40, 8), 4),
    10: ((8, 40, 40, 8), 4),
}

_FXA_IQ: Dict[int, int] = {2: 16, 4: 32, 8: 48, 10: 80}

_BALLERINO_PARAMS: Dict[int, Tuple[int, int, int]] = {
    # width -> (siq_size, num_piqs, piq_size)
    2: (4, 1, 16),
    4: (8, 3, 16),
    8: (8, 7, 12),
    10: (8, 9, 12),
}


def _scheduler_for(arch: str, width: int, num_piqs: Optional[int],
                   piq_size: Optional[int]) -> SchedulerParams:
    unified_iq = _WIDTH_PARAMS[width][7]
    if arch == "inorder":
        return SchedulerParams(kind="inorder", iq_size=unified_iq)
    if arch == "ooo":
        return SchedulerParams(kind="ooo", iq_size=unified_iq)
    if arch == "ooo_oldest":
        return SchedulerParams(kind="ooo", iq_size=unified_iq, oldest_first=True)
    if arch in ("ces", "ces_mda"):
        return SchedulerParams(
            kind="ces",
            num_piqs=num_piqs if num_piqs is not None else _CES_PARAMS[width],
            piq_size=piq_size if piq_size is not None else _CES_SIZE[width],
            mda_steering=(arch == "ces_mda"),
        )
    if arch == "casino":
        queues, window = _CASINO_PARAMS[width]
        return SchedulerParams(
            kind="casino", casino_queues=queues, casino_window=window
        )
    if arch == "fxa":
        return SchedulerParams(kind="fxa", iq_size=_FXA_IQ[width])
    if arch == "spq":
        # extension design (related work SVII): parallel priority queues
        # ordered by predicted issue time, same entry budget as CES
        return SchedulerParams(
            kind="spq",
            num_piqs=_CES_PARAMS[width],
            piq_size=_CES_SIZE[width],
        )
    if arch == "dnb":
        # extension design (related work SVII): small OoO IQ + bypass +
        # delay queues sized to the same overall entry budget
        return SchedulerParams(
            kind="dnb",
            iq_size=max(8, unified_iq // 4),
            num_piqs=max(2, width // 2),  # delay queues
            piq_size=12,
            siq_size=max(4, unified_iq // 8),  # bypass queue
        )
    if arch.startswith("ballerino"):
        siq, piqs, size = _BALLERINO_PARAMS[width]
        if arch == "ballerino12":
            piqs = 11
        if num_piqs is not None:
            piqs = num_piqs
        if piq_size is not None:
            size = piq_size
        step1 = arch == "ballerino_step1"
        step2 = arch == "ballerino_step2"
        return SchedulerParams(
            kind="ballerino",
            siq_size=siq,
            siq_window=min(_WIDTH_PARAMS[width][1], siq),
            num_piqs=piqs,
            piq_size=size,
            mda_steering=not step1,
            piq_sharing=not (step1 or step2),
            ideal_sharing=(arch == "ballerino_ideal"),
        )
    raise ValueError(f"unknown microarchitecture: {arch}")


def config_for(
    arch: str,
    width: int = 8,
    num_piqs: Optional[int] = None,
    piq_size: Optional[int] = None,
    frequency_ghz: Optional[float] = None,
    voltage: Optional[float] = None,
) -> CoreConfig:
    """Build the configuration for microarchitecture ``arch`` at ``width``.

    ``num_piqs`` / ``piq_size`` override the Table II defaults for the
    sensitivity sweeps (Figures 6b and 17c); ``frequency_ghz`` / ``voltage``
    support the DVFS study (Figure 17b).
    """
    if width not in _WIDTH_PARAMS:
        raise ValueError(f"unsupported issue width: {width}")
    freq, decode, rob, lq, sq, pint, pfp, _ = _WIDTH_PARAMS[width]
    scheduler = _scheduler_for(arch, width, num_piqs, piq_size)
    name = f"{arch}-{width}w"
    if num_piqs is not None:
        name += f"-p{num_piqs}"
    if piq_size is not None:
        name += f"-s{piq_size}"
    return CoreConfig(
        name=name,
        scheduler=scheduler,
        issue_width=width,
        decode_width=decode,
        commit_width=width,
        frequency_ghz=frequency_ghz if frequency_ghz is not None else freq,
        voltage=voltage if voltage is not None else 1.04,
        rob_size=rob,
        lq_size=lq,
        sq_size=sq,
        phys_int=pint,
        phys_fp=pfp,
        recovery_penalty=8 if arch == "inorder" else 11,
        mdp_enabled=(arch != "inorder"),
    )


#: All microarchitectures evaluated in Figure 11 (8-wide).
FIG11_ARCHES = (
    "inorder",
    "ces",
    "casino",
    "fxa",
    "ballerino",
    "ballerino12",
    "ooo",
    "ooo_oldest",
)

#: Step-by-step designs of Figure 13.
FIG13_ARCHES = (
    "ces",
    "ces_mda",
    "ballerino_step1",
    "ballerino_step2",
    "ballerino",
    "ballerino_ideal",
)
