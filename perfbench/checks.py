"""Output checks; every failed check is one failed operation.

The counts feed ``attempted`` / ``failed`` and ``failed_frac``; any
failure makes the run exit non-zero.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from support import digest


class Checker:
    """Counts operations and the ones whose output is wrong.

    Args:
        golden: Digests recorded at the default seed, keyed by cell
            key, or ``None`` at any other seed.
    """

    def __init__(self, golden: Optional[Dict[str, str]] = None):
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: cell key -> digest of the cell's first result in this run
        self.first_digest: Dict[str, str] = {}

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def operation(self, problems: List[str], label: str) -> bool:
        """Count one operation; it failed when ``problems`` is non-empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(f"{label}: {problem}" for problem in problems)
            return False
        return True

    def result_problems(self, key: str, result: Dict, trace_len: int,
                        issue_width: int, full_detail: bool) -> List[str]:
        """What is wrong with one ``SimResult.to_dict()`` payload.

        * committed µops must equal the trace length and IPC must not
          exceed the issue width (any seed);
        * a cell seen before in this run must repeat its first digest;
        * at the default seed a full-detail cell must match the
          recorded digest.
        """
        problems = []
        stats = result["stats"]
        if stats["committed"] != trace_len:
            problems.append(f"committed {stats['committed']} != trace "
                            f"length {trace_len}")
        cycles = stats["cycles"]
        if cycles <= 0 or stats["committed"] / cycles > issue_width:
            problems.append(f"IPC {stats['committed']}/{cycles} exceeds "
                            f"issue width {issue_width}")
        got = digest(result)
        first = self.first_digest.setdefault(key, got)
        if first != got:
            problems.append(f"digest {got} differs from the cell's first "
                            f"run {first}")
        if full_detail and self.golden is not None:
            expected = self.golden.get(key)
            if expected != got:
                problems.append(f"digest {got} != recorded {expected}")
        return problems

    def check_result(self, key: str, result: Dict, trace_len: int,
                     issue_width: int, full_detail: bool) -> bool:
        return self.operation(
            self.result_problems(key, result, trace_len, issue_width,
                                 full_detail), key)
