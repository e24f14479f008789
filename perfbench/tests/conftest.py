"""Make the benchmark modules and the simulator importable in tests."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import support  # noqa: E402

support.scrub_environment()
support.import_repro()
