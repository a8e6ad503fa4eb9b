"""Benchmarks import switchsim from this checkout's src/, whatever else is
installed, so that they time the code beside them."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
