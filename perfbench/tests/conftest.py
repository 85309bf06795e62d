"""Make ``perfbench`` importable when the self-tests run from the
repository root: ``python3 -m pytest perfbench/tests``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
