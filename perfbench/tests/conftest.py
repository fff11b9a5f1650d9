"""Put the benchmark and the simulator source on the import path."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402

run.bootstrap()
