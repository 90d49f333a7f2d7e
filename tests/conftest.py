"""Make src/ importable by the `python -m uccsim.cli` child processes some tests start."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    part for part in (_SRC, os.environ.get("PYTHONPATH")) if part)
