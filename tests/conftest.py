"""Puts this checkout's src on the import path after PYTHONPATH, so the
suite runs uninstalled and PYTHONPATH=<other checkout>/src tests that
checkout's sources instead."""

import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
if SRC not in sys.path:
    sys.path.append(SRC)
