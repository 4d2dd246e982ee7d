"""The tests import ``jetchar`` from ``src`` (``pythonpath`` in
pyproject.toml); the child processes they start get the same path, so the
suite runs from a clean checkout without an install."""
import os
from pathlib import Path

os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(Path(__file__).resolve().parents[1] / "src")]
    + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
