"""Puts `src` on PYTHONPATH as well, so that the CLI tests' child processes
import the package from a fresh checkout just as pytest itself does (the
`pythonpath` setting in pyproject.toml reaches only this process)."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
