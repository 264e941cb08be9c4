"""Locate the coverkit sources of the checkout the benchmark runs in.

The benchmark always measures the package under ``<root>/src``, never an
installed copy: the path is put first on ``sys.path`` here and first on
``PYTHONPATH`` for every child interpreter.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingSource(RuntimeError):
    pass


def use_checkout_source() -> None:
    """Make ``import coverkit`` load ``<root>/src/coverkit`` or raise."""
    if not (SRC / "coverkit" / "__init__.py").is_file():
        raise MissingSource(f"no coverkit package under {SRC}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    import coverkit

    if Path(coverkit.__file__).resolve().parent != SRC / "coverkit":
        raise MissingSource(f"coverkit imported from {coverkit.__file__}, not from {SRC}")


def child_env() -> dict[str, str]:
    """Environment for a child interpreter that must import the same sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env
