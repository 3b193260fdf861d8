"""Makes the benchmark import ``leoroute`` from this checkout's ``src/``."""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


def use_checkout_src() -> None:
    """Put ``src/`` first on the import path and refuse any other ``leoroute``.

    Raises:
        SystemExit: If ``src/leoroute`` is missing or another copy of the
            package would be imported instead.
    """
    if not (SRC_DIR / "leoroute" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no leoroute package under {SRC_DIR}")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    import leoroute

    if Path(leoroute.__file__).resolve().parent != SRC_DIR / "leoroute":
        raise SystemExit(f"benchmark: imported leoroute from {leoroute.__file__}")
