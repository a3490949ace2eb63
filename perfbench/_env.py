"""Process set-up shared by the benchmark's entry points.

Imported before numpy, so the thread pins reach the BLAS/OpenMP runtimes
when they load. Holds no heavy imports of its own.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# One BLAS/OpenMP thread per process, so a run at jobs=N starts no more
# compute threads than N workers plus the idle parent.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def bootstrap() -> None:
    """Pin threads and put the checkout's own ``src`` first on the path.

    Exits with status 2 when the checkout holds no package source, so the
    benchmark never measures some other installed copy of newsvb.
    """
    os.environ.update(THREAD_ENV)
    if not (SRC / "newsvb" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def check_package(module) -> None:
    """Exit with status 2 unless ``module`` was imported from ``SRC``."""
    origin = Path(module.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        print(f"perfbench: imported {origin}, not the checkout's source", file=sys.stderr)
        raise SystemExit(2)
