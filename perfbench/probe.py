"""Set-up probe: the work a fresh interpreter does before measuring.

    python3 perfbench/probe.py WORKLOAD SEED

imports dbkdom from this checkout's ``src``, selects the search kernel,
generates the workload's inputs and prints ``ready <digest of the inputs>``.
``run.py`` times it from process start to that line.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def load_dbkdom():
    """Import dbkdom from this checkout's ``src``; exit 2 when it is not
    there rather than measure some other copy."""
    src = ROOT / "src"
    if not (src / "dbkdom" / "__init__.py").is_file():
        print(f"error: no dbkdom sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import dbkdom
    import dbkdom.cli
    if Path(dbkdom.__file__).resolve().parent != src / "dbkdom":
        print(f"error: imported dbkdom from {dbkdom.__file__}",
              file=sys.stderr)
        sys.exit(2)
    return dbkdom


def digest(workload: workloads.Workload) -> str:
    return hashlib.sha256(repr(workload).encode()).hexdigest()


if __name__ == "__main__":
    dbkdom = load_dbkdom()
    dbkdom.kernel_backend()
    print("ready", digest(workloads.generate(sys.argv[1], int(sys.argv[2]))),
          flush=True)
