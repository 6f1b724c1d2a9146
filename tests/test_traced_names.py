"""Every exported name and every name the benchmark's traced run wraps
exists on its module.

``perfbench/tracing.py`` wraps package functions by attribute name, and
perfbench's own tests sit outside these test paths, so without this check a
renamed or deleted function would break traced runs with every test here
still passing.  The tracing module imports only the standard library.
"""

import importlib.util
from pathlib import Path

import dbkdom
import dbkdom.cli  # noqa: F401  (tracing reads dbkdom.cli)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.targets(dbkdom)
    missing = [(owner.__name__, attr) for owner, attr, _, _ in targets
               if not callable(getattr(owner, attr, None))]
    assert targets and missing == []


def test_every_exported_name_resolves():
    missing = [name for name in dbkdom.__all__
               if not hasattr(dbkdom, name)]
    assert missing == []
    namespace = {}
    exec("from dbkdom import *", namespace)
    assert set(dbkdom.__all__) <= namespace.keys()
