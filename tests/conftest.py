"""Shared naive reference implementations and the kernel fixtures.

The references are written directly from the arc definitions with plain
loops and sets, independently of the package's closed-form run images and
bitset kernels, so tests can compare optimized code against an artifact
that is obviously correct.
"""

from __future__ import annotations

import importlib.util
import itertools
import shutil
import subprocess
import sys
import sysconfig
from math import gcd
from pathlib import Path

import pytest

from dbkdom import _cover_py, oracle

ROOT = Path(__file__).resolve().parents[1]


def naive_out_neighbors(family: str, n: int, d: int, v: int) -> set[int]:
    if family == "debruijn":
        return {(d * v + i) % n for i in range(d)}
    if family == "kautz":
        return {(-d * v - i) % n for i in range(1, d + 1)}
    raise ValueError(family)


def translation_order(family: str, n: int, d: int) -> int:
    """g, the order of the translation group: x -> x + n/g maps the arcs
    x -> d*x + i (de Bruijn) or x -> -d*x - i (Kautz) onto themselves
    because d*(n/g) or -d*(n/g) is n/g mod n."""
    return gcd(d - 1 if family == "debruijn" else d + 1, n)


def naive_image(family: str, n: int, d: int, s: set[int]) -> set[int]:
    out: set[int] = set()
    for v in s:
        out |= naive_out_neighbors(family, n, d, v)
    return out


def naive_ball(family: str, n: int, d: int, s: set[int], k: int) -> set[int]:
    covered = set(s)
    frontier = set(s)
    for _ in range(k):
        frontier = naive_image(family, n, d, frontier)
        covered |= frontier
    return covered


def naive_is_dominating(family: str, n: int, d: int,
                        members, k: int) -> bool:
    return len(naive_ball(family, n, d, set(members), k)) == n


def naive_gamma(family: str, n: int, d: int, k: int) -> int:
    """Minimum size by raw subset enumeration; only sane for tiny n."""
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            if naive_is_dominating(family, n, d, combo, k):
                return size
    raise AssertionError("unreachable: the full vertex set dominates")


def power_sum_run(d: int, m: int, k: int) -> tuple[int, list[int]]:
    """The paper's run for the degree power n = d**m: (L, members).

    Repeatedly splitting d**m = S*(d-1)*d**(m-(k+1)) + d**(m-(k+1)), with
    S = 1 + d + ... + d**k, telescopes into d**m = S*(d-1)*x + d**(m mod
    (k+1)) with x the sum of d**(m - j*(k+1)) for j = 1..m // (k+1).  So
    L = ceil(n/S) = (d-1)*x + 1 and the run is {x, ..., x + L - 1}; for
    m <= k, x = 0 and the run is the single vertex 0.
    """
    n = d ** m
    size = -(-n // sum(d ** j for j in range(k + 1)))
    x = sum(d ** (m - j * (k + 1)) for j in range(1, m // (k + 1) + 1))
    return size, [(x + i) % n for i in range(size)]


def build_kernel(out: Path, env=None):
    """Run ``setup.py build_ext`` with ``out`` as its build and temp dirs:
    (the finished process, the path the compiled kernel is built at)."""
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(out), "--build-temp", str(out)],
        cwd=ROOT, capture_output=True, text=True, env=env)
    return build, out / "dbkdom" / ("_cover_ext"
                                     + sysconfig.get_config_var("EXT_SUFFIX"))


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """The compiled kernel, built from this checkout into a temp dir.

    Skips only when there is no C compiler.  setup.py marks the extension
    optional, so a failed build only warns and installs fall back to the
    pure kernel; here a compiler without a module is a failure, shown with
    the build output.
    """
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        pytest.skip(f"C compiler {cc!r} not on PATH")
    build, path = build_kernel(tmp_path_factory.mktemp("cover_ext"))
    if not path.exists():
        pytest.fail(f"{cc} is on PATH but setup.py built no {path.name}:\n"
                    f"{build.stdout}\n{build.stderr}", pytrace=False)
    # loaded from its path: sys.modules and src/ are left alone
    spec = importlib.util.spec_from_file_location("dbkdom._cover_ext", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.BACKEND == "compiled"
    return module


@pytest.fixture(params=["pure", "compiled"])
def kernel(request):
    """Each kernel module in turn."""
    if request.param == "pure":
        return _cover_py
    return request.getfixturevalue("compiled")


@pytest.fixture
def oracle_kernel(kernel, monkeypatch):
    """Each kernel module in turn, as the one the oracle searches with."""
    monkeypatch.setattr(oracle, "_kernel", kernel)
    return kernel
