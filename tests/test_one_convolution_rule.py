"""The package convolves by one rule, ``kernels.conv_rows``, sums entropies
by one rule, ``kernels.entropy_rows``, and sums a suite batch's coordinates
by one rule, ``kernels.sum_rows``.

``np.convolve`` adds its products in an order of its own, which can differ
between CPUs.  It stays in two places only: ``pmf.convolve``, which the
tests pin byte for byte against it, and the independent splitting
reference of ``suites.decomposition_suite``.

BLAS products (``@``, ``np.dot``, ``np.matmul``) round in an order that
depends on the BLAS core the CPU selects.  Each place that keeps one is
listed below with its reason, and the values the package promises to be
the same on every CPU are compared against a run on another core.

Work runs on the calling thread: no module imports a thread or process
library, so no setting can change how jobs are scheduled.
"""

import ast
import hashlib
import json
import os
import pathlib
import platform
import subprocess
import sys

import numpy as np
import pytest

from maxentsum import entropy_lower_bound, sum_distribution
from maxentsum.kernels import fold_rows
from maxentsum.optimize import grid_oracle

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "maxentsum"

#: The calls that may hand a sum to BLAS or to numpy's own summation order.
BLAS_CALLS = ("dot", "matmul", "convolve")

#: (module, top-level definition) of every place that may round by BLAS.
BLAS_SITES = {
    # A block's sum law, gradient and curvature by Toeplitz products, the
    # optimizer's hot path: start values and step counts may differ between CPUs.
    ("kernels.py", "block_rows"),
    # The grid oracle's incumbent, a float product that only sets the bound
    # pass's pruning cut 1e-12 bits under it: the oracle's bits do not depend
    # on its last bit.
    ("optimize.py", "_near_best_heads"),
    # The per-object Pmf API, faster per call than the kernels.
    ("pmf.py", "_entropy_bits"),
    ("pmf.py", "convolve"),
    # The splitting reference, deliberately another rule than the package's.
    ("suites.py", "decomposition_suite"),
}


#: (module, top-level definition, call) of every ``.sum(`` and
#: ``np.add.reduce(`` call in the suite modules.  numpy sums a contiguous row
#: of 8+ entries pairwise but a column in order, so a sum over a batch's
#: coordinates goes through ``kernels.sum_rows`` instead.
SUITE_SUMS = [
    # A count of flagged rows: integers add exactly in any order.
    ("suites.py", "sign_suite", "hypothesis.sum()"),
]


def package_nodes():
    """(module, top-level definition, node) of every node of the package, in file order."""
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                yield path.name, getattr(top, "name", None), node


def callers(matches):
    """(module, top-level definition) of each node of the package that
    ``matches``, in file order."""
    return [(module, top) for module, top, node in package_nodes() if matches(node)]


def np_convolve_callers():
    """(module, top-level function) of every ``np.convolve`` call in the package."""
    return callers(lambda node: isinstance(node, ast.Attribute) and node.attr == "convolve"
                   and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))


def blas_sites():
    """Where the package has an ``@``, an ``@=`` or an attribute named in ``BLAS_CALLS``."""
    return set(callers(
        lambda node: isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        or isinstance(node, ast.Attribute) and node.attr in BLAS_CALLS
    ))


def is_sum_call(node) -> bool:
    """``x.sum(...)``, ``np.sum(...)`` or ``np.add.reduce(...)``."""
    func = node.func if isinstance(node, ast.Call) else None
    return isinstance(func, ast.Attribute) and (
        func.attr == "sum"
        or func.attr == "reduce" and isinstance(func.value, ast.Attribute) and func.value.attr == "add"
    )


def suite_sums():
    """(module, top-level definition, call) of every sum call in ``ulc`` and ``suites``."""
    return [(module, top, ast.unparse(node)) for module, top, node in package_nodes()
            if module in ("ulc.py", "suites.py") and is_sum_call(node)]


def test_np_convolve_stays_in_its_two_places():
    assert np_convolve_callers() == [("pmf.py", "convolve"), ("suites.py", "decomposition_suite")]


def test_blas_stays_in_its_listed_places():
    assert sorted(blas_sites()) == sorted(BLAS_SITES)


def test_suite_sums_stay_in_their_listed_places():
    assert suite_sums() == SUITE_SUMS


#: Top-level modules that would let the package schedule work off the calling thread.
CONCURRENCY_MODULES = {"threading", "concurrent", "multiprocessing"}


def imported_modules(node) -> list[str]:
    """Absolute module names an ``import`` or ``from ... import`` node names."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []


def test_no_module_imports_threads_or_processes():
    assert [(module, name) for module, _, node in package_nodes()
            for name in imported_modules(node)
            if name.split(".")[0] in CONCURRENCY_MODULES] == []


def test_the_import_guard_sees_every_spelling():
    imports = ["import threading", "from concurrent.futures import ThreadPoolExecutor",
               "import multiprocessing.pool as mp", "from threading import Thread"]
    assert [imported_modules(ast.parse(line).body[0])[0].split(".")[0] for line in imports] == [
        "threading", "concurrent", "multiprocessing", "threading"]
    assert imported_modules(ast.parse("from .threading import x").body[0]) == []


def test_the_sum_guard_sees_every_spelling():
    calls = ["cls.sum(axis=1)", "np.sum(cls, axis=-1)", "np.add.reduce(cls, axis=1)"]
    assert all(is_sum_call(ast.parse(call).body[0].value) for call in calls)
    assert not any(is_sum_call(ast.parse(call).body[0].value)
                   for call in ["sum(parts)", "sum_rows(cls)", "np.maximum.reduce(cls, axis=1)"])


def _sha(parts) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _hexed(value):
    if isinstance(value, dict):
        return {key: _hexed(item) for key, item in value.items()}
    return value.hex() if isinstance(value, float) else value


def bit_digests() -> dict:
    """SHA-256 of the exact bits of each result that must not depend on the CPU."""
    rng = np.random.default_rng(20240)
    shapes = [(1, 2), (3, 3), (5, 4), (12, 3), (30, 2), (9, 11)]
    inputs = [rng.dirichlet(np.ones(m), size=n) for n, m in shapes]
    blocks = [rng.dirichlet(np.ones(m), size=(rows, count)) for rows, count, m in
              [(7, 5, 4), (3, 12, 3), (2, 30, 2), (5, 9, 11)]]
    return {
        "entropy_lower_bound": _sha(
            json.dumps(_hexed(entropy_lower_bound(n, r).as_dict()), sort_keys=True)
            for n in range(1, 41) for r in range(1, 9)
        ),
        "sum_distribution": _sha(
            sum_distribution(list(rows)).probs.tobytes().hex() for rows in inputs
        ),
        "fold_rows": _sha(fold_rows(b).tobytes().hex() for b in blocks),
        # At (2, 2, 48) the grid oracle's bound pass takes ascent steps and prunes.
        "grid_oracle": _sha(
            grid_oracle(*args).hex() for args in [(2, 2, 12), (3, 2, 6), (1, 3, 10), (2, 2, 48)]
        ),
    }


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE names x86-64 cores")
def test_results_do_not_depend_on_the_blas_core():
    # Prescott is OpenBLAS's plain SSE3 core; its dot product adds in another
    # order than the AVX cores that a DYNAMIC_ARCH build picks on newer CPUs.
    script = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(ROOT / 'tests')!r}, {str(ROOT / 'src')!r}]\n"
        "from test_one_convolution_rule import bit_digests\n"
        "print(json.dumps(bit_digests()))\n"
    )
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott"}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert json.loads(done.stdout) == bit_digests()
