"""The package convolves by one rule, ``kernels.conv_rows``.

``np.convolve`` adds its products in an order of its own, which can differ
between CPUs.  It stays in two places only: ``pmf.convolve``, which the
tests pin byte for byte against it, and the independent splitting
reference of ``suites.decomposition_suite``.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "maxentsum"


def np_convolve_callers():
    """(module, top-level function) of every ``np.convolve`` call in the package."""
    callers = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and node.attr == "convolve"
                        and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
                    callers.append((path.name, getattr(top, "name", None)))
    return callers


def test_np_convolve_stays_in_its_two_places():
    assert np_convolve_callers() == [("pmf.py", "convolve"), ("suites.py", "decomposition_suite")]
