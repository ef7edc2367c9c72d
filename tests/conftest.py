"""Name the numeric path a test run takes.

The optimizer's last bits, and with them the step counts and digests that
``tests/test_optimize.py`` pins, follow numpy's SIMD loops for float64
``exp``, ``exp2`` and ``log2``, which numpy picks by CPU feature.  The report
header records that choice, so a failing log shows which path it ran on; a
``-q`` run, which prints no header, gets the same lines in its summary.
"""

import os

import numpy as np


def numeric_path():
    lines = [f"numpy {np.__version__}"]
    try:
        info = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 only prints its configuration
        info = {}
    simd = info.get("SIMD Extensions", {})
    lines.append("numpy SIMD: found " + (", ".join(simd.get("found", [])) or "-")
                 + "; not found " + (", ".join(simd.get("not found", [])) or "-"))
    blas = info.get("Build Dependencies", {}).get("blas", {})
    lines.append(f"BLAS: {blas.get('name', 'unknown')} {blas.get('version', '')}".rstrip())
    for name in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE"):
        if name in os.environ:
            lines.append(f"{name}={os.environ[name]}")
    return lines


def pytest_report_header(config):
    return numeric_path()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if config.get_verbosity() < 0:
        terminalreporter.write_sep("-", "numeric path")
        for line in numeric_path():
            terminalreporter.write_line(line)
