"""Command-line harness for bounds, constructions, optimization runs and suites.

Settings resolve in the order: command-line flag, then ``--config`` file
(plain ``key = value`` lines), then ``MAXENT_*`` environment variables, then
built-in defaults; a ``MAXENT_*`` variable that no subcommand reads is a usage
error.  Exit codes: 0 success or clean verification, 1 a verification suite
found violations (or a strict-conjecture sweep saw a positive gap), 2 usage
error, 3 domain error or out of memory, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from contextlib import nullcontext

from . import suites
from .bounds import SPECIAL_GENERAL, conjectured_inputs, entropy_lower_bound
from .errors import DomainError, MaxentsumError, check_count
from .optimize import OptimizerConfig, multistart_maximize, restricted_maximize
from .pmf import sum_distribution, write_pmf

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4

CSV_HEADER = (
    "n,r,bound_bits,numeric_max_bits,gap,proven_case,"
    "starts_used,converged_fraction,wall_time_ms"
)

#: The settings each ``verify`` suite reads, with the CLI's default for each.
SUITE_SETTINGS = {
    "ulc": {"n": 2, "r": 2},
    "identity": {},
    "sign": {},
    "preserve": {},
    "decomposition": {"r": None},
}
SUITE_NAMES = tuple(SUITE_SETTINGS)

#: ``sweep``'s default gap tolerance: a larger gap is a potential counterexample.
SWEEP_GAP_TOL = 1e-6

#: Type and help of every setting; ``bool`` settings are flags without a value.
SETTINGS = {
    "n": (int, "number of summands"),
    "r": (int, "variables take values in {0, ..., r}"),
    "ell": (int, "restrict blocks ell+1..n to the two-point support {0, r}"),
    "n-max": (int, "largest n of the grid"),
    "r-max": (int, "largest r of the grid"),
    "starts": (int, "random optimizer starts"),
    "seed": (int, "deterministic master seed"),
    "tol": (float, "tolerance"),
    "trials": (int, "Monte Carlo trials"),
    "suite": (str, "verification suite"),
    "out": (str, "output file path"),
    "json": (bool, "machine-readable output"),
    "no-timing": (bool, "zero out wall-time columns for byte-stable output"),
    "strict-conjecture": (bool, "exit 1 when any gap exceeds the tolerance"),
}

#: Help for the settings whose meaning depends on the subcommand.
_HELP = {
    ("optimize", "tol"): f"optimizer outer tolerance (default {OptimizerConfig.outer_tol:g})",
    ("sweep", "tol"): f"gap above which a cell is a potential counterexample "
                      f"(default {SWEEP_GAP_TOL:g})",
    ("construct", "out"): "directory for the pmf files",
}

#: The settings each subcommand reads.  The parser, the ``--config`` key check
#: and the ``MAXENT_*`` lookup all come from this table.
COMMAND_SETTINGS = {
    "bound": ("n", "r", "json"),
    "construct": ("n", "r", "out"),
    "optimize": ("n", "r", "ell", "starts", "seed", "tol", "json"),
    "sweep": ("n-max", "r-max", "starts", "seed", "tol", "no-timing", "out", "strict-conjecture"),
    "verify": ("suite", "n", "r", "trials", "seed", "out"),
}


class _UsageError(Exception):
    pass


def _env_name(name: str) -> str:
    return "MAXENT_" + name.upper().replace("-", "_")


def _check_environment() -> None:
    """Reject a ``MAXENT_*`` variable that no subcommand reads, such as a typo."""
    # The thread setting is accepted but read by nothing: perfbench still sets it.
    known = {"MAXENT_THREADS"} | {_env_name(name) for name in SETTINGS}
    unknown = sorted(key for key in os.environ if key.startswith("MAXENT_") and key not in known)
    if unknown:
        raise _UsageError(f"unknown environment variables: {', '.join(unknown)}")


def _human(x: float) -> str:
    return f"{float(x):.12g}"


def _full(x: float) -> str:
    return repr(float(x))


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _load_config(path: str) -> dict[str, str]:
    settings: dict[str, str] = {}
    first_line: dict[str, int] = {}
    with open(path, "r", encoding="utf-8-sig") as fh:  # a leading BOM is not part of a key
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise _UsageError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in first_line:
                raise _UsageError(f"{path}: config key '{key}' is set twice, "
                                  f"on lines {first_line[key]} and {lineno}")
            first_line[key] = lineno
            settings[key] = value
    return settings


class _Settings:
    """Flag > config file > MAXENT_* environment > default, for one subcommand."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        try:
            self.config = _load_config(args.config) if args.config else {}
        except OSError as exc:
            raise _UsageError(f"cannot read config file: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise _UsageError(f"config file {args.config!r} is not UTF-8 text: {exc}") from exc
        unknown = [key for key in self.config if key not in COMMAND_SETTINGS[args.command]]
        if unknown:
            raise _UsageError(f"config keys not read by {args.command}: {', '.join(unknown)}")

    def given(self, name: str) -> bool:
        """Whether the flag or the config file sets ``name``."""
        return getattr(self.args, name.replace("-", "_")) is not None or name in self.config

    def get(self, name: str, default=None, required: bool = False):
        cast = SETTINGS[name][0]
        value = getattr(self.args, name.replace("-", "_"))
        if value is None and name in self.config:
            value = self._cast(cast, self.config[name], f"config key '{name}'")
        if value is None:
            env_name = _env_name(name)
            raw = os.environ.get(env_name)
            if raw is not None:
                value = self._cast(cast, raw, env_name)
        if value is None:
            value = default
        if required and value is None:
            raise _UsageError(f"missing required setting --{name}")
        return value

    def chosen(self, **params: str) -> dict:
        """``{parameter: value}`` for each ``parameter=setting`` that a user
        set; the callee's own defaults supply the rest."""
        values = {param: self.get(name) for param, name in params.items()}
        return {param: value for param, value in values.items() if value is not None}

    @staticmethod
    def _cast(cast, raw: str, origin: str):
        try:
            return _parse_bool(raw) if cast is bool else cast(raw)
        except ValueError as exc:
            raise _UsageError(f"bad value for {origin}: {raw!r}") from exc


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _cmd_bound(cfg: _Settings) -> int:
    n = cfg.get("n", required=True)
    r = cfg.get("r", required=True)
    report = entropy_lower_bound(n, r)
    if cfg.get("json", default=False):
        _print_json(report.as_dict())
    else:
        print(f"n = {report.n}")
        print(f"r = {report.r}")
        print(f"special_case = {report.special_case}")
        print(f"w0 = {_human(report.w0)}")
        print(f"bound_bits = {_human(report.bound_bits)}")
        print(f"binomial_term = {_human(report.terms.binomial_term)}")
        print(f"shifted_term = {_human(report.terms.shifted_term)}")
        print(f"weight_entropy = {_human(report.terms.weight_entropy)}")
    return EXIT_OK


def _cmd_construct(cfg: _Settings) -> int:
    n = cfg.get("n", required=True)
    r = cfg.get("r", required=True)
    out_dir = cfg.get("out", required=True)
    inputs = conjectured_inputs(n, r)
    names = [f"input_{i:02d}.pmf" for i in range(1, len(inputs) + 1)] + ["sum.pmf"]
    os.makedirs(out_dir, exist_ok=True)
    for name, pmf in zip(names, [*inputs, sum_distribution(inputs)]):
        path = os.path.join(out_dir, name)
        write_pmf(pmf, path)
        print(path)
    return EXIT_OK


def _optimizer_config(cfg: _Settings, **params: str) -> OptimizerConfig:
    """``OptimizerConfig`` with the optimizer settings a user set."""
    return OptimizerConfig(**cfg.chosen(starts="starts", seed="seed", **params))


def _cmd_optimize(cfg: _Settings) -> int:
    n = cfg.get("n", required=True)
    r = cfg.get("r", required=True)
    ell = cfg.get("ell")
    oc = _optimizer_config(cfg, outer_tol="tol")
    if ell is None:
        result = multistart_maximize(n, r, oc)
    else:
        result = restricted_maximize(n, r, ell, oc)
    bound = entropy_lower_bound(n, r).bound_bits
    if cfg.get("json", default=False):
        payload = result.as_dict()
        payload.update({"n": n, "r": r, "ell": ell, "bound_bits": float(bound)})
        _print_json(payload)
    else:
        scope = f"n = {n}, r = {r}" + (f", ell = {ell}" if ell is not None else "")
        print(scope)
        print(f"best_value = {_human(result.best_value)}")
        print(f"bound_bits = {_human(bound)}")
        print(f"gap = {_human(result.gap_to_bound)}")
        print(f"starts = {len(result.per_start)}")
        print(f"converged_fraction = {_human(result.converged_fraction())}")
        print(f"distinct_local_optima = {len(result.distinct_local_values())}")
    return EXIT_OK


def _cmd_sweep(cfg: _Settings) -> int:
    n_max = cfg.get("n-max", required=True)
    r_max = cfg.get("r-max", required=True)
    check_count("--n-max", n_max, 1)
    check_count("--r-max", r_max, 1)
    gap_tol = cfg.get("tol", default=SWEEP_GAP_TOL)
    if not (math.isfinite(gap_tol) and gap_tol >= 0.0):
        raise DomainError(f"--tol must be a finite number >= 0, got {gap_tol!r}")
    no_timing = cfg.get("no-timing", default=False)
    strict = cfg.get("strict-conjecture", default=False)
    oc = _optimizer_config(cfg)
    out_path = cfg.get("out")
    # Open --out before the first cell, so a bad path fails before any work.
    with open(out_path, "w", encoding="ascii") if out_path else nullcontext(sys.stdout) as out:
        lines = [CSV_HEADER]
        cells = []
        for n in range(1, n_max + 1):
            for r in range(1, r_max + 1):
                t0 = time.perf_counter()
                result = multistart_maximize(n, r, oc)
                wall_ms = 0.0 if no_timing else (time.perf_counter() - t0) * 1000.0
                report = entropy_lower_bound(n, r)
                bound = report.bound_bits
                gap = result.gap_to_bound
                proven = report.special_case != SPECIAL_GENERAL  # equality is a theorem here
                cells.append((n, r, gap, proven))
                lines.append(
                    ",".join(
                        (
                            str(n),
                            str(r),
                            _full(bound),
                            _full(result.best_value),
                            _full(gap),
                            "true" if proven else "false",
                            str(len(result.per_start)),
                            _full(result.converged_fraction()),
                            _full(wall_ms),
                        )
                    )
                )
        out.write("\n".join(lines) + "\n")

    proven_gaps = [abs(g) for _, _, g, p in cells if p]
    positive = [(n, r, g, p) for n, r, g, p in cells if g > gap_tol]
    summary = (
        f"summary: proven cells {len(proven_gaps)}, max |gap| "
        f"{max(proven_gaps) if proven_gaps else 0.0:.3e}; "
        f"open cells {len(cells) - len(proven_gaps)}, "
        f"gaps > +{gap_tol:g}: {sum(not p for *_, p in positive)}"
    )
    print(summary, file=sys.stderr)
    for n, r, g, proven in positive:
        # In a proven cell the bound is the maximum, so the gap is a numerical fault.
        label = "GAP IN PROVEN CELL" if proven else "POTENTIAL COUNTEREXAMPLE"
        print(f"{label}: (n={n}, r={r}) gap={g:+.6e} exceeds {gap_tol:g}", file=sys.stderr)
    if strict and positive:
        return EXIT_VIOLATIONS
    return EXIT_OK


def _cmd_verify(cfg: _Settings) -> int:
    suite = cfg.get("suite", required=True)
    if suite not in SUITE_NAMES:
        raise _UsageError(f"unknown suite {suite!r}: use one of {', '.join(SUITE_NAMES)}")
    reads = SUITE_SETTINGS[suite]
    for name in sorted(set().union(*SUITE_SETTINGS.values())):
        if cfg.given(name) and name not in reads:
            raise _UsageError(f"suite {suite} does not read --{name}")
    trials = cfg.get("trials", default=10_000)
    seed = cfg.chosen(seed="seed")
    params = {name: cfg.get(name, default=default) for name, default in reads.items()}
    out_path = cfg.get("out")
    # Open --out before the first chunk, so a bad path fails before any work.
    with open(out_path, "w", encoding="utf-8") if out_path else nullcontext() as fh:
        report = getattr(suites, f"{suite}_suite")(trials=trials, **params, **seed)
        if fh:
            json.dump(report.as_dict(), fh, indent=2)
            fh.write("\n")
    print(f"suite = {report.suite}")
    print(f"trials = {report.trials}")
    print(f"seed = {report.seed}")
    print(f"violations = {len(report.violations)}")
    for key, value in sorted(report.stats.items()):
        rendered = _human(value) if isinstance(value, float) else value
        print(f"{key} = {rendered}")
    if out_path:
        print(f"report written to {out_path}")
    elif report.violations:
        for witness in report.violations[:5]:
            print(json.dumps(witness))
    return EXIT_OK if report.passed else EXIT_VIOLATIONS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxentsum",
        description="Bounds, constructions and numerical maximization for the "
                    "entropy of sums of independent variables on {0, ..., r}.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "bound": (_cmd_bound, "print the closed-form lower bound"),
        "construct": (_cmd_construct,
                      "write the conjectured optimal inputs and their sum as pmf files"),
        "optimize": (_cmd_optimize, "multistart block-ascent maximization"),
        "sweep": (_cmd_sweep, "CSV of bound vs numeric maximum over a (n, r) grid"),
        "verify": (_cmd_verify, "run a Monte Carlo verification suite"),
    }
    for command, (func, text) in commands.items():
        p = sub.add_parser(command, help=text)
        p.set_defaults(func=func)
        p.add_argument("--config", metavar="PATH", help="key = value settings file")
        for name in COMMAND_SETTINGS[command]:
            cast, setting_help = SETTINGS[name]
            if cast is bool:
                kind = {"action": "store_const", "const": True}
            else:
                kind = {"type": cast, "choices": SUITE_NAMES if name == "suite" else None}
            p.add_argument(f"--{name}", default=None, **kind,
                           help=_HELP.get((command, name), setting_help))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_environment()
        return args.func(_Settings(args))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MaxentsumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
