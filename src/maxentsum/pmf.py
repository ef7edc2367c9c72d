"""Dense probability mass functions on {0, ..., m} and exact operations on them.

This module is the currency layer for everything else in the package: Shannon
entropy in bits, convolution, distributions of sums of independent variables,
the decomposition of a pmf into its residue classes mod r, and the inverse
mixture operation.  All values are immutable after construction and safe to
share between threads; every operation is a pure function of its inputs.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import DomainError, ValidationError, check_count

logger = logging.getLogger(__name__)

#: Allowed |sum - 1| when a probability vector is validated.
NORMALIZATION_TOL = 1e-12
#: Operations renormalize their raw output only when it drifts beyond this.
RENORMALIZE_DRIFT = 1e-14
#: Masses at or below this floor contribute 0 * log 0 = 0 to entropies.
ZERO_FLOOR = 1e-300

LOG2E = math.log2(math.e)

PmfLike = Union["Pmf", Sequence[float], np.ndarray]


def _prob_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"probability vector must be 1-d, got shape {arr.shape}")
    return arr


def _validate(arr: np.ndarray, total: float | None = None,
              nouns: tuple[str, str] = ("mass", "masses")) -> None:
    """Check that a 1-d vector is non-empty, its masses finite and >= 0, its sum 1.

    One fused pass: the least entry and the sum (``total`` when the caller
    already has it).  Only a vector that fails them is searched for its
    first negative or non-finite entry, to name it in the error.
    """
    if arr.size < 1:
        raise ValidationError("a pmf needs at least one entry")
    if total is None:
        total = float(np.add.reduce(arr))
    if not (np.minimum.reduce(arr) >= 0.0 and math.isfinite(total)):
        bad = np.flatnonzero(~((arr >= 0.0) & (arr < math.inf)))
        if bad.size:
            k = int(bad[0])
            raise ValidationError(f"invalid {nouns[0]} {float(arr[k])!r} at index {k}")
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise ValidationError(
            f"{nouns[1]} sum to {total!r}, expected 1 within {NORMALIZATION_TOL}"
        )


def _entropy_bits(arr: np.ndarray) -> float:
    # Masses at or below the floor contribute exactly 0; no epsilon smoothing,
    # so the equality cases stay exact.
    positive = arr[arr > ZERO_FLOOR]
    if positive.size == 0:
        return 0.0
    return max(0.0, -float(positive @ np.log2(positive)))


@dataclass(frozen=True, eq=False)
class Pmf:
    """A probability mass function with dense support {0, ..., m}.

    ``probs[k]`` is the mass placed on the integer value ``k``.  Entries must
    be non-negative and sum to 1 within ``NORMALIZATION_TOL``; the backing
    array is copied and made read-only.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = _prob_array(self.probs).copy()
        _validate(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @classmethod
    def _adopt(cls, arr: np.ndarray, total: float | None = None) -> "Pmf":
        # Private: validate and freeze a fresh array that no one else holds,
        # without a second copy; ``total`` is its sum when already known.
        _validate(arr, total)
        return cls._unchecked(arr)

    @classmethod
    def _unchecked(cls, arr: np.ndarray) -> "Pmf":
        # Private: freeze a fresh array without validating it.  Besides
        # ``_adopt``, only the all-zero conditionals of degenerate residue
        # classes take this path.
        self = object.__new__(cls)
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)
        return self

    @classmethod
    def uniform(cls, m: int) -> "Pmf":
        """Uniform distribution on {0, ..., m}."""
        check_count("m", m, 0)
        return cls(np.full(m + 1, 1.0 / (m + 1)))

    @classmethod
    def point_mass(cls, value: int, m: int | None = None) -> "Pmf":
        """All mass at ``value``, on the support {0, ..., m} (default m = value)."""
        check_count("value", value, 0)
        m = value if m is None else m
        check_count("m", m, value)  # the support must hold the mass location
        arr = np.zeros(m + 1)
        arr[value] = 1.0
        return cls(arr)

    @property
    def m(self) -> int:
        """Upper end of the support."""
        return self.probs.size - 1

    def __len__(self) -> int:
        return self.probs.size

    def __getitem__(self, k: int) -> float:
        return float(self.probs[k])

    def __repr__(self) -> str:
        body = ", ".join(f"{x:.6g}" for x in self.probs[:8])
        tail = ", ..." if self.probs.size > 8 else ""
        return f"Pmf([{body}{tail}], m={self.m})"


def as_pmf(p: PmfLike) -> Pmf:
    """Coerce an array-like to a validated :class:`Pmf` (no-op for Pmf input)."""
    return p if isinstance(p, Pmf) else Pmf(p)


def _finalize(raw: np.ndarray, context: str) -> Pmf:
    """Wrap a fresh operation output that no one else holds, without copying it.

    The output is renormalized only when its drift demands it.
    """
    total = float(np.add.reduce(raw))
    drift = abs(total - 1.0)
    if drift > RENORMALIZE_DRIFT:
        logger.debug("renormalizing %s output, drift %.3e", context, drift)
        return Pmf._adopt(raw / total)
    return Pmf._adopt(raw, total)


def entropy(p: PmfLike) -> float:
    """Shannon entropy of ``p`` in bits, with the 0 * log 0 = 0 convention.

    The result lies in [0, log2(m + 1)].  Array-likes are validated before
    evaluation; invalid input raises :class:`ValidationError`.
    """
    return _entropy_bits(as_pmf(p).probs)


def binary_entropy(p: float) -> float:
    """h(p) = -p log2 p - (1-p) log2 (1-p) for p in [0, 1]."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"binary entropy needs p in [0, 1], got {p!r}")

    def term(x: float) -> float:
        return 0.0 if x <= ZERO_FLOOR else -x * math.log2(x)

    return term(p) + term(1.0 - p)


def convolve(p: PmfLike, q: PmfLike) -> Pmf:
    """Distribution of the sum of two independent variables with laws p, q.

    Support is {0, ..., m_p + m_q} and entry s equals sum_a p_a q_{s-a}.
    """
    a = as_pmf(p).probs
    b = as_pmf(q).probs
    return _finalize(np.convolve(a, b), "convolve")


def _summands(inputs: Iterable[PmfLike], caller: str) -> list[Pmf]:
    """``inputs`` as pmfs; ``caller`` needs at least one, all on one alphabet."""
    pmfs = [as_pmf(p) for p in inputs]
    if not pmfs:
        raise DomainError(f"{caller} needs at least one summand")
    if any(p.m != pmfs[0].m for p in pmfs):
        raise DomainError("summands must share a common alphabet {0, ..., r}")
    return pmfs


def sum_distribution(inputs: Iterable[PmfLike]) -> Pmf:
    """Distribution of the sum of n >= 1 independent variables on {0, ..., r}.

    All inputs must share one alphabet; the result is the left fold of
    :func:`convolve` with support {0, ..., n*r}.
    """
    pmfs = _summands(inputs, "sum_distribution")
    acc = pmfs[0].probs.copy()  # _finalize keeps the array it is given
    for p in pmfs[1:]:
        acc = np.convolve(acc, p.probs)
    return _finalize(acc, "sum_distribution")


@dataclass(frozen=True, eq=False)
class ResidueDecomposition:
    """Split of a pmf into the conditional laws of its residue classes mod r.

    ``weights[j]`` is P(S = j mod r) and ``conditionals[j].probs[k]`` is
    P(S = k*r + j | S = j mod r).  A class of weight zero keeps an all-zero
    conditional (never renormalized) and is flagged degenerate; its entropy
    is taken as 0 in the decomposition identity.
    """

    r: int
    weights: np.ndarray
    conditionals: tuple[Pmf, ...]
    degenerate: tuple[bool, ...]

    def __post_init__(self):
        check_count("modulus", self.r, 1)
        w = _prob_array(self.weights).copy()
        if w.size != self.r or len(self.conditionals) != self.r or len(self.degenerate) != self.r:
            raise ValidationError("need exactly r weights, conditionals and flags")
        _validate(w, nouns=("class weight", "class weights"))
        for j, (flag, wj) in enumerate(zip(self.degenerate, w)):
            if flag != (wj == 0.0):
                raise ValidationError(f"degenerate flag of class {j} contradicts its weight")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    def reassemble(self) -> Pmf:
        """Rebuild the source pmf as sum_j weights[j] * conditionals[j] re-indexed."""
        m = max(
            (len(c) - 1) * self.r + j
            for j, c in enumerate(self.conditionals)
            if len(c) > 0
        )
        out = np.zeros(m + 1)
        for j, (wj, cond) in enumerate(zip(self.weights, self.conditionals)):
            if wj > 0.0:
                out[j : j + self.r * len(cond) : self.r] = wj * cond.probs
        return _finalize(out, "reassemble")


def residue_decompose(p: PmfLike, r: int) -> ResidueDecomposition:
    """Decompose ``p`` into its residue classes mod ``r``.

    For r = 1 the result is a single class of weight 1 whose conditional is
    ``p`` itself.
    """
    check_count("modulus", r, 1)
    r = int(r)
    pmf = as_pmf(p)
    weights = np.empty(r)
    conds: list[Pmf] = []
    degen: list[bool] = []
    for j in range(r):
        cls = pmf.probs[j::r]
        wj = float(np.add.reduce(cls))
        weights[j] = wj
        if wj > 0.0:
            conds.append(_finalize(cls / wj, "residue conditional"))
            degen.append(False)
        else:
            conds.append(Pmf._unchecked(np.zeros(cls.size)))
            degen.append(True)
    return ResidueDecomposition(
        r=r, weights=weights, conditionals=tuple(conds), degenerate=tuple(degen)
    )


def mixture(conditionals: Sequence[PmfLike], weights: Sequence[float], r: int) -> Pmf:
    """Inverse of :func:`residue_decompose`.

    Class j of the result carries mass ``weights[j] * conditionals[j]`` at the
    positions k*r + j.  Conditional lengths must be mutually consistent with a
    single support {0, ..., m}; classes of weight zero are ignored.
    """
    check_count("modulus", r, 1)
    r = int(r)
    conds = list(conditionals)
    w = _prob_array(weights)
    if len(conds) != r or w.size != r:
        raise DomainError(f"expected exactly {r} weights and {r} conditionals")
    _validate(w, nouns=("weight", "weights"))

    arrays: dict[int, np.ndarray] = {}
    for j in range(r):
        if w[j] > 0.0:
            arrays[j] = as_pmf(conds[j]).probs
    m = max((arr.size - 1) * r + j for j, arr in arrays.items())
    for j, arr in arrays.items():
        if arr.size != (m - j) // r + 1:
            raise DomainError(
                f"conditional lengths are inconsistent: class {j} has {arr.size} "
                f"entries but the implied support is {{0, ..., {m}}}"
            )
    out = np.zeros(m + 1)
    for j, arr in arrays.items():
        out[j : j + r * arr.size : r] = w[j] * arr
    return _finalize(out, "mixture")


def write_pmf(p: PmfLike, destination) -> None:
    """Write a pmf in the package text format: one mass per line.

    The support index is implied by the order of value lines; ``#`` starts a
    comment.  Values are written with shortest round-trip precision, so a
    read back reproduces the floats exactly.
    """
    pmf = as_pmf(p)
    lines = [f"# pmf on {{0, ..., {pmf.m}}}\n"]
    lines += [repr(float(x)) + "\n" for x in pmf.probs]
    if hasattr(destination, "write"):
        destination.writelines(lines)
    else:
        with open(destination, "w", encoding="ascii") as fh:
            fh.writelines(lines)


def read_pmf(source) -> Pmf:
    """Read a pmf written by :func:`write_pmf` (or by hand, same format)."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="ascii") as fh:
            text = fh.read()
    values: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            values.append(float(line))
        except ValueError as exc:
            raise ValidationError(f"line {lineno}: cannot parse {line!r} as a mass") from exc
    if not values:
        raise ValidationError("no mass values found")
    return Pmf._adopt(np.array(values))
