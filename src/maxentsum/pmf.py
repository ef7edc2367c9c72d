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

from .errors import DomainError, ValidationError, check_count, is_real
from .kernels import ZERO_FLOOR, fold_rows

logger = logging.getLogger(__name__)

#: Allowed |sum - 1| when a probability vector is validated.
NORMALIZATION_TOL = 1e-12
#: Operations renormalize their raw output only when it drifts beyond this.
RENORMALIZE_DRIFT = 1e-14

PmfLike = Union["Pmf", Sequence[float], np.ndarray]


def _prob_array(values) -> np.ndarray:
    # Always a fresh float64 copy that no one else holds.
    arr = np.array(values, dtype=float)
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
        arr = _prob_array(self.probs)
        _validate(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @classmethod
    def _unchecked(cls, arr: np.ndarray) -> "Pmf":
        # Private: freeze a fresh array that no one else holds, without a copy
        # or a check.  Only ``_finalize``, which validates first, and the
        # all-zero conditionals of empty residue classes take this path.
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
    """Validate and freeze a fresh operation output that no one else holds, without
    copying it; the output is renormalized only when its drift demands it."""
    total = float(np.add.reduce(raw))
    drift = abs(total - 1.0)
    if drift > RENORMALIZE_DRIFT:
        if total == 0.0:
            raise ValidationError(f"{context} output sums to 0.0 and cannot be normalized")
        logger.debug("renormalizing %s output, drift %.3e", context, drift)
        raw, total = raw / total, None
    _validate(raw, total)
    return Pmf._unchecked(raw)


def entropy(p: PmfLike) -> float:
    """Shannon entropy of ``p`` in bits, with the 0 * log 0 = 0 convention.

    The result lies in [0, log2(m + 1)].  Array-likes are validated before
    evaluation; invalid input raises :class:`ValidationError`.
    """
    return _entropy_bits(as_pmf(p).probs)


def binary_entropy(p: float) -> float:
    """h(p) = -p log2 p - (1-p) log2 (1-p) for p in [0, 1]."""
    if not (is_real(p) and 0.0 <= (p := float(p)) <= 1.0):
        raise DomainError(f"binary entropy needs p in [0, 1], got {p!r}")

    def term(x: float) -> float:
        return 0.0 if x <= ZERO_FLOOR else -x * math.log2(x)

    return term(p) + term(1.0 - p)


def convolve(p: PmfLike, q: PmfLike) -> Pmf:
    """Distribution of the sum of two independent variables with laws p, q.

    Support is {0, ..., m_p + m_q} and entry s equals sum_a p_a q_{s-a}.
    """
    return _finalize(np.convolve(as_pmf(p).probs, as_pmf(q).probs), "convolve")


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

    All inputs must share one alphabet; the result, on {0, ..., n*r}, is one
    row of :func:`kernels.fold_rows` and rounds alike on every CPU.
    """
    pmfs = _summands(inputs, "sum_distribution")
    return _finalize(fold_rows(np.array([[p.probs for p in pmfs]]))[0].copy(), "sum_distribution")


@dataclass(frozen=True, eq=False)
class ResidueDecomposition:
    """Split of a pmf into the conditional laws of its residue classes mod r.

    ``weights[j]`` is P(S = j mod r) and ``conditionals[j].probs[k]`` is
    P(S = k*r + j | S = j mod r).  A class of weight zero is ``degenerate``
    and keeps an all-zero conditional (never renormalized); its entropy is
    taken as 0 in the decomposition identity.  Construction checks the class
    rules: a class has weight exactly when its law has mass, and the class
    lengths fill one support {0, ..., m}.
    """

    r: int
    weights: np.ndarray
    conditionals: tuple[Pmf, ...]

    def __post_init__(self):
        check_count("modulus", self.r, 1)
        w = _prob_array(self.weights)
        conds = tuple(self.conditionals)
        if w.size != self.r or len(conds) != self.r:
            raise ValidationError("need exactly r weights and conditionals")
        for j, cond in enumerate(conds):
            if not isinstance(cond, Pmf):
                raise ValidationError(f"conditional of class {j} is not a Pmf")
        _validate(w, nouns=("class weight", "class weights"))
        for j, (wj, law) in enumerate(zip(w.tolist(), conds)):
            if (wj > 0.0) != bool(np.count_nonzero(law.probs)):
                has = "no mass" if wj > 0.0 else "mass"
                raise ValidationError(f"class {j} has weight {wj!r} but its law has {has}")
        sizes = [law.probs.size for law in conds]
        m = max((size - 1) * self.r + j for j, size in enumerate(sizes))
        for j, size in enumerate(sizes):
            if size != (m - j) // self.r + 1:
                raise DomainError(
                    f"conditional lengths are inconsistent: class {j} has {size} "
                    f"entries but the implied support is {{0, ..., {m}}}"
                )
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "conditionals", conds)

    @property
    def degenerate(self) -> tuple[bool, ...]:
        return tuple(bool(wj == 0.0) for wj in self.weights)

    def reassemble(self) -> Pmf:
        """Rebuild the source pmf, trailing zeros included: class j at k*r + j."""
        # Construction checked that the classes fill {0, ..., m}, so their
        # lengths sum to m + 1.
        out = np.zeros(sum(law.probs.size for law in self.conditionals))
        for j, (wj, law) in enumerate(zip(self.weights.tolist(), self.conditionals)):
            out[j::self.r] = wj * law.probs
        return _finalize(out, "reassemble")


def residue_decompose(p: PmfLike, r: int) -> ResidueDecomposition:
    """Decompose ``p`` into its residue classes mod ``r``.

    For r = 1 the result is a single class of weight 1 whose conditional is
    ``p`` itself.
    """
    check_count("modulus", r, 1)
    r = int(r)
    probs = as_pmf(p).probs
    weights = np.empty(r)
    conds: list[Pmf] = []
    for j in range(r):
        cls = probs[j::r]
        wj = weights[j] = float(np.add.reduce(cls))
        conds.append(
            _finalize(cls / wj, "residue conditional") if wj > 0.0
            else Pmf._unchecked(np.zeros(cls.size))
        )
    return ResidueDecomposition(r=r, weights=weights, conditionals=conds)


def mixture(conditionals: Sequence[PmfLike], weights: Sequence[float], r: int) -> Pmf:
    """Inverse of :func:`residue_decompose`: the classes reassembled by
    :meth:`ResidueDecomposition.reassemble`, after the same checks."""
    return ResidueDecomposition(
        r=r, weights=weights, conditionals=tuple(as_pmf(c) for c in conditionals)
    ).reassemble()


def write_pmf(p: PmfLike, destination) -> None:
    """Write a pmf in the package text format: one mass per line.

    The support index is implied by the order of value lines; ``#`` starts a
    comment.  Values are written with shortest round-trip precision, so a
    read back reproduces the floats exactly.  ``destination`` is a path or a
    text or binary file object.  A law that is not a pmf, such as the
    all-zero conditional of an empty residue class, raises
    :class:`ValidationError` and nothing is written.
    """
    pmf = as_pmf(p)
    _validate(pmf.probs)
    text = f"# pmf on {{0, ..., {pmf.m}}}\n" + "".join(f"{float(x)!r}\n" for x in pmf.probs)
    if hasattr(destination, "write"):
        try:
            destination.write(text)
        except TypeError:  # a binary file object takes bytes
            destination.write(text.encode("ascii"))
    else:
        with open(destination, "w", encoding="ascii") as fh:
            fh.write(text)


def read_pmf(source) -> Pmf:
    """Read a pmf written by :func:`write_pmf` (or by hand, same format) from
    a path or from a text or binary file object.  The file must be ASCII; a
    text object's characters are checked as their UTF-8 bytes."""
    if hasattr(source, "read"):
        data = source.read()
    else:
        with open(source, "rb") as fh:
            data = fh.read()
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    # Lines end at \n, \r\n or \r only; str.splitlines would also break at
    # \v, \f and \x1c-\x1e.
    data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ValidationError(f"line {lineno}: non-ASCII byte {data[exc.start]:#04x}") from exc
    values: list[float] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            values.append(float(line))
        except ValueError as exc:
            raise ValidationError(f"line {lineno}: cannot parse {line!r} as a mass") from exc
    if not values:
        raise ValidationError("no mass values found")
    return Pmf(values)
