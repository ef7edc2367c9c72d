"""Log-concavity certificates for residue classes of sum distributions.

Provides the three nested checks (log-concave, ultra-log-concave of order
infinity, ultra-log-concave of finite order), the per-residue-class report
that powers the equality results, the two algebraic identities certifying the
ternary three-summand case, the sign lemma used alongside the odd-class
identity, and the Bernoulli-convolution preservation property.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError, PreconditionError, check_count, is_real
from .kernels import conv_rows, sum_rows
from .pmf import Pmf, PmfLike, as_pmf, sum_distribution

#: :func:`margin_verdicts` passes a row whose least margin is
#: >= -SLACK_COEFF * max(u)^2; margins in reports stay pre-tolerance.
SLACK_COEFF = 1e-12
#: The sign lemma needs factors whose every mass exceeds this.
STRICTNESS = 1e-9


def _nonneg_array(u) -> np.ndarray:
    arr = np.asarray(u, dtype=float)
    if arr.ndim < 1 or arr.shape[-1] < 1:
        raise DomainError("need a non-empty sequence")
    # NaN propagates through min and max, so one pass each catches every bad entry.
    if arr.size and not (arr.min() >= 0.0 and arr.max() < math.inf):
        raise DomainError("sequence entries must be finite and non-negative")
    return arr


def _sequence(u, caller: str) -> np.ndarray:
    """``u`` as a checked array; ``caller`` takes exactly one sequence."""
    arr = _nonneg_array(u)
    if arr.ndim != 1:
        raise DomainError(f"{caller} takes a single sequence")
    return arr


def _margins(arr: np.ndarray, a, b) -> np.ndarray:
    """a_i u_i^2 - b_i u_{i-1} u_{i+1} at each interior index i of each row."""
    return a * arr[..., 1:-1] ** 2 - b * arr[..., :-2] * arr[..., 2:]


def ulc_order_margins(u, order: int) -> np.ndarray:
    """i(order-i) u_i^2 - (i+1)(order-i+1) u_{i-1} u_{i+1} at interior indices.

    Requires len(u) <= order + 1; the margins are those of the log-concavity
    of u_i / C(order, i).
    """
    arr = _nonneg_array(u)
    check_count("order", order, 0)
    if arr.shape[-1] > order + 1:
        raise DomainError(
            f"sequence of length {arr.shape[-1]} cannot be ultra-log-concave "
            f"of order {order} (needs length <= {order + 1})"
        )
    i = np.arange(1, arr.shape[-1] - 1, dtype=float)
    return _margins(arr, i * (order - i), (i + 1) * (order - i + 1))


def margin_verdicts(
    margins: np.ndarray, seqs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's least margin, whether the row passes, and its witness.

    A row passes when its least margin is >= -SLACK_COEFF * max(row)^2.  The
    witness is the index into the sequence of the row's first interior
    inequality that fails, or 0 where the row passes; only failing rows pay
    for it.  Rows with no interior index pass, with least margin +inf.
    """
    if margins.shape[-1] == 0:
        least = np.full(margins.shape[:-1], math.inf)
        return least, np.ones(least.shape, bool), np.zeros(least.shape, int)
    least = margins.min(axis=-1)
    slack = SLACK_COEFF * seqs.max(axis=-1) ** 2
    passes = least >= -slack
    witness = np.zeros(passes.shape, int)
    if not passes.all():
        below = margins[~passes] < -slack[~passes][:, None]
        witness[~passes] = np.argmax(below, axis=-1) + 1
    return least, passes, witness


def is_log_concave(u) -> bool:
    """Literal check of u_i^2 >= u_{i-1} u_{i+1}, zeros included."""
    arr = _sequence(u, "is_log_concave")
    return bool(margin_verdicts(_margins(arr, 1.0, 1.0), arr)[1])


def is_ulc_infinite(u) -> bool:
    """True iff (u_i * i!) is log-concave, i.e. i u_i^2 >= (i+1) u_{i-1} u_{i+1}."""
    arr = _sequence(u, "is_ulc_infinite")
    i = np.arange(1, len(arr) - 1, dtype=float)
    return bool(margin_verdicts(_margins(arr, i, i + 1), arr)[1])


def is_ulc_order(u, order: int) -> bool:
    """True iff (u_i / C(order, i)) is log-concave; Binomial(order, p) sits on equality."""
    arr = _sequence(u, "is_ulc_order")
    return bool(margin_verdicts(ulc_order_margins(arr, order), arr)[1])


def has_internal_zeros(u) -> bool:
    """Diagnostic: a zero strictly between the first and last positive masses.

    The checkers treat zeros literally, but an internal zero forces both sides
    of the neighbouring inequalities to 0, so a pass there is vacuous; callers
    can use this flag to tell the two situations apart.
    """
    arr = _sequence(u, "has_internal_zeros")
    positive = np.flatnonzero(arr > 0.0)
    if positive.size < 2:
        return False
    lo, hi = positive[0], positive[-1]
    return bool(np.any(arr[lo : hi + 1] == 0.0))


@dataclass(frozen=True)
class UlcClassReport:
    """Verdict for one residue class: order tested, first witness, min slack.

    ``margin`` is the pre-tolerance minimum of the inequality slacks, or None
    when the class has no interior index to test (including degenerate
    zero-weight classes, which pass vacuously).
    """

    residue: int
    order: int
    passed: bool
    witness: int | None
    margin: float | None


@dataclass(frozen=True)
class UlcReport:
    r: int
    per_class: tuple[UlcClassReport, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.per_class)

    def as_dict(self) -> dict:
        return {"r": self.r, "per_class": [asdict(c) for c in self.per_class]}


def residue_classes(sums: np.ndarray, r: int, n: int):
    """Yield the residue classes mod ``r`` of the laws ``sums`` (rows, length) of S_n.

    Class j comes as (order, weighted, cond): the order it is tested at (n for
    class 0, n - 1 for the others), the mask of rows where it has weight, and
    its conditional laws, all-zero on the rows without weight.  A class of
    fewer than 3 masses has no interior index, so nothing to test: it comes
    as (order, None, None).  Every mass of ``sums`` is checked finite and
    non-negative first, whether its class is built or not.
    """
    _nonneg_array(sums)
    for j in range(r):
        order = n if j == 0 else n - 1
        cls = sums[:, j::r]
        if cls.shape[1] < 3:
            yield order, None, None
            continue
        weights = sum_rows(cls)
        # An empty class divides its zeros by 1.
        cond = cls / (weights + (weights == 0.0))[:, None]
        yield order, weights > 0.0, cond


def conditional_ulc_report(inputs, r: int) -> UlcReport:
    """Test the residue classes of the sum of ``inputs`` mod ``r``.

    Class 0 is tested at order n and classes j != 0 at order n - 1, where n is
    the number of summands.  Classes without weight or without an interior
    index are reported as vacuous passes.
    """
    pmfs = [as_pmf(p) for p in inputs]
    total = sum_distribution(pmfs)
    check_count("modulus", r, 1)
    per: list[UlcClassReport] = []
    classes = residue_classes(total.probs[None], int(r), len(pmfs))
    for j, (order, weighted, cond) in enumerate(classes):
        if cond is None or not weighted[0]:
            per.append(UlcClassReport(j, order, True, None, None))
            continue
        u = cond[0]
        least, passed, witness = margin_verdicts(ulc_order_margins(u, order), u)
        witness = None if passed else int(witness)
        per.append(UlcClassReport(j, order, bool(passed), witness, float(least)))
    return UlcReport(r=int(r), per_class=tuple(per))


@dataclass(frozen=True, eq=False)
class TernaryTriple:
    """27 non-negative values indexed by (a1, a2, a3) in {0, 1, 2}^3.

    Product-formed triples carry their three ternary factor pmfs; free-valued
    triples (factors None) are allowed for identity exploration.
    """

    values: np.ndarray
    factors: tuple[Pmf, Pmf, Pmf] | None = None

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float).copy()
        if arr.shape != (3, 3, 3):
            raise DomainError(f"expected shape (3, 3, 3), got {arr.shape}")
        _nonneg_array(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @classmethod
    def from_product(cls, p1: PmfLike, p2: PmfLike, p3: PmfLike) -> "TernaryTriple":
        pmfs = tuple(as_pmf(p) for p in (p1, p2, p3))
        if any(p.m != 2 for p in pmfs):
            raise DomainError("product factors must live on {0, 1, 2}")
        values = np.einsum("i,j,k->ijk", *(p.probs for p in pmfs))
        return cls(values=values, factors=pmfs)

    @classmethod
    def from_values(cls, values) -> "TernaryTriple":
        arr = np.asarray(values, dtype=float)
        if arr.shape == (27,):
            arr = arr.reshape(3, 3, 3)
        return cls(values=arr, factors=None)

    def sum_masses(self) -> np.ndarray:
        """Length-7 vector: mass of the three-fold sum at each total 0..6."""
        return ternary_sum_masses(self.values)


def ternary_sum_masses(values: np.ndarray) -> np.ndarray:
    """Sum-mass assembly for (..., 3, 3, 3) tensors, batched over leading axes."""
    values = np.asarray(values, dtype=float)
    out = np.zeros(values.shape[:-3] + (7,), order="F")
    for i, j, k in np.ndindex(3, 3, 3):
        out[..., i + j + k] += values[..., i, j, k]
    return out


@dataclass(frozen=True)
class IdentityGap:
    lhs: float
    rhs: float

    @property
    def gap(self) -> float:
        return self.lhs - self.rhs


def _even_class_expansion(v: np.ndarray) -> np.ndarray:
    x200, x020, x002 = v[..., 2, 0, 0], v[..., 0, 2, 0], v[..., 0, 0, 2]
    x110, x101, x011 = v[..., 1, 1, 0], v[..., 1, 0, 1], v[..., 0, 1, 1]
    squares = (
        (x200 - x020 - x011) ** 2
        + (x020 - x002 - x101) ** 2
        + (x002 - x200 - x110) ** 2
        + x110**2
        + x101**2
        + x011**2
    )
    return (
        0.5 * squares
        + x200 * x110
        + x020 * x011
        + x002 * x101
        + 2.0
        * (
            x200 * x101
            + x020 * x110
            + x002 * x011
            + x110 * x101
            + x110 * x011
            + x101 * x011
        )
    )


def _odd_class_expansion(v: np.ndarray) -> np.ndarray:
    x210, x201, x021 = v[..., 2, 1, 0], v[..., 2, 0, 1], v[..., 0, 2, 1]
    x120, x012, x102 = v[..., 1, 2, 0], v[..., 0, 1, 2], v[..., 1, 0, 2]
    x111 = v[..., 1, 1, 1]
    ring = x210 + x201 + x021 + x120 + x012 + x102
    return (
        (x210 - x012 + x201 - x021 + x120 - x102) ** 2
        - 4.0 * (x201 - x021) * (x120 - x102)
        + x111**2
        + 2.0 * x111 * ring
    )


def certificate_sides(masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Direct sides P(2)^2 - 3 P(0) P(4) and P(3)^2 - 4 P(1) P(5).

    ``masses`` holds sum masses (..., 7) as from :func:`ternary_sum_masses`;
    the even and odd sides come back batched over the leading axes.
    """
    even = masses[..., 2] ** 2 - 3.0 * masses[..., 0] * masses[..., 4]
    odd = masses[..., 3] ** 2 - 4.0 * masses[..., 1] * masses[..., 5]
    return even, odd


def identity_sides(values: np.ndarray, masses: np.ndarray) -> dict[str, tuple]:
    """``{"even": (direct, expansion), "odd": (direct, expansion)}`` for
    (..., 3, 3, 3) triples ``values`` with sum masses ``masses`` (..., 7),
    batched over the leading axes; each direct side is paired once, here."""
    even, odd = certificate_sides(masses)
    return {
        "even": (even, _even_class_expansion(values)),
        "odd": (odd, _odd_class_expansion(values)),
    }


def identity_gap(which: str, x: TernaryTriple) -> IdentityGap:
    """Direct and expanded evaluations of one certificate quantity.

    ``which = "even"`` targets P(2)^2 - 3 P(0) P(4) of the three-fold sum and
    ``which = "odd"`` targets P(3)^2 - 4 P(1) P(5).  On product-formed input
    the two sides agree identically (and the even expansion is a sum of
    non-negative terms); on free-valued input they may differ, which is the
    point of returning both.
    """
    if not isinstance(x, TernaryTriple):
        x = TernaryTriple.from_values(x)
    sides = identity_sides(x.values, x.sum_masses())
    if which not in sides:
        raise DomainError(f"unknown identity {which!r}: use 'even' or 'odd'")
    lhs, rhs = sides[which]
    return IdentityGap(lhs=float(lhs), rhs=float(rhs))


def sign_lemma_rows(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sign lemma on (rows, 3, 3, 3) product tensors.

    Returns the differences x201 - x021, x120 - x102 and x210 - x012 as
    (rows, 3), the strict hypothesis (the first two share a sign s beyond a
    deadband of 1e-15 * max(x), which keeps float noise from manufacturing a
    strict sign) and the implication (s times the third difference exceeds
    minus the deadband).  The lemma holds on a row unless the hypothesis holds
    and the implication fails.
    """
    first = v[:, 2, 0, 1] - v[:, 0, 2, 1]
    second = v[:, 1, 2, 0] - v[:, 1, 0, 2]
    conclusion = v[:, 2, 1, 0] - v[:, 0, 1, 2]
    deadband = 1e-15 * v.max(axis=(1, 2, 3))
    strict = (np.abs(first) > deadband) & (np.abs(second) > deadband)
    hypothesis = strict & ((first > 0.0) == (second > 0.0))
    implied = np.where(first > 0.0, 1.0, -1.0) * conclusion > -deadband
    return np.stack([first, second, conclusion], axis=1), hypothesis, implied


def sign_lemma_check(x: TernaryTriple) -> bool:
    """Check the sign implication behind the odd-class certificate.

    For a product-formed triple whose factor masses all exceed
    :data:`STRICTNESS`: if x201 - x021 and x120 - x102 share a strict sign s,
    then x210 - x012 has sign s as well.  Returns True when the implication
    holds or is vacuous; see :func:`sign_lemma_rows` for the deadband.
    """
    if not isinstance(x, TernaryTriple) or x.factors is None:
        raise PreconditionError("sign lemma needs a product-formed triple")
    if min(float(p.probs.min()) for p in x.factors) <= STRICTNESS:
        raise PreconditionError(
            f"factors must be strictly positive (every mass > {STRICTNESS})"
        )
    _, hypothesis, implied = sign_lemma_rows(x.values[None])
    return bool(implied[0] or not hypothesis[0])


def convolve_bernoulli_preserves(u, order: int, q: float) -> bool:
    """Convolve an order-``order`` ultra-log-concave sequence with (1-q, q).

    The input must already pass :func:`is_ulc_order` at ``order``; the return
    value is the order ``order + 1`` verdict for the convolution, expected to
    be True always.
    """
    arr = _sequence(u, "convolve_bernoulli_preserves")
    if not (is_real(q) and 0.0 <= (q := float(q)) <= 1.0):
        raise DomainError(f"Bernoulli weight must lie in [0, 1], got {q!r}")
    if not is_ulc_order(arr, order):
        raise PreconditionError(f"input sequence is not ultra-log-concave of order {order}")
    conv = conv_rows(arr[None], np.array([[1.0 - q, q]]))[0]
    return is_ulc_order(conv, order + 1)


def random_ulc_sequences(order: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` ULC(order) probability vectors of length order + 1.

    Each row makes u_i / C(order, i) log-concave from ``order`` iid lognormal
    ratios taken in decreasing order; every strictly positive ULC(order)
    vector has positive density.  Deterministic given the generator state;
    returned coordinate-major.  Raises :class:`DomainError` when a row
    overflows float64 before it is normalized (order 1000 can).
    """
    check_count("order", order, 1)
    check_count("count", count, 1)
    ratios = np.sort(rng.lognormal(0.0, 1.0, size=(count, order)), axis=1)
    seqs = np.empty((count, order + 1), order="F")
    seqs[:, 0] = 1.0
    try:
        with np.errstate(over="raise"):
            np.cumprod(ratios[:, ::-1], axis=1, out=seqs[:, 1:])
            seqs *= [float(math.comb(order, i)) for i in range(order + 1)]
            seqs /= sum_rows(seqs)[:, None]
    except (FloatingPointError, OverflowError):
        raise DomainError(f"ULC({order}) rows overflow float64") from None
    return seqs
