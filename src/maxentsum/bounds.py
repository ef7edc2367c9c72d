"""Closed-form machinery for the maximum entropy of a sum on {0, ..., r}.

Covers the binomial entropies H(B_n), the optimal mixture weight w0, the
lower bound on max H(S_n) together with its three-term breakdown, the
explicit product construction that attains the bound, and the independent
closed forms available in the proven special cases.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import accumulate

import numpy as np

from .errors import DomainError, MaxentsumError, NotASpecialCaseError, check_count, is_real
from .kernels import entropy_rows
from .pmf import Pmf, binary_entropy

SPECIAL_GENERAL = "general"
SPECIAL_N1 = "n1"
SPECIAL_R1 = "r1"
SPECIAL_N2 = "n2"
SPECIAL_N3R2 = "n3r2"


def _check_nr(n: int, r: int) -> None:
    check_count("summand count", n, 1)
    check_count("alphabet top", r, 1)


def binomial_half_entropy(n: int) -> float:
    """Entropy in bits of Binomial(n, 1/2); H(B_0) = 0.

    Correctly rounded masses C(n, k)/2**n and logs from the exact integers
    C(n, k) (about n**2 bit operations), summed by :func:`kernels.entropy_rows`.
    """
    check_count("n", n, 0)
    n = int(n)
    coeffs = list(accumulate(range(n), lambda c, k: c * (n - k) // (k + 1), initial=1))
    probs = np.array([c / (1 << n) for c in coeffs])
    log2c = np.array([math.log2(c) for c in coeffs])
    return float(entropy_rows(probs, log2c - n))


def conjectured_weight(n: int, r: int) -> float:
    """The mixture weight w0 = 2**d / (r - 1 + 2**d), d = H(B_n) - H(B_{n-1}),
    believed to maximize the bound; the ``w0`` of :func:`entropy_lower_bound`, 1 when r = 1."""
    return entropy_lower_bound(n, r).w0


@dataclass(frozen=True)
class BoundTerms:
    """The three addends of the bound at a given weight w."""

    binomial_term: float    # w * H(B_n)
    shifted_term: float     # (1 - w) * (H(B_{n-1}) + log2(r - 1)); 0 when r = 1
    weight_entropy: float   # h(w)


@dataclass(frozen=True)
class BoundReport:
    n: int
    r: int
    w0: float
    bound_bits: float
    terms: BoundTerms
    special_case: str

    def as_dict(self) -> dict:
        return asdict(self)


def _terms_at(w: float, r: int, hn: float, hn1: float) -> BoundTerms:
    if r == 1:
        # The r = 1 branch is explicit: only w = 1 is admissible and the
        # (1 - w) * log2(r - 1) term is read as 0.
        if not (is_real(w) and w == 1.0):
            raise DomainError("r = 1 admits only the weight w = 1")
        return BoundTerms(binomial_term=hn, shifted_term=0.0, weight_entropy=0.0)
    if not (is_real(w) and 0.0 < (w := float(w)) <= 1.0):
        raise DomainError(f"weight must lie in (0, 1], got {w!r}")
    return BoundTerms(
        binomial_term=w * hn,
        shifted_term=(1.0 - w) * (hn1 + math.log2(r - 1)),
        weight_entropy=binary_entropy(w),
    )


def bound_value_at(w: float, n: int, r: int) -> float:
    """Value in bits of the bound objective at mixture weight ``w``.

    f(w) = w H(B_n) + (1 - w)(H(B_{n-1}) + log2(r - 1)) + h(w); the maximum
    over w is attained at :func:`conjectured_weight`.
    """
    _check_nr(n, r)
    t = _terms_at(w, r, binomial_half_entropy(n), binomial_half_entropy(n - 1))
    return t.binomial_term + t.shifted_term + t.weight_entropy


def entropy_lower_bound(n: int, r: int) -> BoundReport:
    """Closed-form lower bound on the maximum entropy of S_n over {0, ..., r}."""
    _check_nr(n, r)
    hn, hn1 = binomial_half_entropy(n), binomial_half_entropy(n - 1)
    gain = 2.0 ** (hn - hn1)
    w0 = gain / (r - 1 + gain)
    terms = _terms_at(w0, r, hn, hn1)
    bound = terms.binomial_term + terms.shifted_term + terms.weight_entropy
    if n == 1:
        tag = SPECIAL_N1
    elif r == 1:
        tag = SPECIAL_R1
    elif n == 2:
        tag = SPECIAL_N2
    elif (n, r) == (3, 2):
        tag = SPECIAL_N3R2
    else:
        tag = SPECIAL_GENERAL
    return BoundReport(n=int(n), r=int(r), w0=w0, bound_bits=bound, terms=terms, special_case=tag)


def conjectured_inputs(n: int, r: int) -> tuple[Pmf, ...]:
    """The product construction whose sum entropy equals the bound.

    Inputs 1, ..., n-1 are uniform on {0, r}; input n places w0/2 on each of
    0 and r and spreads 1 - w0 uniformly over {1, ..., r-1}.
    """
    _check_nr(n, r)
    w0 = conjectured_weight(n, r)
    edge = np.zeros(r + 1)
    edge[0] = edge[r] = 0.5
    if r == 1:
        last = edge.copy()
    else:
        last = np.full(r + 1, (1.0 - w0) / (r - 1))
        last[0] = last[r] = w0 / 2.0
    return tuple(Pmf(edge) for _ in range(n - 1)) + (Pmf(last),)


def closed_form_special(n: int, r: int) -> float:
    """Independent closed form for the proven cases, cross-checked on the fly.

    Supported: the cells whose :func:`entropy_lower_bound` report has a
    ``special_case`` other than ``general`` (n = 1, r = 1, n = 2, and
    (n, r) = (3, 2)).  The formulas here deliberately avoid the bound's code
    path, and the two values are required to agree to 1e-12.
    """
    report = entropy_lower_bound(n, r)
    case = report.special_case
    if case == SPECIAL_N1:
        value = math.log2(r + 1)
    elif case == SPECIAL_R1:
        value = binomial_half_entropy(n)
    elif case == SPECIAL_N2:
        w0 = math.sqrt(2.0) / (r - 1 + math.sqrt(2.0))
        value = 1.0 + w0 / 2.0 + (1.0 - w0) * math.log2(r - 1) + binary_entropy(w0)
    elif case == SPECIAL_N3R2:
        gain = (4.0 / 3.0) ** 0.75
        w0 = gain / (1.0 + gain)
        value = 0.75 * (2.0 + (2.0 - math.log2(3.0)) * w0) + binary_entropy(w0)
    else:
        raise NotASpecialCaseError(f"no closed form is proven for (n, r) = ({n}, {r})")
    if abs(value - report.bound_bits) > 1e-12:
        raise MaxentsumError(
            f"internal inconsistency at (n, r) = ({n}, {r}): "
            f"special form {value!r} vs general bound {report.bound_bits!r}"
        )
    return value
