"""Channel model for the Gaussian two-pair two-way relay network.

Four users exchange messages pairwise through a single relay: users 1 and 2
form one pair, users 3 and 4 the other.  Every transmission runs over two
hops — a multiple-access uplink into the relay and a broadcast downlink out
of it — and all rates are measured in bits per channel use (logs base 2).

This module holds the shared vocabulary used everywhere else: the parameter
record, the case labels, rate tuples, the Gaussian and lattice rate kernels
(elementwise over floats or numpy arrays), the per-link capacity terms,
certificate records, and the global numerical tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterator, Tuple

import numpy as np

# ---------------------------------------------------------------------------
# Global tolerances.  Every module compares against these; nothing redefines
# its own epsilon.  Ordering, tightness, window and dust checks go through
# `geq` and `nonneg` below rather than reading TIGHT_TOL themselves.
# ---------------------------------------------------------------------------

#: relative tolerance (absolute below magnitude 1) for tightness / equality
TIGHT_TOL = 1e-9
#: absolute tolerance added on top of the half-bit budget in gap checks
GAP_TOL = 1e-7
#: L-infinity radius below which two vertices are considered duplicates
DEDUP_TOL = 1e-8

HALF_BIT = 0.5

PAIR_KEYS: Tuple[Tuple[int, int], ...] = ((1, 3), (1, 4), (2, 3), (2, 4))


class ValidationError(ValueError):
    """Raised when user-supplied parameters or arguments are inadmissible."""


class InternalConsistencyError(RuntimeError):
    """Raised when a closed-form recipe violates one of its own guarantees.

    This signals a bug (or a numerically hostile input far outside the
    supported regime), never a normal failure mode.
    """


class CaseLabel(Enum):
    """Which of the three effective-noise orderings a channel falls in."""

    I = "I"
    II = "II"
    III = "III"


def as_case(case) -> CaseLabel:
    """A CaseLabel from a CaseLabel or its value "I" / "II" / "III"; anything
    else is a ValidationError."""
    value = getattr(case, "value", case)
    try:
        return CaseLabel(value)
    except ValueError:
        raise ValidationError(f"case must be one of I/II/III, got {value!r}") from None


def _as_float4(values, name: str) -> Tuple[float, float, float, float]:
    try:
        out = tuple(float(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a sequence of 4 reals: {exc}") from exc
    if len(out) != 4:
        raise ValidationError(f"{name} must have exactly 4 entries, got {len(out)}")
    for k, v in enumerate(out):
        if math.isnan(v):
            raise ValidationError(f"{name}[{k}] is NaN")
    return out  # type: ignore[return-value]


@dataclass(frozen=True)
class SystemParams:
    """Physical description of one two-pair relay channel.

    Attributes
    ----------
    h : tuple of 4 floats
        Uplink (user-to-relay) amplitude gains.
    g : tuple of 4 floats
        Downlink (relay-to-user) amplitude gains.
    P : tuple of 4 floats
        Per-user transmit power budgets (>= 0).
    sigma2 : tuple of 4 floats
        Receiver noise variances at the users (> 0; +inf is admitted as the
        degraded-channel sentinel produced by canonicalization).
    sigmaR2 : float
        Noise variance at the relay (> 0, finite).
    PR : float
        Relay transmit power budget (>= 0).
    """

    h: Tuple[float, float, float, float]
    g: Tuple[float, float, float, float]
    P: Tuple[float, float, float, float]
    sigma2: Tuple[float, float, float, float]
    sigmaR2: float
    PR: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "h", _as_float4(self.h, "h"))
        object.__setattr__(self, "g", _as_float4(self.g, "g"))
        object.__setattr__(self, "P", _as_float4(self.P, "P"))
        object.__setattr__(self, "sigma2", _as_float4(self.sigma2, "sigma2"))
        object.__setattr__(self, "sigmaR2", float(self.sigmaR2))
        object.__setattr__(self, "PR", float(self.PR))

        for name in ("h", "g", "P"):
            for k, v in enumerate(getattr(self, name)):
                if math.isinf(v):
                    raise ValidationError(f"{name}[{k}] must be finite")
        for k, v in enumerate(self.P):
            if v < 0:
                raise ValidationError(f"P[{k}] must be >= 0, got {v}")
        for k, v in enumerate(self.sigma2):
            if not v > 0:  # catches NaN as well
                raise ValidationError(f"sigma2[{k}] must be > 0, got {v}")
        if math.isnan(self.sigmaR2) or math.isinf(self.sigmaR2) or self.sigmaR2 <= 0:
            raise ValidationError(f"sigmaR2 must be positive and finite, got {self.sigmaR2}")
        if math.isnan(self.PR) or math.isinf(self.PR) or self.PR < 0:
            raise ValidationError(f"PR must be >= 0 and finite, got {self.PR}")


@dataclass(frozen=True)
class RateTuple:
    """A point in 4-dimensional rate space, one coordinate per user.

    Components are clamped at zero on construction: rate expressions that are
    mathematically nonnegative may come out as tiny negatives in floating
    point, and downstream geometry assumes the nonnegative orthant.
    """

    rates: Tuple[float, float, float, float]

    def __init__(self, rates) -> None:
        vals = _as_float4(rates, "rates")
        object.__setattr__(self, "rates", tuple(v if v > 0.0 else 0.0 for v in vals))

    def __iter__(self) -> Iterator[float]:
        return iter(self.rates)

    def __getitem__(self, k: int) -> float:
        return self.rates[k]

    def __len__(self) -> int:
        return 4


@dataclass(frozen=True)
class CapacityTerms:
    """Single-hop capacity quantities derived from one parameter set.

    ``C[i]`` is user i+1's individual uplink term, ``D[i]`` the individual
    downlink term, ``Cpair[(i, j)]`` the two-user uplink sum term for the
    cross pairs (1,3), (1,4), (2,3), (2,4), and ``sigma_bar2[i]`` the
    effective downlink noise sigma2_i / g_i**2 (+inf when g_i == 0).
    """

    C: Tuple[float, float, float, float]
    D: Tuple[float, float, float, float]
    Cpair: Dict[Tuple[int, int], float]
    sigma_bar2: Tuple[float, float, float, float]

    def pair(self, i: int, j: int) -> float:
        return self.Cpair[(i, j)]


def geq(a: float, b: float) -> bool:
    """``a >= b`` within TIGHT_TOL * max(1, |b|), or within TIGHT_TOL when
    ``b`` is infinite; NaN on either side compares false."""
    if a >= b:
        return True
    return b - a <= TIGHT_TOL * (max(1.0, abs(b)) if math.isfinite(b) else 1.0)


def nonneg(x: float, what: str, scale: float = 1.0) -> float:
    """Clamp float dust on a mathematically nonnegative quantity.

    Returns ``x`` when it is >= 0 and 0 when it is negative by at most
    TIGHT_TOL * max(1, |scale|), ``scale`` being the magnitude of the
    operands ``x`` was computed from; anything more negative (or NaN) is a
    broken closed form and raises InternalConsistencyError.
    """
    if x >= 0.0:
        return x
    if -x <= TIGHT_TOL * max(1.0, abs(scale)):
        return 0.0
    raise InternalConsistencyError(f"{what} = {x} is negative beyond float dust")


def half_log2_rate(x, floor=None, cap=None):
    """0.5 * log2(x), raised to ``floor`` and then lowered to ``cap`` when given.

    Elementwise over a float or a numpy array: floats go through
    ``math.log2``/``max``/``min`` (no ufunc overhead on the scalar certificate
    path), arrays through ``np.log2``/``np.maximum``/``np.minimum`` (one pass
    over a whole power grid).  This is the only log in the package; every
    rate map below and in `uplink`/`downlink` is written once on top of it.
    Only the log itself can tell the two paths apart: on SIMD numpy builds
    ``np.log2`` and ``math.log2`` differ in the last bit for a few arguments
    in a thousand.
    """
    if isinstance(x, np.ndarray):
        log2, maximum, minimum = np.log2, np.maximum, np.minimum
    else:
        log2, maximum, minimum = math.log2, max, min
    y = 0.5 * log2(x)
    if floor is not None:
        y = maximum(floor, y)
    if cap is not None:
        y = minimum(y, cap)
    return y


def gaussian_layer(p, interference, noise, cap=None):
    """Rate of a Gaussian codeword (or broadcast layer) of power ``p`` decoded
    under ``interference``: 0.5*log2(1 + p / (interference + noise)), capped
    at ``cap`` when given.  ``noise`` may be +inf (zero rate)."""
    return half_log2_rate(1.0 + p / (interference + noise), cap=cap)


def lattice_layer(p, interference, noise):
    """Rate of one nested-lattice codeword: 0.5*[log2(1/2 + SNR)]+.  The
    modulo-sum decoder loses the "1+" inside the log; the clip keeps the rate
    meaningful at low SNR."""
    return half_log2_rate(0.5 + p / (interference + noise), floor=0.0)


def capacity_terms(params: SystemParams) -> CapacityTerms:
    """Compute all single-hop capacity terms for one channel.

    Parameters
    ----------
    params : SystemParams

    Returns
    -------
    CapacityTerms
        C_i = 1/2 log2(1 + h_i^2 P_i / sigmaR2),
        D_i = 1/2 log2(1 + g_i^2 PR / sigma2_i),
        C_ij = 1/2 log2(1 + (h_i^2 P_i + h_j^2 P_j) / sigmaR2) for the four
        cross pairs, and the effective downlink noises sigma2_i / g_i^2.
    """
    h, g, P, s2 = params.h, params.g, params.P, params.sigma2
    sR2, PR = params.sigmaR2, params.PR

    C = tuple(gaussian_layer(h[i] * h[i] * P[i], 0.0, sR2) for i in range(4))
    D = tuple(gaussian_layer(g[i] * g[i] * PR, 0.0, s2[i]) for i in range(4))
    Cpair = {
        (i, j): gaussian_layer(h[i - 1] ** 2 * P[i - 1] + h[j - 1] ** 2 * P[j - 1], 0.0, sR2)
        for (i, j) in PAIR_KEYS
    }
    sigma_bar2 = tuple(
        (s2[i] / (g[i] * g[i])) if g[i] != 0.0 else math.inf for i in range(4)
    )
    return CapacityTerms(C=C, D=D, Cpair=Cpair, sigma_bar2=sigma_bar2)


@dataclass(frozen=True)
class GapCertificate:
    """Per-vertex record of how close synthesis came to an outer-bound corner.

    ``slack[i] = target[i] - achieved[i]``; the certificate passes when every
    component of the slack is at most half a bit (within GAP_TOL) and the
    achieved tuple is itself inside the corresponding outer region.
    """

    link: str  # "uplink" | "downlink" | "combined"
    vertex_label: str
    target: RateTuple
    achieved: RateTuple
    slack: Tuple[float, float, float, float]
    passed: bool
    subcase: str = ""

    def __post_init__(self) -> None:
        if self.link not in ("uplink", "downlink", "combined"):
            raise ValidationError(f"link must be uplink/downlink/combined, got {self.link!r}")


def slack_of(target: RateTuple, achieved: RateTuple) -> Tuple[float, float, float, float]:
    return tuple(t - a for t, a in zip(target, achieved))  # type: ignore[return-value]
