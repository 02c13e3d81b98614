"""Channel model for the Gaussian two-pair two-way relay network.

Four users exchange messages pairwise through a single relay: users 1 and 2
form one pair, users 3 and 4 the other.  Every transmission runs over two
hops — a multiple-access uplink into the relay and a broadcast downlink out
of it — and all rates are measured in bits per channel use (logs base 2).

This module holds the shared vocabulary used everywhere else: the parameter
record and the one rule per kind of number, the case labels, rate tuples, the
Gaussian and lattice rate kernels (elementwise over floats or numpy arrays),
the received powers and effective noises (the only spelling of either), the
per-link capacity terms, certificate records, and the numerical tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Sequence, Tuple, Union

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


#: a name, or a ``(template, *args)`` tuple formatted only when raising
_Name = Union[str, Tuple]


def _entry(name: _Name, k=None) -> str:
    if not isinstance(name, str):
        name = name[0].format(*name[1:])
    return name if k is None else f"{name}[{k}]"


def _real(x, name: _Name, k=None) -> float:
    """The one real-number conversion: a non-number or NaN is a ValidationError
    naming ``name`` (``name[k]`` for entry k, built only when raising)."""
    try:
        v = float(x)
    except OverflowError:  # an int past float range
        raise ValidationError(f"{_entry(name, k)} is too large for a float") from None
    except (TypeError, ValueError):
        raise ValidationError(f"{_entry(name, k)} must be a real number, got {x!r}") from None
    if v != v:
        raise ValidationError(f"{_entry(name, k)} is NaN; numbers must be finite")
    return v


def _finite(x, name: _Name, k=None) -> float:
    """A real number that is not infinite (a gain, or the relay noise)."""
    v = _real(x, name, k)
    if math.isinf(v):
        raise ValidationError(f"{_entry(name, k)} must be finite, got {v}")
    return v


def _power(x, name: _Name, k=None) -> float:
    """The one power rule: finite and >= 0."""
    v = _finite(x, name, k)
    if v < 0.0:
        raise ValidationError(f"{_entry(name, k)} must be >= 0, got {v}")
    return v


def _noise(x, name: _Name, k=None) -> float:
    """The one noise rule: > 0, with +inf admitted (a user nobody reaches)."""
    v = _real(x, name, k)
    if not v > 0.0:
        raise ValidationError(f"{_entry(name, k)} must be > 0, got {v}")
    return v


def _integer(x, name: str, least: int, alternative: str = "") -> int:
    """The one integer rule: a Python or numpy integer, not a bool, and at
    least ``least``; returned as a plain int.  ``alternative`` extends the
    message for a non-integer (e.g. " or a numpy Generator")."""
    if not isinstance(x, (int, np.integer)) or isinstance(x, bool):
        raise ValidationError(f"{name} must be an integer{alternative}, got {x!r}")
    if x < least:
        raise ValidationError(f"{name} must be >= {least}, got {x}")
    return int(x)


def _as_float4(values, name: _Name, rule=_real) -> Tuple[float, float, float, float]:
    """Four numbers, each through ``rule``; entry k is named ``name[k]``, 1-based."""
    try:
        vals = tuple(values)
    except TypeError:
        raise ValidationError(
            f"{_entry(name)} must be a sequence of 4 reals, got {values!r}"
        ) from None
    if len(vals) != 4:
        raise ValidationError(f"{_entry(name)} must have exactly 4 entries, got {len(vals)}")
    a, b, c, d = vals
    return rule(a, name, 1), rule(b, name, 2), rule(c, name, 3), rule(d, name, 4)


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
        for name, rule in (("h", _finite), ("g", _finite), ("P", _power), ("sigma2", _noise)):
            object.__setattr__(self, name, _as_float4(getattr(self, name), name, rule))
        object.__setattr__(self, "sigmaR2", _noise(_finite(self.sigmaR2, "sigmaR2"), "sigmaR2"))
        object.__setattr__(self, "PR", _power(self.PR, "PR"))
        # the derived quantities must be floats too (g = 0 and sigma2 = +inf
        # stay the sentinels they are): no overflow, no underflow to zero
        for k, g in enumerate(self.g, 1):
            if g != 0.0 and not 0.0 < g * g < math.inf:
                raise ValidationError(f"g[{k}] squared leaves float range, got {g}")
        for k, sbar in enumerate(effective_noises(self), 1):
            if sbar == 0.0:
                msg = f"effective noise sigma2[{k}]/(g[{k}]*g[{k}]) underflows to 0"
                raise ValidationError(msg)
        # so must the received powers and the SNRs (NaN from inf * 0 or inf / inf
        # fails too); a message names user k as {0} and cross pair k as {1}, {2}
        q = received_powers(self)
        up, down, pair = _snrs(self, q)
        for values, what in (
            (q, "received power h[{0}]*h[{0}]*P[{0}]"),
            (up, "uplink SNR h[{0}]*h[{0}]*P[{0}]/sigmaR2"),
            (down, "downlink SNR g[{0}]*g[{0}]*PR/sigma2[{0}]"),
            (pair, "uplink SNR (h[{1}]*h[{1}]*P[{1}]+h[{2}]*h[{2}]*P[{2}])/sigmaR2"),
        ):
            for k, (x, key) in enumerate(zip(values, PAIR_KEYS), 1):
                if not x < math.inf:
                    raise ValidationError(what.format(k, *key) + " overflows a float")


class RateTuple(tuple):
    """A point in 4-dimensional rate space, one coordinate per user.

    Components are clamped at zero on construction: rate expressions that are
    mathematically nonnegative may come out as tiny negatives in floating
    point, and downstream geometry assumes the nonnegative orthant.
    """

    def __new__(cls, rates) -> "RateTuple":
        return super().__new__(cls, [v if v > 0.0 else 0.0 for v in _as_float4(rates, "rates")])

    @property
    def rates(self) -> Tuple[float, float, float, float]:
        return self


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


def nonneg(x: float, what: _Name, scale: float = 1.0) -> float:
    """Clamp float dust on a mathematically nonnegative quantity.

    Returns ``x`` when it is >= 0 and 0 when it is negative by at most
    TIGHT_TOL * max(1, |scale|), ``scale`` being the magnitude of the
    operands ``x`` was computed from; anything more negative (or NaN) is a
    broken closed form and raises InternalConsistencyError naming ``what``.
    """
    if x >= 0.0:
        return x
    if -x <= TIGHT_TOL * max(1.0, abs(scale)):
        return 0.0
    raise InternalConsistencyError(f"{_entry(what)} = {x} is negative beyond float dust")


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


def received_powers(params: SystemParams) -> Tuple[float, ...]:
    """Each user's received uplink power h_i*h_i*P_i."""
    return tuple([h * h * p for h, p in zip(params.h, params.P)])


def effective_noises(params: SystemParams) -> Tuple[float, ...]:
    """Each user's effective downlink noise sigma2_i/(g_i*g_i), +inf when g_i == 0."""
    return tuple([s / (g * g) if g != 0.0 else math.inf for g, s in zip(params.g, params.sigma2)])


def _snrs(params: SystemParams, q: Sequence[float]) -> Tuple[Tuple[float, ...], ...]:
    """The SNRs whose logs are C_k, D_k and C_ij (per `PAIR_KEYS`), from the powers q."""
    sR2, PR = params.sigmaR2, params.PR
    return (
        tuple([x / sR2 for x in q]),
        tuple([g * g * PR / s2 for g, s2 in zip(params.g, params.sigma2)]),
        tuple([(q[i - 1] + q[j - 1]) / sR2 for i, j in PAIR_KEYS]),
    )


def capacity_terms(params: SystemParams) -> CapacityTerms:
    """Compute all single-hop capacity terms for one channel.

    Returns
    -------
    CapacityTerms
        C_i = 1/2 log2(1 + h_i^2 P_i / sigmaR2),
        D_i = 1/2 log2(1 + g_i^2 PR / sigma2_i),
        C_ij = 1/2 log2(1 + (h_i^2 P_i + h_j^2 P_j) / sigmaR2) for the four
        cross pairs, and the effective downlink noises sigma2_i / g_i^2.
    """
    up, down, pair = _snrs(params, received_powers(params))
    return CapacityTerms(
        C=tuple([half_log2_rate(1.0 + x) for x in up]),
        D=tuple([half_log2_rate(1.0 + x) for x in down]),
        Cpair={key: half_log2_rate(1.0 + x) for key, x in zip(PAIR_KEYS, pair)},
        sigma_bar2=effective_noises(params),
    )


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
