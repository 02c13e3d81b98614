"""Uplink transceiver synthesis: rate splitting, lattice pairs, SIC at the relay.

Inside each pair the leading user splits its message in two: a *paired* part
sent at the trailing partner's rate and a *private* remainder.  The paired
parts ride nested-lattice codewords scaled so both pair members arrive at the
relay with equal power, letting the relay decode the modulo sum of the pair;
the private remainders are ordinary Gaussian codewords.  The relay peels the
four resulting signal groups off in a fixed order per target vertex:

* ``G1`` — leading user 1's private codeword (power p11),
* ``G3`` — leading user 3's private codeword (power p31),
* ``LA`` — pair A's lattice pair (two codewords of power p10 each),
* ``LB`` — pair B's lattice pair (two codewords of power p30 each).

An undecoded lattice pair contributes twice its per-codeword power as
interference.  `user_rates` alone composes a split's per-user rates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Sequence, Tuple

from .bounds import link_certificates, uplink_polytope
from .model import (
    CapacityTerms,
    GapCertificate,
    RateTuple,
    SystemParams,
    ValidationError,
    _noise,
    _power,
    capacity_terms,
    gaussian_layer,
    geq,
    lattice_layer,
    nonneg,
    received_powers,
)

class Step(str, Enum):
    """One decoding stage at the relay."""

    G1 = "G1"
    G3 = "G3"
    LA = "LA"
    LB = "LB"


def gaussian_rate(p: float, interference: float, sigma2: float) -> float:
    """Decoding rate of a Gaussian codeword of power p under given interference."""
    return gaussian_layer(
        _power(p, "p"), _power(interference, "interference"), _noise(sigma2, "sigma2")
    )


def lattice_rate(p: float, interference: float, sigma2: float) -> float:
    """Decoding rate of one lattice-pair codeword: 1/2 [log2(1/2 + SNR)]+."""
    return lattice_layer(
        _power(p, "p"), _power(interference, "interference"), _noise(sigma2, "sigma2")
    )


@dataclass(frozen=True)
class UplinkPowerAlloc:
    """Received powers at the relay for the four uplink signal groups."""

    p10: float
    p11: float
    p30: float
    p31: float

    def __post_init__(self) -> None:
        for name in ("p10", "p11", "p30", "p31"):
            object.__setattr__(self, name, _power(getattr(self, name), name))


def uplink_power_alloc(params: SystemParams) -> UplinkPowerAlloc:
    """The fixed power split driving every uplink vertex.

    Requires the canonical ordering h1^2 P1 >= h2^2 P2 and h3^2 P3 >= h4^2 P4.
    Each lattice pair runs at half the trailing user's received power; the
    leading users put the rest into their private codewords:

        p10 = h2^2 P2 / 2      p11 = h1^2 P1 - h2^2 P2
        p30 = h4^2 P4 / 2      p31 = h3^2 P3 - h4^2 P4
    """
    return power_alloc(received_powers(params))


def power_alloc(q: Sequence[float]) -> UplinkPowerAlloc:
    """`uplink_power_alloc` from a canonical frame's received powers ``q``."""
    for lead, trail in ((0, 1), (2, 3)):
        if not geq(q[lead], q[trail]):
            raise ValidationError(
                f"uplink ordering violated: h{lead + 1}^2*P{lead + 1}={q[lead]} < "
                f"h{trail + 1}^2*P{trail + 1}={q[trail]} (canonicalize first)"
            )
    return UplinkPowerAlloc(0.5 * q[1], max(0.0, q[0] - q[1]), 0.5 * q[3], max(0.0, q[2] - q[3]))


_ORDERS: Dict[str, Tuple[Step, Step, Step, Step]] = {
    "U1": (Step.G1, Step.LA, Step.G3, Step.LB),
    "U2": (Step.G3, Step.LB, Step.G1, Step.LA),
    "U3": (Step.G1, Step.G3, Step.LA, Step.LB),
    "U4": (Step.G3, Step.G1, Step.LA, Step.LB),
    "U5": (Step.G1, Step.G3, Step.LB, Step.LA),
    "U6": (Step.G3, Step.G1, Step.LB, Step.LA),
}
UPLINK_LABELS = tuple(_ORDERS)


def decoding_order(label: str) -> Tuple[Step, Step, Step, Step]:
    """SIC order used at the relay for one uplink vertex label."""
    try:
        return _ORDERS[label]
    except (KeyError, TypeError):  # TypeError: an unhashable label
        raise ValidationError(f"unknown uplink vertex label {label!r}") from None


def user_rates(r10, r11, r30, r31):
    """Per-user rates of a rate split, elementwise: a leader gets its paired
    plus its private rate, a trailer its paired rate."""
    return r10 + r11, r10, r30 + r31, r30


@dataclass(frozen=True)
class UplinkSplitRates:
    """Rates of the four uplink constituents after one SIC pass."""

    r10: float
    r11: float
    r30: float
    r31: float

    def user_rates(self) -> RateTuple:
        """The per-user exchange rates (`user_rates`) as a RateTuple."""
        return RateTuple(user_rates(self.r10, self.r11, self.r30, self.r31))


@functools.lru_cache(maxsize=64)
def _sic_plan(orders: Tuple[Tuple[Step, ...], ...]):
    """Compile decoding orders into the distinct SIC layers they share.

    A layer's interference ``sum(weight[s] for s in pending)`` is
    ``((0 + a) + b) + c``, and float addition commutes exactly, so its rate
    depends only on its step, the set of its first two pending steps and the
    pending steps after them, in order.  Keyed that way the 24 orders need 40
    layers instead of 96.  Returns the layer count and, per order, the layers
    it computes first as (id, rate kernel, step, pending steps), each step as
    its place in `Step` order, the ids of its (LA, G1, LB, G3) rates and the
    ids whose last use it is.
    """
    steps = list(Step)
    ids: Dict[tuple, int] = {}
    plan = []
    for order in orders:
        first, at = [], {}
        for k, step in enumerate(order):
            pending = order[k + 1 :]
            key = (step, frozenset(pending[:2]), pending[2:])
            if key not in ids:
                ids[key] = len(ids)
                layer = gaussian_layer if step in (Step.G1, Step.G3) else lattice_layer
                first.append((ids[key], layer, steps.index(step), tuple(map(steps.index, pending))))
            at[step] = ids[key]
        plan.append((first, (at[Step.LA], at[Step.G1], at[Step.LB], at[Step.G3]), []))
    last = {i: done for _, outputs, done in plan for i in outputs}
    for i, done in last.items():
        done.append(i)
    return len(ids), plan


def sic_rates(p10, p11, p30, p31, orders: Iterable[Sequence[Step]], sigmaR2: float):
    """The relay's SIC chain, elementwise over floats or numpy arrays of
    received powers that broadcast together: yields (r10, r11, r30, r31) for
    each decoding order in ``orders``.

    Decoded groups are subtracted; groups not yet decoded interfere with the
    current stage, whose rate takes their broadcast shape.  A pending lattice
    pair interferes with twice its per-codeword power.  Orders share every
    layer whose step, set of first two pending steps and later pending steps
    agree (`_sic_plan`), bit for bit, and a layer is dropped after the last
    order that reads it.  Inputs are not validated here.
    """
    count, plan = _sic_plan(tuple(map(tuple, orders)))
    power = (p11, p31, p10, p30)  # in `Step` order
    weight = (p11, p31, 2.0 * p10, 2.0 * p30)
    layers = [None] * count
    for first, (la, g1, lb, g3), done in plan:
        for i, layer, k, pending in first:
            layers[i] = layer(power[k], sum([weight[j] for j in pending]), sigmaR2)
        yield layers[la], layers[g1], layers[lb], layers[g3]
        for i in done:
            layers[i] = None


def uplink_achievable(
    alloc: UplinkPowerAlloc, order: Sequence[Step], sigmaR2: float
) -> UplinkSplitRates:
    """Evaluate the SIC chain (`sic_rates`) for one decoding order."""
    steps = tuple(order)
    if not all(isinstance(s, Step) for s in steps) or sorted(steps) != sorted(Step):
        raise ValidationError(f"order must be a permutation of G1/G3/LA/LB, got {steps}")
    sigmaR2 = _noise(sigmaR2, "sigmaR2")
    (rates,) = sic_rates(alloc.p10, alloc.p11, alloc.p30, alloc.p31, (steps,), sigmaR2)
    return UplinkSplitRates(*rates)


@dataclass(frozen=True)
class UplinkVertex:
    """One corner of the uplink region with its rate-split decomposition.

    ``split`` is (R10', R11', R30', R31'), the paired and private rate
    targets, derived from ``rates`` = (R1, R2, R3, R4): a leader's paired
    part runs at its partner's rate, so the split is (R2, R1 - R2, R4, R3 - R4).
    """

    label: str
    rates: RateTuple
    split: Tuple[float, float, float, float]


def uplink_vertices(terms: CapacityTerms) -> List[UplinkVertex]:
    """The six corners of the uplink region targeted by the synthesis.

    Requires canonically ordered terms (C1 >= C2, C3 >= C4).  Each vertex
    comes with the rate split the relay's SIC schedule is designed around,
    derived from its rates (`UplinkVertex`).
    """
    C = terms.C
    Cp = terms.Cpair
    if not (geq(C[0], C[1]) and geq(C[2], C[3])):
        raise ValidationError(
            f"uplink terms not canonically ordered: C={C} (canonicalize first)"
        )
    c1, c2, c3, c4 = C
    c13, c14, c23, c24 = Cp[(1, 3)], Cp[(1, 4)], Cp[(2, 3)], Cp[(2, 4)]

    table = {
        "U1": (c13 - c3, c23 - c3, c3, c4),
        "U2": (c1, c2, c13 - c1, c14 - c1),
        "U3": (c13 - c23 + c24 - c4, c24 - c4, c23 - c24 + c4, c4),
        "U4": (c14 - c4, c24 - c4, c13 - c14 + c4, c4),
        "U5": (c13 - c23 + c2, c2, c23 - c2, c24 - c2),
        "U6": (c2 + c14 - c24, c2, c13 - c14 + c24 - c2, c24 - c2),
    }

    out: List[UplinkVertex] = []
    for label, raw in table.items():
        r1, r2, r3, r4 = (nonneg(v, ("{}.rates[{}]", label, k)) for k, v in enumerate(raw, 1))
        own1 = nonneg(r1 - r2, ("{}.split[2]", label))
        own3 = nonneg(r3 - r4, ("{}.split[4]", label))
        out.append(UplinkVertex(label, RateTuple((r1, r2, r3, r4)), (r2, own1, r4, own3)))
    return out


def uplink_certificate(params: SystemParams) -> List[GapCertificate]:
    """`certify_uplink` on a canonical channel's own terms and powers."""
    return certify_uplink(capacity_terms(params), received_powers(params), params.sigmaR2)


def certify_uplink(terms: CapacityTerms, q: Sequence[float], sigmaR2: float) -> List[GapCertificate]:
    """Certify the half-bit gap at every uplink vertex of a canonical frame,
    given its terms, its received powers ``q`` and the relay noise.

    The relay runs each vertex's designated SIC order on the fixed power
    allocation (all six orders in one `sic_rates` pass), and `user_rates`
    composes each split into per-user rates; `bounds.link_certificates`
    judges each achieved tuple against its vertex and the uplink region.
    """
    alloc = power_alloc(q)
    vertices = uplink_vertices(terms)
    achieved = sic_rates(
        alloc.p10, alloc.p11, alloc.p30, alloc.p31,
        [_ORDERS[v.label] for v in vertices], sigmaR2,
    )
    return link_certificates("uplink", uplink_polytope(terms), [
        (v.label, v.rates, RateTuple(user_rates(*r)), "")
        for v, r in zip(vertices, achieved)
    ])
