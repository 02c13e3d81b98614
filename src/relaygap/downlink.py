"""Downlink transceiver synthesis: relay broadcast coding toward four users.

After canonicalization the four effective downlink noises obey
``sbar1 >= sbar2``, ``sbar3 >= sbar4`` and ``sbar4 >= sbar2``; what remains
free is how the two pairs interleave, and that shape -- one of three
orderings -- decides the whole broadcast construction:

* case I   (``sbar3 >= sbar4 >= sbar1 >= sbar2``): two superposed codewords,
  one per pair, peeled in quality order (scheme "4.1");
* case II  (``sbar3 >= sbar1 >= sbar4 >= sbar2``): either four codewords with
  both leaders' private message parts split out (scheme "4.2"), or the
  two-codeword layout decoded in the swapped order (scheme "4.3");
* case III (``sbar1 >= sbar3 >= sbar4 >= sbar2``): three codewords with the
  pair-A leader's private part split out (scheme "4.4").

Each case's deliverable region is a polytope with a short list of maximal
vertices (labels ``D1.1`` .. ``D3.5``).  One table, `_VERTICES`, has a row
per vertex: its target, its closed-form relay power recipe and the recipe's
branches as (tag, scheme) pairs.  A recipe branches on how the power budget
compares with the effective noises; some branches pin only the *sum* of the
two weakest layers and leave the split to an interval rule (`pr4_interval`).
`message_plan` spells out which user messages ride which relay codeword and
how each user unwraps them, and each scheme's rate map (`scheme_map`) and
case (`CASE_SCHEMES`) are read off that plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .bounds import _NOISE_ORDERS, downlink_polytope, link_certificates, require_noise_order
from .model import (
    CapacityTerms,
    CaseLabel,
    GapCertificate,
    InternalConsistencyError,
    RateTuple,
    SystemParams,
    ValidationError,
    _as_float4,
    _noise,
    _power,
    _real,
    as_case,
    capacity_terms,
    gaussian_layer,
    geq,
    nonneg,
)


def case_of_label(label: str) -> CaseLabel:
    """Map a vertex label like "D2.3" to the case family it belongs to."""
    if not isinstance(label, str) or label not in SUBCASE_TAGS:
        raise ValidationError(
            f"unknown downlink vertex label {label!r}; expected one of {tuple(SUBCASE_TAGS)}"
        )
    return list(CaseLabel)[int(label[1]) - 1]


def classify_case(sigma_bar2: Sequence[float]) -> CaseLabel:
    """Pick the broadcast construction family from the effective noises.

    Requires the canonical partial order (``sbar1 >= sbar2``,
    ``sbar3 >= sbar4``, ``sbar4 >= sbar2``); ties between the remaining free
    comparisons resolve toward the lower-numbered case.
    """
    s1, s2, s3, s4 = sbar = _as_float4(sigma_bar2, "sigma_bar2", _noise)
    require_noise_order(sbar, "canonical")
    if s4 >= s1:
        return CaseLabel.I
    if s3 >= s1:
        return CaseLabel.II
    return CaseLabel.III


# ---------------------------------------------------------------------------
# scheme rate maps
# ---------------------------------------------------------------------------


def scheme_map(scheme_id: str, p: Sequence, sigma_bar2: Sequence[float]):
    """The four user rates of one broadcast scheme at layer powers ``p =
    (pR1, pR2, ..)``, one per layer it uses (more are not read), elementwise
    over floats or numpy arrays that broadcast together; inputs are not
    validated here (`scheme_rates` is).  The rates are read off the scheme's
    message plan (`_compile`); a decode's interference is the power of the
    layers still in the way, added in layer order.  An effective noise of
    +inf (a user the relay cannot reach) gives that user's decodes zero rate.
    """
    rates = []
    for shares in _PROGRAMS[scheme_id]:
        rate = None
        for decodes in shares:
            least = None
            for layer, user, first, rest in decodes:
                interference = 0.0 if first is None else p[first]
                for k in rest:
                    interference = interference + p[k]
                least = gaussian_layer(p[layer], interference, sigma_bar2[user], cap=least)
            rate = least if rate is None else rate + least
        rates.append(rate)
    return tuple(rates)


@dataclass(frozen=True)
class DownlinkPowerAlloc:
    """Relay power split across (up to) four broadcast layers.

    ``scheme_id`` names the rate map the split is meant for; layers a scheme
    does not use (`SCHEME_LAYERS`) must be exactly zero.
    """

    pR1: float
    pR2: float
    pR3: float
    pR4: float
    scheme_id: str

    def __post_init__(self) -> None:
        if self.scheme_id not in SCHEME_IDS:
            raise ValidationError(f"scheme_id must be one of {SCHEME_IDS}, got {self.scheme_id!r}")
        used = SCHEME_LAYERS[self.scheme_id]
        for k, name in enumerate(("pR1", "pR2", "pR3", "pR4")):
            v = _real(getattr(self, name), name)
            # float dust below zero (within `geq`) is zero power
            v = 0.0 if v <= 0.0 and geq(v, 0.0) else _power(v, name)
            if k >= used and v:
                raise ValidationError(f"{name} > 0 but scheme {self.scheme_id} uses {used} layers")
            object.__setattr__(self, name, v)

    @property
    def total(self) -> float:
        return self.pR1 + self.pR2 + self.pR3 + self.pR4


def scheme_rates(alloc: DownlinkPowerAlloc, sigma_bar2: Sequence[float]) -> RateTuple:
    """Evaluate the rate map (`scheme_map`) named by ``alloc.scheme_id`` at ``alloc``."""
    powers = (alloc.pR1, alloc.pR2, alloc.pR3, alloc.pR4)
    sbar = _as_float4(sigma_bar2, "sigma_bar2", _noise)
    return RateTuple(scheme_map(alloc.scheme_id, powers, sbar))


# ---------------------------------------------------------------------------
# maximal vertices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DownlinkVertex:
    label: str
    rates: RateTuple


def downlink_vertices(case: CaseLabel, terms: CapacityTerms) -> List[DownlinkVertex]:
    """The maximal vertices of one case's deliverable region, in label order.

    Negative float dust in a component is clamped to zero (`nonneg`); a
    component further below zero means the terms do not actually satisfy the
    case's noise ordering and raises.
    """
    case = as_case(case)
    d = terms.D
    return [
        DownlinkVertex(label, RateTuple([nonneg(x, ("{} component", label)) for x in target(*d)]))
        for label, target in _CASE_TARGETS[case]
    ]


# ---------------------------------------------------------------------------
# per-vertex power recipes
# ---------------------------------------------------------------------------


def pr4_interval(
    pmin: float, pmax: float, psum: float, extra_caps: Sequence[float] = ()
) -> float:
    """Pick the fourth-layer power out of its feasibility window.

    The window is ``[max(pmin, 0), min(pmax, psum, *extra_caps)]``; the
    recipes that call this are proven to leave it nonempty, so an empty
    window (beyond `geq` slack) is an internal transcription bug, not a user
    error.  Returns the midpoint — the point of maximal margin against the
    float-level shrinkage the closed forms can exhibit.  A non-number or NaN
    argument is a ValidationError naming it.
    """
    pmin, pmax, psum = _real(pmin, "pmin"), _real(pmax, "pmax"), _real(psum, "psum")
    try:
        caps = tuple(_real(cap, "extra_caps", k) for k, cap in enumerate(extra_caps, 1))
    except TypeError:  # not iterable
        raise ValidationError(f"extra_caps must be a sequence, got {extra_caps!r}") from None
    return _pr4_interval(pmin, pmax, psum, caps)


def _pr4_interval(pmin, pmax, psum, extra_caps=()):
    """`pr4_interval` without its checks, for the recipes' own numbers."""
    lo = max(pmin, 0.0)
    hi = min((pmax, psum, *extra_caps))
    if not geq(hi, lo):
        raise InternalConsistencyError(
            f"empty fourth-layer power window: lo={lo}, hi={hi} "
            f"(pmin={pmin}, pmax={pmax}, psum={psum}, extra_caps={tuple(extra_caps)})"
        )
    mid = 0.5 * (lo + hi)
    return min(max(mid, 0.0), max(psum, 0.0))


def _threshold(s1: float, s3: float) -> float:
    """The budget level t with sum-layer feasibility flips: s1*s3/(s3-2*s1),
    taken as +inf when the denominator vanishes (or s1 is already infinite)."""
    if math.isinf(s1):
        return math.inf
    d = 1.0 - 2.0 * s1 / s3
    return math.inf if d <= 0.0 else s1 / d


def alloc_for_vertex(
    case: CaseLabel, label: str, params: SystemParams
) -> Tuple[DownlinkPowerAlloc, str]:
    """Closed-form relay power split targeting one maximal vertex.

    Returns the allocation together with a tag naming the recipe branch that
    fired (branch predicates compare the power budget PR with the effective
    noises).  ``params`` must be canonical and its noise ordering must match
    ``case``; the vertex ``label`` must belong to ``case``.
    """
    case = as_case(case)
    if case_of_label(label) is not case:
        raise ValidationError(f"vertex {label} does not belong to case {case.value}")
    terms = capacity_terms(params)
    require_noise_order(terms.sigma_bar2, case.value)
    return _recipe(label, params.PR, terms.sigma_bar2)


def _recipe(
    label: str, PR: float, sigma_bar2: Sequence[float]
) -> Tuple[DownlinkPowerAlloc, str]:
    """`alloc_for_vertex` without its checks: the caller vouches that
    ``sigma_bar2`` matches the case of ``label``.  Runs the vertex's recipe
    and puts its powers on the scheme of the branch that fired."""
    _, recipe, branches = _VERTICES[label]
    powers, branch = recipe(PR, *sigma_bar2)
    tag, scheme = branches[branch]
    alloc = DownlinkPowerAlloc(*powers, scheme)
    if not geq(PR, alloc.total):
        raise InternalConsistencyError(
            f"recipe for {label} ({tag}) overspends the budget: "
            f"total={alloc.total} > PR={PR}"
        )
    return alloc, tag


def _waterfill(k, top, low):
    """The threshold recipe on sbar_k: at or above it (branch 0), layer
    ``low`` gets sbar_k and layer ``top`` the surplus; below it (branch 1),
    layer ``low`` takes the whole budget."""
    def recipe(PR, s1, s2, s3, s4):
        s = (s1, s2, s3, s4)[k - 1]
        p = [0.0, 0.0, 0.0, 0.0]
        if PR >= s:
            p[top - 1], p[low - 1] = PR - s, s
            return p, 0
        p[low - 1] = PR
        return p, 1
    return recipe


def _fill_34(PR, pmin, pmax, psum, extra_caps=()):
    """The step every windowed recipe ends in: layer 4 takes its power from
    the window (`pr4_interval`), layer 3 the rest of the sum ``psum``.
    Returns (p3, p4)."""
    p4 = _pr4_interval(pmin, pmax, psum, extra_caps)
    return nonneg(psum - p4, "pR3", PR), p4


def _window(X, PR, s2, s4):
    """The fourth-layer window (X (PR+s2) / (2 (PR+s4)) - s2, 2X - s4) that
    D2.3 and D2.5's two windows below sbar3 share; returns (pmin, pmax)."""
    return X * (PR + s2) / (2.0 * (PR + s4)) - s2, X * 2.0 - s4


def _gain(PR, s1, s4):
    """D2.3's window factor F; D2.5's K above sbar3 is F * (s3 / (PR + s3))."""
    return (s4 / (PR + s4)) * ((PR + s1) / s1)


def _alloc_d23(PR, s1, s2, s3, s4):
    if PR >= s1:
        p3, p4 = _fill_34(PR, *_window(_gain(PR, s1, s4) * (s1 + s4), PR, s2, s4), s1)
        return (0.0, PR - s1, p3, p4), 0
    if PR >= s4:
        return (0.0, 0.0, PR - s4, s4), 1
    return (0.0, 0.0, 0.0, PR), 2


def _alloc_d24(PR, s1, s2, s3, s4):
    if PR < s4:
        return (0.0, 0.0, 0.0, PR), 0
    if PR < s3:
        if s4 >= 2.0 * s2:
            p4 = s4 - 2.0 * s2
            return (0.0, PR - p4, 0.0, p4), 1
        return (0.0, PR, 0.0, 0.0), 2
    if s3 >= 2.0 * s1:
        p4 = s1 * (s3 + 2.0 * s1 - s4) / (s3 + s1)
        psum = s1 * (s3 + 2.0 * s1) / s3
        p3 = nonneg(psum - p4, "pR3", PR)
        p2 = nonneg(s3 - psum, "pR2", PR)
        return (PR - s3, p2, p3, p4), 3
    return (PR - s3, 0.0, 0.5 * s3, 0.5 * s3), 4


def _alloc_d25(PR, s1, s2, s3, s4):
    """The eight-branch recipe for the case-II vertex that keeps all four
    pair-sum rows tight at once."""
    thr = _threshold(s1, s3)

    if s3 >= 3.0 * s1:
        if PR >= s3:
            return _d25_top(PR, s1, s2, s3, s4), 0
        if PR > thr:
            psum = s1 * (2.0 * PR / s3 + 1.0)
            p2 = nonneg(PR - psum, "pR2", PR)
            q3 = 1.0 if math.isinf(s3) else s3 / (PR + s3)
            G = (2.0 * PR * s1 / s3 + s1 + s4) * (s4 / (PR + s4)) * ((PR + s1) / s1) * q3
            p3, p4 = _fill_34(PR, *_window(G, PR, s2, s4), psum)
            return (0.0, p2, p3, p4), 1
        return _d25_low(PR, s1, s2, s3, s4), 2

    if s3 >= 2.0 * s1:
        if PR >= thr:
            return _d25_top(PR, s1, s2, s3, s4), 3
        if PR > s3:
            psum = 2.0 * s3 * (PR + s1) / (PR + s3) - s1
            p1 = nonneg(PR - psum, "pR1", PR)
            K = _gain(PR, s1, s4) * (s3 / (PR + s3))
            pmin = K * (PR + s2) / 2.0 - s2
            pmax = K * ((2.0 + (s4 - s1) / s3) * PR + s1 + s4) - s4
            cap = (PR + 2.0 * s1 - s3) * s3 / (PR + s3)
            _d25_quadratic_check(PR, s1, s2, s3, s4)
            p3, p4 = _fill_34(PR, pmin, pmax, psum, (cap,))
            return (p1, 0.0, p3, p4), 4
        return _d25_low(PR, s1, s2, s3, s4), 5

    # sbar3 < 2*sbar1: D2.2's threshold recipe, on the alternate two-layer scheme
    powers, branch = _VERTICES["D2.2"][1](PR, s1, s2, s3, s4)
    return powers, 6 + branch


def _d25_top(PR, s1, s2, s3, s4):
    """D2.5's high-power window: peel layer 1 at full strength and split the
    remaining budget s3 across layers 2..4."""
    shrink = (s1 / (PR + s1)) * ((PR + s3) / s3)
    psum = shrink * 2.0 * (s3 + s1) - s1
    p2 = nonneg(s3 - psum, "pR2", PR)
    K = _gain(PR, s1, s4) * (s3 / (PR + s3))
    pmin = K * (psum + s4) * (PR + s2) / (2.0 * (s3 + s4)) - s2
    pmax = K * (psum + s4) * 2.0 * (PR + s1) / (s3 + s1) - s4
    p3, p4 = _fill_34(PR, pmin, pmax, psum)
    return PR - s3, p2, p3, p4


def _d25_low(PR, s1, s2, s3, s4):
    """D2.5's low-power window: the whole budget goes to layers 3 and 4."""
    u1 = 1.0 if math.isinf(s1) else (PR + s1) / s1
    q3 = 1.0 if math.isinf(s3) else s3 / (PR + s3)
    p3, p4 = _fill_34(PR, *_window(s4 * u1 * q3, PR, s2, s4), PR)
    return 0.0, 0.0, p3, p4


def _d25_quadratic_check(PR, s1, s2, s3, s4):
    """Sanity: the quadratic controlling the mid-power window's feasibility
    must be nonnegative at the operating budget."""
    a = 2.0 * s1 - s4
    b = 4.0 * s1 * s1 - 2.0 * s1 * s3 + s1 * s4 - s2 * s4
    c = 4.0 * s1 * s1 * s4 - 2.0 * s1 * s3 * s4 - s1 * s2 * s4
    f = (a * PR + b) * PR + c
    nonneg(f, ("feasibility quadratic at PR={}", PR), max(abs(a) * PR * PR, abs(b) * PR, abs(c)))


def _private(k):
    """D3.4 (k = 4) and D3.5 (k = 3): layer 3 carries user 1's private
    remainder at the level pair B's user k can tolerate."""
    def recipe(PR, s1, s2, s3, s4):
        sk = (s1, s2, s3, s4)[k - 1]
        if PR >= s1:
            p2 = nonneg(s1 - sk, "pR2", PR)
            return (PR - s1, p2, sk, 0.0), 0
        p3 = nonneg(PR * (sk - s2) / (PR + sk), "pR3", PR)
        p2 = nonneg(PR - p3, "pR2", PR)
        return (0.0, p2, p3, 0.0), 1
    return recipe


#: one row per downlink vertex, in label order: (target, recipe, branches).
#: ``target(d1, d2, d3, d4)`` is its rate tuple from the terms' D, ``recipe(PR,
#: s1, s2, s3, s4)`` returns the four layer powers and the index of the branch
#: that fired, and ``branches`` holds each branch's (tag, scheme).
_VERTICES: Dict[str, tuple] = {
    "D1.1": (lambda d1, d2, d3, d4: (d2, d1, 0.0, 0.0),
             lambda PR, s1, s2, s3, s4: ((0.0, PR, 0.0, 0.0), 0), (("always", "4.1"),)),
    "D1.2": (lambda d1, d2, d3, d4: (d2 - d4, d1 - d4, d4, d3),
             _waterfill(4, 1, 2), (("PR>=sbar4", "4.1"), ("PR<sbar4", "4.1"))),
    "D1.3": (lambda d1, d2, d3, d4: (d2 - d3, d1 - d3, d3, d3),
             _waterfill(3, 1, 2), (("PR>=sbar3", "4.1"), ("PR<sbar3", "4.1"))),
    "D2.1": (lambda d1, d2, d3, d4: (d2, d1, 0.0, 0.0),
             _waterfill(1, 2, 4), (("PR>=sbar1", "4.2"), ("PR<sbar1", "4.2"))),
    "D2.2": (lambda d1, d2, d3, d4: (d2 - d4, 0.0, d4, d3),
             _waterfill(4, 1, 2), (("PR>=sbar4", "4.3"), ("PR<sbar4", "4.3"))),
    "D2.3": (lambda d1, d2, d3, d4: (d2 - d4 + d1, d1, d4 - d1, 0.0), _alloc_d23,
             (("PR>=sbar1", "4.2"), ("sbar4<=PR<sbar1", "4.2"), ("PR<sbar4", "4.2"))),
    "D2.4": (lambda d1, d2, d3, d4: (d2 - d3, d1 - d3, d3, d3), _alloc_d24, (
        ("PR<sbar4", "4.2"), ("sbar4<=PR<sbar3,sbar4>=2sbar2", "4.2"),
        ("sbar4<=PR<sbar3,sbar4<2sbar2", "4.2"), ("PR>=sbar3,sbar3>=2sbar1", "4.2"),
        ("PR>=sbar3,sbar3<2sbar1", "4.2"))),
    "D2.5": (lambda d1, d2, d3, d4: (d2 - d4 + d1 - d3, d1 - d3, d4 - d1 + d3, d3), _alloc_d25, (
        ("sbar3>=3sbar1,PR>=sbar3", "4.2"), ("sbar3>=3sbar1,thr<PR<sbar3", "4.2"),
        ("sbar3>=3sbar1,PR<=thr", "4.2"), ("2sbar1<=sbar3<3sbar1,PR>=thr", "4.2"),
        ("2sbar1<=sbar3<3sbar1,sbar3<PR<thr", "4.2"), ("2sbar1<=sbar3<3sbar1,PR<=sbar3", "4.2"),
        ("sbar3<2sbar1,PR>=sbar4", "4.3"), ("sbar3<2sbar1,PR<sbar4", "4.3"))),
    "D3.1": (lambda d1, d2, d3, d4: (d2, d1, 0.0, 0.0),
             _waterfill(1, 1, 3), (("PR>=sbar1", "4.4"), ("PR<sbar1", "4.4"))),
    "D3.2": (lambda d1, d2, d3, d4: (d2 - d4, 0.0, d4, d3),
             _waterfill(4, 2, 3), (("PR>=sbar4", "4.4"), ("PR<sbar4", "4.4"))),
    "D3.3": (lambda d1, d2, d3, d4: (d2 - d3, 0.0, d3, d3),
             _waterfill(3, 2, 3), (("PR>=sbar3", "4.4"), ("PR<sbar3", "4.4"))),
    "D3.4": (lambda d1, d2, d3, d4: (d2 - d4 + d1, d1, d4 - d1, d3 - d1),
             _private(4), (("PR>=sbar1", "4.4"), ("PR<sbar1", "4.4"))),
    "D3.5": (lambda d1, d2, d3, d4: (d2 - d3 + d1, d1, d3 - d1, d3 - d1),
             _private(3), (("PR>=sbar1", "4.4"), ("PR<sbar1", "4.4"))),
}

#: every recipe branch `alloc_for_vertex` can take, read off `_VERTICES` and
#: keyed by vertex label (the label set); a label's digit names its case
SUBCASE_TAGS: Dict[str, Tuple[str, ...]] = {label: tuple(tag for tag, _ in row[2])
                                            for label, row in _VERTICES.items()}

#: each case's vertices in label order, as (label, target)
_CASE_TARGETS = {case: [(label, row[0]) for label, row in _VERTICES.items()
                        if case_of_label(label) is case] for case in CaseLabel}


# ---------------------------------------------------------------------------
# message plans
# ---------------------------------------------------------------------------

DECODE_PLAIN = "decode-treating-rest-as-noise"
DECODE_SELF = "decode-with-self-message"
SKIP_KNOWN = "known-codeword-skip"
SIC_REMOVE = "SIC-remove"

_ACTIONS = (DECODE_PLAIN, DECODE_SELF, SKIP_KNOWN, SIC_REMOVE)

#: source messages the relay redistributes: the two lattice combinations and
#: the two leaders' private remainders.  Splittable ones may be carried as
#: "<name>.0" / "<name>.1" halves.
_SOURCES = ("mA", "mB", "m11", "m31")
_SPLITTABLE = ("m11", "m31")

#: source messages user k+1 must end up able to read (own-pair combination
#: plus, for trailing users, the partner leader's private remainder)
_REQUIRED = (("mA",), ("mA", "m11"), ("mB",), ("mB", "m31"))

#: private remainders owned by user k+1 (usable as known side information)
_OWNED = (("m11",), (), ("m31",), ())


@dataclass(frozen=True)
class RelayCodeword:
    """One broadcast layer: its rate symbol and the messages packed into it."""

    name: str
    rate_symbol: str
    messages: Tuple[str, ...]


@dataclass(frozen=True)
class DecodeStep:
    action: str
    codeword: str


@dataclass(frozen=True)
class MessagePlan:
    """Declarative relay reassembly plan: what rides where, who peels what.

    ``scripts[k]`` is user k+1's ordered decode script.  Construction checks
    that the codewords carry every source message exactly once (split halves
    jointly covering their parent) and that every user's script reaches the
    messages it needs to reconstruct its partner's data.  The scheme's rate
    map (`scheme_map`) is compiled from these scripts.
    """

    case: CaseLabel
    scheme_id: str
    codewords: Tuple[RelayCodeword, ...]
    scripts: Tuple[Tuple[DecodeStep, ...], ...]
    rate_relations: Tuple[str, ...]

    def __post_init__(self) -> None:
        _walk_plan(self)


def _parent_of(message: str) -> str:
    return message.split(".")[0]


def _covers(available: set, parent: str) -> bool:
    return parent in available or {f"{parent}.0", f"{parent}.1"} <= available


def _walk_plan(plan: MessagePlan) -> List[Tuple[int, Tuple[int, ...], int]]:
    """Check ``plan`` and return its decodes, script by script, as (codeword,
    codewords still in the way, user), all as indices.  SIC-removing or
    skipping a codeword takes it out of that user's way."""
    names = [cw.name for cw in plan.codewords]
    if len(set(names)) != len(names):
        raise ValidationError(f"duplicate codeword names in plan: {names}")
    by_name = {cw.name: cw for cw in plan.codewords}

    # every source message rides exactly one codeword; split halves of a
    # splittable source must both appear (and exclude the unsplit parent)
    carried: List[str] = [m for cw in plan.codewords for m in cw.messages]
    if len(set(carried)) != len(carried):
        raise ValidationError(f"message packed into two codewords: {sorted(carried)}")
    carried_set = set(carried)
    for src in _SOURCES:
        parts = {f"{src}.0", f"{src}.1"} & carried_set
        whole = src in carried_set
        if src in _SPLITTABLE:
            ok = (whole and not parts) or (not whole and len(parts) == 2)
        else:
            ok = whole and not parts
        if not ok:
            raise ValidationError(f"source {src} is not covered exactly once: {sorted(carried)}")
    for m in carried_set:
        if _parent_of(m) not in _SOURCES:
            raise ValidationError(f"unknown message {m!r} in plan")

    if len(plan.scripts) != 4:
        raise ValidationError("plan must carry exactly four user scripts")
    decodes = []
    for user_idx, script in enumerate(plan.scripts):
        decoded: set = set()
        opened: set = set()
        removed: set = set()
        skipped: set = set()
        for step in script:
            if step.action not in _ACTIONS:
                raise ValidationError(f"unknown step action {step.action!r}")
            if step.codeword not in by_name:
                raise ValidationError(f"script references unknown codeword {step.codeword!r}")
            if step.action == SIC_REMOVE:
                if step.codeword not in opened or step.codeword in removed:
                    raise ValidationError(
                        f"user {user_idx + 1} removes {step.codeword} without decoding it"
                    )
                removed.add(step.codeword)
            elif step.action == SKIP_KNOWN:
                msgs = by_name[step.codeword].messages
                own = _OWNED[user_idx]
                if not all(_parent_of(m) in own for m in msgs):
                    raise ValidationError(
                        f"user {user_idx + 1} cannot pre-cancel {step.codeword}: "
                        f"it carries messages the user does not own"
                    )
                skipped.add(step.codeword)
            else:
                opened.add(step.codeword)
                decoded |= set(by_name[step.codeword].messages)
                gone = removed | skipped | {step.codeword}
                way = tuple(k for k, name in enumerate(names) if name not in gone)
                decodes.append((names.index(step.codeword), way, user_idx))
        for parent in _REQUIRED[user_idx]:
            if not _covers(decoded, parent):
                raise ValidationError(
                    f"user {user_idx + 1}'s script never reaches {parent}; "
                    f"decoded only {sorted(decoded)}"
                )
    return decodes


def _steps(*pairs: Tuple[str, str]) -> Tuple[DecodeStep, ...]:
    return tuple(DecodeStep(action=a, codeword=c) for a, c in pairs)


#: the two-layer layout of schemes "4.1" and "4.3" (one codeword per pair)
#: and its rate relations
_TWO_LAYERS = (
    RelayCodeword("xR1", "RR1", ("mB", "m31")),
    RelayCodeword("xR2", "RR2", ("mA", "m11")),
)
_TWO_LAYER_RATES = ("RR1 = R3", "RR2 = R1")
#: the decode scripts several users share
_READ_XR1 = _steps((DECODE_SELF, "xR1"),)
_PEEL_XR1 = _steps((DECODE_PLAIN, "xR1"), (SIC_REMOVE, "xR1"), (DECODE_SELF, "xR2"))
_PEEL_TO_XR3 = _steps(
    (DECODE_PLAIN, "xR1"), (SIC_REMOVE, "xR1"),
    (DECODE_PLAIN, "xR2"), (SIC_REMOVE, "xR2"),
    (DECODE_PLAIN, "xR3"),
)
_SKIP_XR3 = _steps((SKIP_KNOWN, "xR3"), (DECODE_SELF, "xR1"))

#: scheme -> (case, codewords, user scripts, rate relations), in scheme order
_PLANS: Dict[str, tuple] = {
    # two layers; everybody peels the pair-B layer first, pair-A users then
    # open the pair-A layer with their own message as side info, pair-B
    # users open the pair-B layer directly the same way
    "4.1": (CaseLabel.I, _TWO_LAYERS, (_PEEL_XR1, _PEEL_XR1, _READ_XR1, _READ_XR1),
            _TWO_LAYER_RATES),
    # four layers; the leaders' private remainders are split so the
    # strongest users can take part of them at the bottom of the stack
    "4.2": (
        CaseLabel.II,
        (
            RelayCodeword("xR1", "RR1", ("mB", "m31.0")),
            RelayCodeword("xR2", "RR2", ("mA", "m11.0")),
            RelayCodeword("xR3", "RR3", ("m31.1",)),
            RelayCodeword("xR4", "RR4", ("m11.1",)),
        ),
        (
            _PEEL_XR1,
            _PEEL_TO_XR3 + _steps((SIC_REMOVE, "xR3"), (DECODE_PLAIN, "xR4")),
            _SKIP_XR3,
            _PEEL_TO_XR3,
        ),
        ("R1 = RR2 + RR4", "R2 <= RR2", "R3 = RR1 + RR3", "R4 <= RR1"),
    ),
    # the two-layer layout again, but user 1 reads its layer through the
    # pair-B layer's interference instead of peeling it first
    "4.3": (
        CaseLabel.II,
        _TWO_LAYERS,
        (_steps((DECODE_SELF, "xR2"),), _PEEL_XR1, _READ_XR1, _READ_XR1),
        _TWO_LAYER_RATES,
    ),
    # three layers; only pair A's leader has a split remainder
    "4.4": (
        CaseLabel.III,
        (
            RelayCodeword("xR1", "RR1", ("mA", "m11.0")),
            RelayCodeword("xR2", "RR2", ("mB", "m31")),
            RelayCodeword("xR3", "RR3", ("m11.1",)),
        ),
        (_SKIP_XR3, _PEEL_TO_XR3, _PEEL_XR1, _PEEL_XR1),
        ("R1 = RR1 + RR3", "R2 <= RR1", "R3 = RR2", "R4 <= RR2"),
    ),
}

#: broadcast schemes whose rate map is valid under each case's ordering, in
#: scheme order (the oracle's tie order), read off the plans
CASE_SCHEMES: Dict[CaseLabel, Tuple[str, ...]] = {
    case: tuple(scheme for scheme, plan in _PLANS.items() if plan[0] is case) for case in CaseLabel
}


def message_plan(case: CaseLabel, scheme_id: str) -> MessagePlan:
    """The relay's reassembly plan for one (case, scheme) combination.

    Valid combinations are case I with scheme "4.1", case II with "4.2" or
    "4.3", and case III with "4.4".
    """
    case = as_case(case)
    if scheme_id not in CASE_SCHEMES[case]:
        raise ValidationError(
            f"scheme {scheme_id!r} is not valid for case {case.value}; "
            f"expected one of {CASE_SCHEMES[case]}"
        )
    return MessagePlan(case, scheme_id, *_PLANS[scheme_id][1:])


#: broadcast layers each scheme uses, its plan's codeword count; layers above
#: the count carry no power
SCHEME_LAYERS: Dict[str, int] = {scheme: len(plan[1]) for scheme, plan in _PLANS.items()}
SCHEME_IDS = tuple(SCHEME_LAYERS)


def _compile(plan: MessagePlan) -> tuple:
    """``plan``'s rate map as a decode program.  Per user it holds one entry
    per layer its rate adds up, and each entry the decodes whose least rate
    is that layer's: for a leader, the other users' decodes of each layer
    carrying its lattice message or private remainder; for a trailing user,
    everyone's decodes of its pair's lattice layer.  A decode is dropped when
    another decode of the layer has a superset of its layers in the way and a
    user at least as noisy in the case's order (`bounds._NOISE_ORDERS`), as
    its rate can never be the least there.  The rest run from the most layers
    in the way to the fewest, each capped by the least so far (a float `min`
    keeps a NaN only as its first argument, so the order is part of the map).
    A decode is (layer, user, first layer in the way or None, the others)."""
    (chain,) = _NOISE_ORDERS[plan.case.value]
    rank = [chain.index(user + 1) for user in range(4)]  # 0 is the noisiest
    decodes = _walk_plan(plan)
    program = []
    for user, owned in enumerate(_OWNED):
        own = (_REQUIRED[user][0], *owned)  # the pair's lattice message, any own remainder
        shares = []
        for layer, cw in enumerate(plan.codewords):
            if any(_parent_of(m) in own for m in cw.messages):
                ways = {(w, u) for c, w, u in decodes if c == layer and not (owned and u == user)}
                kept = [(w, u) for w, u in ways if not any(
                    set(x) >= set(w) and rank[v] <= rank[u] for x, v in ways - {(w, u)})]
                kept.sort(key=lambda d: (-len(d[0]), rank[d[1]]))
                shares.append(tuple((layer, u, w[0] if w else None, w[1:]) for w, u in kept))
        program.append(tuple(shares))
    return tuple(program)


#: each scheme's rate map, compiled once from its plan
_PROGRAMS = {scheme: _compile(message_plan(plan[0], scheme)) for scheme, plan in _PLANS.items()}


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


def downlink_certificate(params: SystemParams) -> List[GapCertificate]:
    """Certify the half-bit gap at every downlink vertex of a canonical channel.

    Classifies the channel and runs each vertex's power recipe through its
    scheme's rate map; `bounds.link_certificates` judges each achieved tuple
    against its vertex and the case's deliverable region.
    """
    terms = capacity_terms(params)
    case = classify_case(terms.sigma_bar2)
    entries = []
    for v in downlink_vertices(case, terms):
        alloc, tag = _recipe(v.label, params.PR, terms.sigma_bar2)
        powers = (alloc.pR1, alloc.pR2, alloc.pR3, alloc.pR4)
        achieved = RateTuple(scheme_map(alloc.scheme_id, powers, terms.sigma_bar2))
        entries.append((v.label, v.rates, achieved, tag))
    return link_certificates("downlink", downlink_polytope(case, terms), entries)
