"""Reduction of an arbitrary channel to its canonical (effective) form.

The synthesis machinery assumes a normalized channel: inside each pair the
first-listed user is the one targeted for the larger rate and carries the
stronger uplink; downlink qualities are ordered within pairs; and the pair
whose second user has the larger effective downlink noise sits in the first
slot.  Any channel can be brought into this form by

1. relabeling users within each pair according to the requested rate order,
2. giving the trailing user of a pair the leader's own uplink gain and power
   (h, P) when it receives more, so both receive exactly the leader's power,
3. giving the leader the trailing user's own downlink gain and noise
   (g, sigma2) when the trailing user's effective noise is larger, so both
   see exactly the trailing user's effective noise, and
4. swapping the two pairs if needed.

Steps 2 and 3 only copy a weaker partner's numbers into a stronger user's
slot; nothing is computed.  So a frame is three maps from effective slot to
original user: ``perm``, the user sitting there, and ``up`` and ``dn``, the
users whose (h, P) and (g, sigma2) it carries.  Each effective user's
received power and effective noise is, exactly, its own or its weaker
partner's: the result is never better than the original channel, anything
achieved on it is achievable on the original, and every number in it,
capacity terms included, is one of the input's.  `frame` reads a frame's
terms off the channel's own; `canonicalize` builds its parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from .model import (
    PAIR_KEYS,
    CapacityTerms,
    RateTuple,
    SystemParams,
    ValidationError,
    effective_noises,
    received_powers,
)

Perm = Tuple[int, int, int, int]


@dataclass(frozen=True)
class EffectiveSystem:
    """A canonicalized channel plus the bookkeeping to undo the relabeling.

    ``perm[k]`` is the original (1-based) user number sitting in effective
    slot k+1; ``pair_swapped`` records step 4.
    """

    params: SystemParams
    perm: Perm
    pair_swapped: bool

    def to_original(self, rates: Sequence[float]) -> RateTuple:
        """Map a rate tuple from effective indexing back to original users."""
        return RateTuple([float(rates[self.perm.index(user)]) for user in (1, 2, 3, 4)])

    def to_effective(self, rates: Sequence[float]) -> RateTuple:
        """Map a rate tuple from original indexing into effective slots."""
        return RateTuple([float(rates[user - 1]) for user in self.perm])


def _source_maps(q, sbar, rate_order) -> Tuple[Perm, Perm, Perm, bool]:
    """Steps 1-4 as ``(perm, up, dn, pair_swapped)`` from the channel's received
    powers and effective noises; ``rate_order`` as in `canonicalize`."""
    try:
        lead_a, lead_b = rate_order
    except (TypeError, ValueError):
        lead_a = lead_b = None
    if lead_a not in (1, 2) or lead_b not in (3, 4):
        raise ValidationError(f"rate_order must be (1 or 2, 3 or 4), got {rate_order!r}")

    # step 1: put the requested rate leaders into slots 1 and 3
    perm = [lead_a, 3 - lead_a, lead_b, 7 - lead_b]
    up, dn = list(perm), list(perm)
    for lead, trail in ((0, 1), (2, 3)):
        a, b = perm[lead] - 1, perm[trail] - 1
        # step 2: received uplink powers must not increase along each pair;
        # the stronger trailing user takes the leader's (h, P) (ties untouched)
        if q[a] < q[b]:
            up[trail] = perm[lead]
        # step 3: the trailing user's effective noise must not be below the
        # leader's; the leader takes the trailing user's (g, sigma2)
        if sbar[b] > sbar[a]:
            dn[lead] = perm[trail]

    # step 4: order the pairs by the trailing users' effective noises (step 3
    # never changes a trailing user's)
    swapped = sbar[perm[3] - 1] < sbar[perm[1] - 1]
    return (*(tuple(m[2:] + m[:2] if swapped else m) for m in (perm, up, dn)), swapped)


def _gather(users: Perm, *seqs: Sequence[float]):
    return (tuple([seq[user - 1] for user in users]) for seq in seqs)


def frame(terms: CapacityTerms, q: Sequence[float], rate_order=(1, 3)) -> Tuple[Perm, CapacityTerms, Tuple]:
    """``(perm, terms, q)`` of `canonicalize`'s frame, read off the channel's
    ``terms`` and received powers ``q`` bit for bit; a cross-pair term at the
    cross pair of its slots' ``up`` users, as float addition commutes."""
    perm, up, dn, _ = _source_maps(q, terms.sigma_bar2, rate_order)
    C, fq = _gather(up, terms.C, q)
    D, sbar = _gather(dn, terms.D, terms.sigma_bar2)
    pair = {(i, j): terms.Cpair[tuple(sorted((up[i - 1], up[j - 1])))] for i, j in PAIR_KEYS}
    return perm, CapacityTerms(C, D, pair, sbar), fq


def canonicalize(params: SystemParams, rate_order: Tuple[int, int] = (1, 3)) -> EffectiveSystem:
    """Build the effective system for one choice of in-pair rate leaders.

    A stronger user is weakened by substitution, never by arithmetic: it
    takes its partner's own (h, P) uplink pair or (g, sigma2) downlink pair,
    so its received power or effective noise equals the partner's exactly.

    Parameters
    ----------
    params : SystemParams
    rate_order : (int, int)
        ``(lead_a, lead_b)`` with lead_a in {1, 2} and lead_b in {3, 4}: the
        user in each pair whose rate the synthesis should favor.  That user
        lands in effective slot 1 (resp. 3).

    Raises
    ------
    ValidationError
        If the rate order is malformed.
    """
    q, sbar = received_powers(params), effective_noises(params)
    perm, up, dn, swapped = _source_maps(q, sbar, rate_order)
    (h, P), (g, s2) = _gather(up, params.h, params.P), _gather(dn, params.g, params.sigma2)
    eff = SystemParams(h=h, g=g, P=P, sigma2=s2, sigmaR2=params.sigmaR2, PR=params.PR)
    return EffectiveSystem(params=eff, perm=perm, pair_swapped=swapped)
