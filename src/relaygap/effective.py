"""Reduction of an arbitrary channel to its canonical (effective) form.

The synthesis machinery assumes a normalized channel: inside each pair the
first-listed user is the one targeted for the larger rate and carries the
stronger uplink; downlink qualities are ordered within pairs; and the pair
whose second user has the larger effective downlink noise sits in the first
slot.  Any channel can be brought into this form by

1. relabeling users within each pair according to the requested rate order,
2. weakening the stronger in-pair uplink gain so received uplink powers
   order correctly (gain shrinks, never grows),
3. inflating one in-pair downlink noise so downlink qualities order
   correctly (noise grows, never shrinks — gains are untouched), and
4. swapping the two pairs if needed.

The result is never better than the original channel, so anything achieved
on it is achievable on the original.  The permutation taking effective user
slots back to original user numbers is carried along explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from .model import (
    InternalConsistencyError,
    RateTuple,
    SystemParams,
    ValidationError,
    geq,
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


def canonicalize(params: SystemParams, rate_order: Tuple[int, int] = (1, 3)) -> EffectiveSystem:
    """Build the effective system for one choice of in-pair rate leaders.

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
    lead_a, lead_b = rate_order
    if lead_a not in (1, 2):
        raise ValidationError(f"rate_order[0] must be 1 or 2, got {lead_a}")
    if lead_b not in (3, 4):
        raise ValidationError(f"rate_order[1] must be 3 or 4, got {lead_b}")

    # step 1: put the requested rate leaders into slots 1 and 3
    perm = [lead_a, 3 - lead_a, lead_b, 7 - lead_b]
    h, g, P, s2 = (
        [seq[user - 1] for user in perm] for seq in (params.h, params.g, params.P, params.sigma2)
    )

    for lead, trail in ((0, 1), (2, 3)):
        # step 2: received uplink powers must not increase along each pair;
        # shrink the offending gain (ties left untouched)
        if h[lead] ** 2 * P[lead] < h[trail] ** 2 * P[trail]:  # so P[trail] > 0
            h[trail] = abs(h[lead]) * math.sqrt(P[lead] / P[trail])
        # step 3: downlink quality of the trailing user must not be worse than
        # the leader's; inflate the leader's noise to match (gains untouched)
        if g[trail] ** 2 / s2[trail] < g[lead] ** 2 / s2[lead]:
            # a zero trailing gain is zero target quality: only infinite noise reaches it
            s2[lead] = math.inf if g[trail] == 0.0 else g[lead] ** 2 * s2[trail] / g[trail] ** 2

    # step 4: order the pairs by the trailing users' effective noises
    def bar2(i: int) -> float:
        return s2[i] / g[i] ** 2 if g[i] != 0.0 else math.inf

    pair_swapped = bar2(3) < bar2(1)
    if pair_swapped:
        h, g, P, s2, perm = (seq[2:] + seq[:2] for seq in (h, g, P, s2, perm))

    eff = SystemParams(h=h, g=g, P=P, sigma2=s2, sigmaR2=params.sigmaR2, PR=params.PR)
    _check_degraded(params, eff, perm)
    return EffectiveSystem(params=eff, perm=tuple(perm), pair_swapped=pair_swapped)


def _check_degraded(orig: SystemParams, eff: SystemParams, perm: Sequence[int]) -> None:
    """Every effective user must be no better off than its original self."""
    for slot, user in enumerate(perm):
        u = user - 1
        eff_up = eff.h[slot] ** 2 * eff.P[slot]
        orig_up = orig.h[u] ** 2 * orig.P[u]
        if not geq(orig_up, eff_up):
            raise InternalConsistencyError(
                f"canonicalization increased uplink power of user {user}: "
                f"{eff_up} > {orig_up}"
            )
        eff_dn = eff.g[slot] ** 2 / eff.sigma2[slot]  # 0.0 for the +inf sentinel
        orig_dn = orig.g[u] ** 2 / orig.sigma2[u]
        if not geq(orig_dn, eff_dn):
            raise InternalConsistencyError(
                f"canonicalization improved downlink quality of user {user}: "
                f"{eff_dn} > {orig_dn}"
            )
