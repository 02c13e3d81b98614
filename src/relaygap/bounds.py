"""Halfspace systems bounding the exchange rates of the two user pairs.

Three systems are built from one set of capacity terms:

* ``outer_bound`` — the genie-aided outer region for the full two-hop
  network.  Each row's right-hand side collapses min/max combinations of
  uplink and downlink terms into a scalar at build time.
* ``uplink_polytope`` — what the relay can jointly decode.
* ``downlink_polytope`` — what the relay can deliver, which depends on the
  ordering of the effective downlink noises (the "case").

All three cut their rows from one 0/1 matrix (`_ROWS`).  `link_certificate`
holds the pass rule both per-link certificates share.

User pairing: users 1 and 2 exchange messages, users 3 and 4 exchange
messages, so user i's rate is delivered to its partner on the downlink.
"""

from __future__ import annotations

from typing import Sequence

from .model import (
    GAP_TOL,
    HALF_BIT,
    PAIR_KEYS,
    CapacityTerms,
    GapCertificate,
    RateTuple,
    ValidationError,
    as_case,
    geq,
    slack_of,
)
from .polytope import HalfspaceSystem, contains

_NOISE_ORDERS = {
    # required sigma_bar2 orderings as chains of 1-based users, largest first:
    # the partial order of every canonical channel, then each case's order
    "canonical": ((1, 2), (3, 4, 2)),
    "I": ((3, 4, 1, 2),),
    "II": ((3, 1, 4, 2),),
    "III": ((1, 3, 4, 2),),
}


#: the 0/1 coefficient rows every region is cut from: the cross-pair sums
#: R1+R3, R1+R4, R2+R3, R2+R4 (in `PAIR_KEYS` order), then R1..R4 alone
_ROWS = (
    (1.0, 0.0, 1.0, 0.0),
    (1.0, 0.0, 0.0, 1.0),
    (0.0, 1.0, 1.0, 0.0),
    (0.0, 1.0, 0.0, 1.0),
    (1.0, 0.0, 0.0, 0.0),
    (0.0, 1.0, 0.0, 0.0),
    (0.0, 0.0, 1.0, 0.0),
    (0.0, 0.0, 0.0, 1.0),
)

#: each case's broadcast rows as (index into `_ROWS`, 1-based user whose
#: downlink term D bounds it); rows implied by the others under R >= 0 are
#: omitted
_DOWNLINK_ROWS = {
    "I": ((0, 2), (1, 2), (2, 1), (3, 1), (6, 4), (7, 3)),
    "II": ((0, 2), (1, 2), (2, 4), (3, 1), (7, 3)),
    "III": ((0, 2), (1, 2), (2, 4), (3, 3), (5, 1)),
}


def outer_bound(terms: CapacityTerms) -> HalfspaceSystem:
    """Genie-aided outer bound on (R1, R2, R3, R4).

    Cross-pair sums are limited by both what the relay can hear and what the
    better of the two interested receivers can be served; individual rates by
    the user's own uplink and its partner's downlink.
    """
    D = terms.D
    served = (D[1], D[0], D[3], D[2])  # user i's partner's downlink term
    rhs = [min(terms.Cpair[(i, j)], max(served[i - 1], served[j - 1])) for i, j in PAIR_KEYS]
    rhs += [min(c, d) for c, d in zip(terms.C, served)]
    return HalfspaceSystem(zip(_ROWS, rhs))


def uplink_polytope(terms: CapacityTerms) -> HalfspaceSystem:
    """Multiple-access region the relay can decode on the uplink."""
    rhs = [terms.Cpair[key] for key in PAIR_KEYS] + list(terms.C)
    return HalfspaceSystem(zip(_ROWS, rhs))


def downlink_polytope(case, terms: CapacityTerms) -> HalfspaceSystem:
    """Broadcast region the relay can deliver, for one noise-ordering case.

    ``case`` is a CaseLabel (or its string value "I" / "II" / "III"); the
    system's effective noise ordering must actually match that case, else a
    ValidationError is raised.  Rows implied by the remaining ones under
    R >= 0 are omitted.
    """
    case_key = as_case(case).value
    require_noise_order(terms.sigma_bar2, case_key)
    return HalfspaceSystem(
        (_ROWS[row], terms.D[user - 1]) for row, user in _DOWNLINK_ROWS[case_key]
    )


def link_certificate(
    link: str, label: str, target: RateTuple, achieved: RateTuple, region: HalfspaceSystem,
    subcase: str = "",
) -> GapCertificate:
    """The per-link certificate of one vertex: it passes when every slack
    component is at most half a bit (within GAP_TOL) and the achieved tuple
    lies in the link's region."""
    slack = slack_of(target, achieved)
    return GapCertificate(
        link=link,
        vertex_label=label,
        target=target,
        achieved=achieved,
        slack=slack,
        passed=max(slack) <= HALF_BIT + GAP_TOL and contains(region, achieved),
        subcase=subcase,
    )


def require_noise_order(sigma_bar2: Sequence[float], key: str) -> None:
    """Raise ValidationError unless the effective noises descend, under
    `geq`, along every chain of ``_NOISE_ORDERS[key]``."""
    if key == "canonical":
        what = "are not canonical; canonicalize first"
    else:
        what = f"do not match case {key}"
    for chain in _NOISE_ORDERS[key]:
        for hi, lo in zip(chain, chain[1:]):
            if not geq(sigma_bar2[hi - 1], sigma_bar2[lo - 1]):
                need = " >= ".join(f"sigma_bar2[{u}]" for u in chain)
                raise ValidationError(
                    f"effective noises {what} (need {need}; "
                    f"sigma_bar2[{hi}]={sigma_bar2[hi - 1]} < "
                    f"sigma_bar2[{lo}]={sigma_bar2[lo - 1]})"
                )
