"""Halfspace systems bounding the exchange rates of the two user pairs.

Three systems are built from one set of capacity terms:

* ``outer_bound`` — the genie-aided outer region for the full two-hop
  network.  Each row's right-hand side collapses min/max combinations of
  uplink and downlink terms into a scalar at build time.
* ``uplink_polytope`` — what the relay can jointly decode.
* ``downlink_polytope`` — what the relay can deliver, which depends on the
  ordering of the effective downlink noises (the "case").

User pairing: users 1 and 2 exchange messages, users 3 and 4 exchange
messages, so user i's rate is delivered to its partner on the downlink.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .model import CapacityTerms, ValidationError, geq
from .polytope import HalfspaceSystem

_NOISE_ORDERS = {
    # required sigma_bar2 orderings as chains of 1-based users, largest first:
    # the partial order of every canonical channel, then each case's order
    "canonical": ((1, 2), (3, 4, 2)),
    "I": ((3, 4, 1, 2),),
    "II": ((3, 1, 4, 2),),
    "III": ((1, 3, 4, 2),),
}


def _unit(i: int) -> Tuple[float, float, float, float]:
    a = [0.0, 0.0, 0.0, 0.0]
    a[i - 1] = 1.0
    return tuple(a)


def _pair_row(i: int, j: int) -> Tuple[float, float, float, float]:
    a = [0.0, 0.0, 0.0, 0.0]
    a[i - 1] = 1.0
    a[j - 1] = 1.0
    return tuple(a)


def outer_bound(terms: CapacityTerms) -> HalfspaceSystem:
    """Genie-aided outer bound on (R1, R2, R3, R4).

    Cross-pair sums are limited by both what the relay can hear and what the
    better of the two interested receivers can be served; individual rates by
    the user's own uplink and its partner's downlink.
    """
    C, D, Cp = terms.C, terms.D, terms.Cpair
    rows = [
        (_pair_row(1, 3), min(Cp[(1, 3)], max(D[1], D[3]))),
        (_pair_row(1, 4), min(Cp[(1, 4)], max(D[1], D[2]))),
        (_pair_row(2, 3), min(Cp[(2, 3)], max(D[0], D[3]))),
        (_pair_row(2, 4), min(Cp[(2, 4)], max(D[0], D[2]))),
        (_unit(1), min(C[0], D[1])),
        (_unit(2), min(C[1], D[0])),
        (_unit(3), min(C[2], D[3])),
        (_unit(4), min(C[3], D[2])),
    ]
    return HalfspaceSystem(rows)


def uplink_polytope(terms: CapacityTerms) -> HalfspaceSystem:
    """Multiple-access region the relay can decode on the uplink."""
    C, Cp = terms.C, terms.Cpair
    rows = [
        (_pair_row(1, 3), Cp[(1, 3)]),
        (_pair_row(1, 4), Cp[(1, 4)]),
        (_pair_row(2, 3), Cp[(2, 3)]),
        (_pair_row(2, 4), Cp[(2, 4)]),
        (_unit(1), C[0]),
        (_unit(2), C[1]),
        (_unit(3), C[2]),
        (_unit(4), C[3]),
    ]
    return HalfspaceSystem(rows)


def downlink_polytope(case, terms: CapacityTerms) -> HalfspaceSystem:
    """Broadcast region the relay can deliver, for one noise-ordering case.

    ``case`` is a CaseLabel (or its string value "I" / "II" / "III"); the
    system's effective noise ordering must actually match that case, else a
    ValidationError is raised.  Rows implied by the remaining ones under
    R >= 0 are omitted.
    """
    case_key = str(getattr(case, "value", case))
    if case_key not in ("I", "II", "III"):
        raise ValidationError(f"case must be one of I/II/III, got {case_key!r}")
    require_noise_order(terms.sigma_bar2, case_key)

    D = terms.D
    if case_key == "I":
        rows = [
            (_pair_row(1, 3), D[1]),
            (_pair_row(1, 4), D[1]),
            (_pair_row(2, 3), D[0]),
            (_pair_row(2, 4), D[0]),
            (_unit(3), D[3]),
            (_unit(4), D[2]),
        ]
    elif case_key == "II":
        rows = [
            (_pair_row(1, 3), D[1]),
            (_pair_row(1, 4), D[1]),
            (_pair_row(2, 3), D[3]),
            (_pair_row(2, 4), D[0]),
            (_unit(4), D[2]),
        ]
    else:  # case III
        rows = [
            (_pair_row(1, 3), D[1]),
            (_pair_row(1, 4), D[1]),
            (_pair_row(2, 3), D[3]),
            (_pair_row(2, 4), D[2]),
            (_unit(2), D[0]),
        ]
    return HalfspaceSystem(rows)


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
