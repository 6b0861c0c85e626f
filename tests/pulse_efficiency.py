"""Single-pulse efficiencies that the tests check the ladder solver with.

They live here rather than in the package: acceptance 1 and 9 and the
multilevel unit tests use them as independent cross-checks, so they stay
apart from the code they check.
"""

from dataclasses import dataclass

import numpy as np

from dbdsim.multilevel import (EFFICIENCY_ELEMENTS, propagate_unitaries,
                               transfer_efficiency)


@dataclass(frozen=True)
class PulseEfficiency:
    kind: str  # a key of EFFICIENCY_ELEMENTS
    value: float
    p: float
    epsilon: float


def bs_transfer(p, envelope, protocol, epsilon=0.0, n_max=2, **kw):
    """(P_plus, P_minus): populations of |p+-2> after a pulse on |p>.

    Batched over p; returns arrays matching the input shape.
    """
    u = propagate_unitaries(p, envelope, protocol, epsilon, n_max=n_max, **kw)
    pp, pm = np.abs(u[..., 1, 0]) ** 2, np.abs(u[..., 2, 0]) ** 2
    return (float(pp), float(pm)) if np.ndim(p) == 0 else (pp, pm)


def bs_efficiency(p, envelope, protocol, epsilon=0.0, n_max=2, **kw):
    """F_BS(p) = P(|p> -> |p+2>) + P(|p> -> |p-2>)."""
    u = propagate_unitaries(p, envelope, protocol, epsilon, n_max=n_max, **kw)
    return PulseEfficiency("beam_splitter",
                           float(transfer_efficiency(u, "beam_splitter")),
                           float(p), float(epsilon))


def mirror_efficiency(p, envelope, protocol, epsilon=0.0, direction="plus",
                      n_max=2, **kw):
    """Mirror transfer with p the deviation from the +-2 hbar k_L carrier.

    direction 'plus':  F_M+(p) = P(|p+2> -> |p-2>)
    direction 'minus': F_M-(p) = P(|p-2> -> |p+2>)
    """
    kind = f"mirror_{direction}"
    if kind not in EFFICIENCY_ELEMENTS:
        raise ValueError(f"unknown mirror direction {direction!r}")
    u = propagate_unitaries(p, envelope, protocol, epsilon, n_max=n_max, **kw)
    return PulseEfficiency(kind, float(transfer_efficiency(u, kind)),
                           float(p), float(epsilon))
