"""Hand-built Markov chains for each protocol (Section VI).

These transcribe the paper's reasoning.  They are the test oracle for the
chains :mod:`repro.markov.builder` derives from the protocol code (the
only chains the runtime solves) and the Fig. 2 drawing of ``repro chain``.

:func:`chain_for` maps registry protocol names to chain builders.  The
modified hybrid shares the hybrid's chain (the Section VII equivalence,
verified mechanically by the automatic chain builder in
:mod:`repro.markov.builder`).
"""

from __future__ import annotations

from collections.abc import Callable

from ...errors import ChainError
from ..ctmc import ChainSpec
from .dynamic import dynamic_chain
from .dynamic_linear import dynamic_linear_chain
from .hybrid import hybrid_chain, state_tuple
from .optimal import optimal_candidate_chain
from .voting import (
    primary_copy_availability,
    primary_copy_availability_float,
    primary_site_voting_chain,
    primary_site_voting_availability,
    primary_site_voting_availability_float,
    voting_availability,
    voting_availability_float,
    voting_chain,
)

__all__ = [
    "hybrid_chain",
    "dynamic_chain",
    "dynamic_linear_chain",
    "optimal_candidate_chain",
    "voting_chain",
    "primary_site_voting_chain",
    "voting_availability",
    "primary_site_voting_availability",
    "primary_copy_availability",
    "voting_availability_float",
    "primary_site_voting_availability_float",
    "primary_copy_availability_float",
    "state_tuple",
    "CHAIN_BUILDERS",
    "chain_for",
]

#: Chain builder per registry protocol name.
CHAIN_BUILDERS: dict[str, Callable[[int], ChainSpec]] = {
    "voting": voting_chain,
    "primary-site-voting": primary_site_voting_chain,
    "dynamic": dynamic_chain,
    "dynamic-linear": dynamic_linear_chain,
    "hybrid": hybrid_chain,
    "modified-hybrid": hybrid_chain,
    "optimal-candidate": optimal_candidate_chain,
}


def chain_for(protocol_name: str, n: int) -> ChainSpec:
    """The hand-built chain of a protocol at ``n`` sites."""
    try:
        builder = CHAIN_BUILDERS[protocol_name]
    except KeyError:
        known = ", ".join(sorted(CHAIN_BUILDERS))
        raise ChainError(
            f"no hand-built chain for {protocol_name!r}; known: {known}"
        ) from None
    return builder(n)
