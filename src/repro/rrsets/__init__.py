"""Reverse-reachable set machinery: sampling, coverage, IMM."""

from repro.rrsets.rrset import (
    WeightedRRSampler,
    WeightedRRSet,
    marginal_rr_set,
    random_rr_set,
)
from repro.rrsets.coverage import (
    PackedCoverage,
    RRCollection,
    SelectionResult,
    node_selection,
)
from repro.rrsets.bounds import adjusted_ell, lambda_prime, lambda_star, log_binomial
from repro.rrsets.imm import IMMOptions, IMMResult, imm, marginal_imm, run_imm_engine

__all__ = [
    "random_rr_set",
    "marginal_rr_set",
    "WeightedRRSet",
    "WeightedRRSampler",
    "RRCollection",
    "SelectionResult",
    "node_selection",
    "PackedCoverage",
    "log_binomial",
    "lambda_star",
    "lambda_prime",
    "adjusted_ell",
    "IMMOptions",
    "IMMResult",
    "imm",
    "marginal_imm",
    "run_imm_engine",
]
