"""The package's public surface: every export is listed here, so adding or
removing one is a deliberate change to this file."""
from __future__ import annotations

import stoptree

PUBLIC = [
    "CapExceededError",
    "CertificationVerdict",
    "CriteriumReport",
    "InfeasibleError",
    "ModelValidationError",
    "MultiReward",
    "MultiStoppingTuple",
    "NestedValue",
    "Node",
    "NodeProcess",
    "OracleReport",
    "SnellSolution",
    "SolveReport",
    "StoppingTime",
    "SwingSolution",
    "SymmetricSolution",
    "TreeModel",
    "brute_force_value",
    "build_binomial_lattice",
    "build_tree_from_spec",
    "certify",
    "check_optimality",
    "conditional_expectation",
    "instance_fingerprint",
    "lambda_stop",
    "lambda_threshold",
    "load_model",
    "minimal_optimal_stop",
    "snell_solve",
    "solve_multi",
    "stopping_time_value",
    "swing_solve",
    "symmetric_backward",
    "tuple_order_below",
    "tuple_value",
    "u_component",
]


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC) == 36
    assert sorted(stoptree.__all__) == PUBLIC
    assert len(set(stoptree.__all__)) == len(stoptree.__all__)


def test_every_public_name_resolves():
    for name in stoptree.__all__:
        assert getattr(stoptree, name) is not None, name
