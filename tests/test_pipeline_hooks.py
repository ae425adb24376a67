"""The traced sweep benchmark (``perfbench/tracer.py``) times the pipeline
by swapping these module attributes for wrappers, so each must stay a
callable attribute of its module: an import dropped in a refactor would
crash the traced benchmark rather than any pipeline test."""

import pytest

from qchanrate import rates, runner, sampling

HOOKS = [
    (runner, "instantiate_channel"),
    (runner, "sample_trajectory"),
    (runner, "entropy_rate_estimates"),
    (runner, "lower_bound"),
    (runner, "write_rows_csv"),
    (runner, "write_line_plot"),
    (rates, "scaled_forward_quantum"),
    (rates, "scaled_forward_classical"),
    (rates, "stacked_forward_logs"),
    (sampling, "hermiticity_residue"),
    (rates, "hermiticity_residue"),
]


@pytest.mark.parametrize(
    "module, attr", HOOKS, ids=[f"{m.__name__.rsplit('.', 1)[-1]}.{a}" for m, a in HOOKS]
)
def test_hooked_attribute_is_callable(module, attr):
    assert callable(getattr(module, attr, None))
