"""The in-repo ρ assignment against SciPy, bit for bit.

``rho_assignment`` used to hand its value matrix to
``scipy.optimize.linear_sum_assignment``. Its port must pick the same
pairs, including among equal-weight optima, and return the same float:
the reference below is the old formula, kept verbatim. Floats are
compared with ``float.hex`` so a last-bit difference fails.

The LP-ILP knapsack table must in turn return, for integer μ, the
float the scenario path (one assignment per partition) returns.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocking import _knapsack_deltas, _lp_ilp_single
from repro.core.scenarios import (
    ExecutionScenario,
    _max_weight_matching,
    _numpy_sum,
    execution_scenarios,
    rho_assignment,
)

from tests.strategies import mu_tables

scipy_optimize = pytest.importorskip("scipy.optimize")

SMALL_INTS = st.integers(0, 3)
CONTINUOUS = st.floats(-1000, 1000, allow_nan=False, allow_infinity=False)
NON_NEGATIVE = st.floats(0, 1000, allow_nan=False, allow_infinity=False)


def scipy_rho(mu_by_task: dict[str, list[float]], scenario: ExecutionScenario) -> float:
    """``rho_assignment`` as it was when SciPy solved the matching."""
    if not mu_by_task or not scenario.parts:
        return 0.0
    value = np.array(
        [[mu_by_task[name][part - 1] for part in scenario.parts] for name in mu_by_task],
        dtype=float,
    )
    rows, cols = scipy_optimize.linear_sum_assignment(value, maximize=True)
    return float(value[rows, cols].sum())


@st.composite
def matrices(draw, shape: str):
    """A ``rows × columns`` matrix of one shape, sides up to 16."""
    a = draw(st.integers(1, 16))
    b = a if shape == "square" else draw(st.integers(1, 16).filter(lambda n: n != a))
    n_rows, n_cols = (max(a, b), min(a, b)) if shape == "tall" else (min(a, b), max(a, b))
    elements = draw(st.sampled_from([SMALL_INTS, CONTINUOUS]))
    return [[draw(elements) for _ in range(n_cols)] for _ in range(n_rows)]


@pytest.mark.parametrize("shape", ["tall", "wide", "square"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_matching_equals_scipy(shape, data):
    value = data.draw(matrices(shape))
    rows, cols = scipy_optimize.linear_sum_assignment(np.array(value, dtype=float), maximize=True)
    assert _max_weight_matching(value) == list(zip(rows.tolist(), cols.tolist()))


def assert_same_bits(table: dict[str, list[float]], m: int) -> None:
    for scenario in execution_scenarios(m):
        got = rho_assignment(table, scenario)
        assert type(got) is float
        assert got.hex() == scipy_rho(table, scenario).hex(), scenario.parts


# The second case always has eight matched parts or more, where numpy's
# pairwise sum regroups the terms.
@pytest.mark.parametrize("fewest", [1, 8])
@given(data=st.data(), values=st.sampled_from([SMALL_INTS, NON_NEGATIVE]))
@settings(max_examples=60, deadline=None)
def test_rho_equals_scipy_formula(fewest, data, values):
    m = data.draw(st.integers(fewest, 16))
    table = data.draw(mu_tables(min_tasks=fewest, max_tasks=20, m=m, values=values))
    assert_same_bits(table, m)
    assert_same_bits(table, m - 1)


def test_rho_sum_of_eight_is_numpy_not_left_to_right():
    values = [47.66, 58.34, 90.81, 50.47, 28.18, 75.58, 61.84, 25.05]
    table = {f"t{i}": [v] for i, v in enumerate(values)}
    left_to_right = 0.0
    for v in values:
        left_to_right += v
    got = rho_assignment(table, ExecutionScenario((1,) * 8))
    assert got.hex() == float(np.array(values).sum()).hex()
    assert got != left_to_right


# Lengths 8 to 40 take numpy's eight-accumulator path with 0 to 7
# trailing terms; the sums are also drawn from ±0.0 alone, whose sign
# numpy's identity settles.
@given(terms=st.one_of(
    st.lists(st.floats(-1e300, 1e300, allow_nan=False), max_size=40),
    st.lists(NON_NEGATIVE, max_size=40),
    st.lists(st.sampled_from([0.0, -0.0]), max_size=40),
    st.lists(st.integers(0, 2**60), max_size=40),
))
@settings(max_examples=300, deadline=None)
def test_numpy_sum_equals_numpy(terms):
    got = _numpy_sum(terms)
    assert type(got) is float
    assert got.hex() == float(np.array(terms, dtype=float).sum()).hex()


def test_integer_mu_gives_a_float():
    # μ[1] of a generated DAG is its largest WCET, an int.
    table = {"a": [7, 9.5], "b": [3, 4.0]}
    for parts in [(1,), (2,), (1, 1)]:
        got = rho_assignment(table, ExecutionScenario(parts))
        assert type(got) is float
        assert got.hex() == scipy_rho(table, ExecutionScenario(parts)).hex()


@st.composite
def integer_mu_lists(draw, m: int, top: int):
    """``|lp(k)|`` μ arrays of ints and integer-valued floats in ``0..top``.

    Half are shaped like a real μ array (rising, then zero past the
    task's width); the rest are arbitrary.
    """
    value = st.integers(0, top)
    entry = st.one_of(value, value.map(float))
    mus = []
    for _ in range(draw(st.integers(0, 20))):
        mu = draw(st.lists(entry, min_size=m, max_size=m))
        if draw(st.booleans()):
            width = draw(st.integers(1, m))
            mu = sorted(mu[:width]) + [0.0] * (m - width)
        mus.append(mu)
    return mus


def assert_table_is_scenario_maximum(mus: list, m: int) -> None:
    got = _knapsack_deltas(mus, m)
    assert got is not None
    table = {f"t{i}": mu for i, mu in enumerate(mus)}
    for value, cores in zip(got, (m, m - 1)):
        assert type(value) is float
        assert value.hex() == _lp_ilp_single(table, cores, "assignment").hex(), cores


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_knapsack_table_equals_scenario_path(data):
    m = data.draw(st.integers(1, 16))
    assert_table_is_scenario_maximum(data.draw(integer_mu_lists(m, 2**20)), m)


# At the exactness cap, 2^53 / (8m), the matching's duals are the
# largest integers either path forms (DESIGN.md, "Δ in one table").
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_knapsack_table_is_exact_up_to_its_cap(data):
    m = data.draw(st.integers(1, 12))
    assert_table_is_scenario_maximum(
        data.draw(integer_mu_lists(m, 2**53 // (8 * m))), m
    )
