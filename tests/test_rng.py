"""``repro.rng`` against numpy, draw for draw.

The port must reproduce ``np.random.default_rng(seed)`` and
``np.random.default_rng(np.random.SeedSequence(seed, spawn_key=...))``
exactly: every draw of an interleaved stream (so a spare upper half
buffered by one ``integers`` call is consumed by a later one, across
``random`` and ``uniform`` calls), and numpy's errors by type, after
which both streams continue in step.  Floats are compared with
``float.hex`` so a last-bit difference fails.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generator import GROUP1, GROUP2, generate_taskset
from repro.rng import default_rng
from repro.sim import sporadic_releases

SEEDS = st.integers(0, 2**130)
SPAWN_KEYS = st.lists(
    st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**80)), max_size=3
).map(tuple)


@st.composite
def integer_bounds(draw):
    """``(low, high)`` for each path: 32-bit Lemire (including spans that
    reject often), the ``2³² − 1`` shortcut, 64-bit Lemire, the full
    int64 range, a single value, and the error cases."""
    width = draw(st.one_of(
        st.integers(1, 200),
        st.integers(1, 2**32 - 1),
        st.integers(2**31, 2**32 - 1),
        st.just(2**32),
        st.integers(2**32 + 1, 2**64),
        st.integers(2**63, 2**64),
        st.integers(-5, 0),
    ))
    if width < 1:  # high <= low: ValueError
        low = draw(st.integers(-2**63, 2**63 - 1))
        return low, low + width
    low = draw(st.integers(-2**63, 2**63 - width))
    return low, low + width


FINITE = st.floats(allow_nan=False, allow_infinity=False)
UNIFORM_BOUNDS = st.one_of(
    st.tuples(FINITE, FINITE).map(sorted).map(tuple),
    st.tuples(st.floats(-1e6, 1e6), st.floats(0, 1e6)).map(lambda p: (p[0], p[0] + p[1])),
    st.tuples(st.floats(), st.floats()),  # unordered, infinite or NaN: errors
)
DRAWS = st.lists(
    st.one_of(
        st.tuples(st.just("random"), st.just(())),
        st.tuples(st.just("uniform"), UNIFORM_BOUNDS),
        st.tuples(st.just("integers"), integer_bounds()),
    ),
    max_size=30,
)


def numpy_rng(seed: int, spawn_key: tuple[int, ...]) -> np.random.Generator:
    if spawn_key:
        return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))
    return np.random.default_rng(seed)


def outcome(rng, method: str, args: tuple):
    """The draw as a comparable value, or the type of the error raised."""
    try:
        value = getattr(rng, method)(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc)
    return value.hex() if isinstance(value, float) else int(value)


@given(seed=SEEDS, spawn_key=SPAWN_KEYS, draws=DRAWS)
@settings(max_examples=400, deadline=None)
def test_streams_equal_numpy(seed, spawn_key, draws):
    ours, theirs = default_rng(seed, spawn_key=spawn_key), numpy_rng(seed, spawn_key)
    for method, args in draws:
        assert outcome(ours, method, args) == outcome(theirs, method, args), (method, args)


@pytest.mark.parametrize("method, args", [
    ("uniform", (0.0, -0.0)),  # a -0.0 range counts as negative
    ("uniform", (2.0, 2.0)),
    ("uniform", (-1e308, 1e308)),
    ("uniform", (float("nan"), 1.0)),
    ("integers", (0, 0)),
    ("integers", (-2**63, 2**63)),
    ("integers", (-2**63 - 1, 0)),
    ("integers", (0, 2**63 + 1)),
])
def test_edge_cases_equal_numpy(method, args):
    ours, theirs = default_rng(7), np.random.default_rng(7)
    assert outcome(ours, method, args) == outcome(theirs, method, args)
    assert outcome(ours, "integers", (0, 1000)) == outcome(theirs, "integers", (0, 1000))


def test_draws_are_python_scalars():
    rng = default_rng(2016, spawn_key=(1, 2))
    assert type(rng.integers(1, 101)) is int
    assert type(rng.random()) is float
    assert type(rng.uniform(0.5, 2)) is float


@pytest.mark.parametrize("seed, spawn_key", [
    (-1, ()),
    (2016, (3, -1)),
    (1.5, ()),
    ("7", ()),
    (2016, (0.5,)),
])
def test_bad_seeds_raise_like_numpy(seed, spawn_key):
    with pytest.raises((TypeError, ValueError)) as theirs:
        numpy_rng(seed, spawn_key)
    with pytest.raises((TypeError, ValueError)) as ours:
        default_rng(seed, spawn_key=spawn_key)
    assert ours.type is theirs.type


def test_seed_is_required():
    # numpy seeds from OS entropy without a seed; the port refuses.
    with pytest.raises(TypeError):
        default_rng()
    with pytest.raises(TypeError):
        default_rng(None)


@pytest.mark.parametrize("profile", [GROUP1, GROUP2], ids=["group1", "group2"])
@pytest.mark.parametrize("spawn_key", [(), (0, 0), (7, 123)])
def test_generated_tasksets_equal_numpy(profile, spawn_key):
    # The generators duck-type ``rng``: both streams give the same task-set.
    ours = generate_taskset(default_rng(2016, spawn_key=spawn_key), 3.0, profile)
    theirs = generate_taskset(numpy_rng(2016, spawn_key), 3.0, profile)
    assert list(ours) == list(theirs)
    horizon = 3 * max(task.period for task in ours)
    assert sporadic_releases(default_rng(5), ours, horizon) == sporadic_releases(
        np.random.default_rng(5), theirs, horizon
    )
