"""The stdlib PCG64 replays NumPy's ``default_rng`` stream bit for bit.

``random_trace`` draws every trace from ``repro.traces._pcg64``; the
pinned random goldens were recorded on NumPy's ``Generator``.  These tests
hold the two together: raw draws, bounded draws on each of Lemire's
branches, both ``choice`` algorithms and whole traces, over multi-word
seeds and the zero-width ranges that draw nothing, and the pinned
``stream-1p`` and 9,000-task streams.  ``numpy_trace_oracle`` is the NumPy
form of the generator.
"""

import random

import pytest

np = pytest.importorskip("numpy")

from numpy_trace_oracle import oracle_trace  # noqa: E402

from repro.traces import CATALOGUE, random_trace, workload  # noqa: E402
from repro.traces._pcg64 import PCG64  # noqa: E402
from repro.traces.random_traces import _columns  # noqa: E402
from repro.traces.trace import TaskTrace  # noqa: E402

#: Single-word seeds, a two-word seed and multi-word ``SeedSequence``
#: entropy (three and five 32-bit words).
SEEDS = [0, 1, 7, 11, 2**32, 2**64 + 1, 2**128 + 7]


def _same_position(ours: PCG64, theirs) -> None:
    """Both generators sit at the same state with the same saved half-word."""
    state = theirs.bit_generator.state
    assert ours._state == state["state"]["state"]
    assert ours._inc == state["state"]["inc"]
    saved = state["uinteger"] if state["has_uint32"] else None
    assert ours._half == saved


@pytest.mark.parametrize("seed", SEEDS)
def test_seeding_and_raw_draws(seed):
    ours, theirs = PCG64(seed), np.random.default_rng(seed)
    _same_position(ours, theirs)
    assert [ours.next_uint64() for _ in range(8)] == [
        int(v) for v in theirs.bit_generator.random_raw(8)]
    _same_position(ours, theirs)


@pytest.mark.parametrize("seed", SEEDS)
def test_mixed_draws(seed):
    """Interleaved draws on every branch, so a half-word saved by one
    32-bit draw must survive the 64-bit draws between it and the next."""
    ours, theirs = PCG64(seed), np.random.default_rng(seed)
    plan = random.Random(seed)
    for _ in range(300):
        op = plan.randrange(5)
        if op == 0:  # 32-bit Lemire, including the zero-width range
            low = plan.randrange(-5, 5)
            high = low + plan.randrange(1, 100)
        elif op == 1:  # next_uint32 whole, then 64-bit Lemire
            low = 0
            high = plan.choice([2**32, 2**32 + 1, 3 * 2**40, 2**63 - 1])
        if op < 2:
            assert ours.integers(low, high) == int(theirs.integers(low, high))
        elif op == 2:  # Floyd plus the Lemire shuffle
            n = plan.randrange(1, 200)
            k = plan.randrange(1, n + 1)
            assert ours.choice(n, k) == theirs.choice(
                n, size=k, replace=False).tolist()
        elif op == 3:  # the tail shuffle above 10,000 (k > n // 50), or Floyd
            n = plan.randrange(10_001, 30_000)
            k = plan.choice([1, n // 50, n // 50 + 1, plan.randrange(1, 1200)])
            assert ours.choice(n, k) == theirs.choice(
                n, size=k, replace=False).tolist()
        else:
            assert ours.next_uint32() == int(theirs.integers(0, 2**32))
    _same_position(ours, theirs)


def test_choice_of_the_whole_population():
    for n in (1, 2, 17, 10_001):
        ours, theirs = PCG64(n), np.random.default_rng(n)
        assert ours.choice(n, n) == theirs.choice(
            n, size=n, replace=False).tolist()
        _same_position(ours, theirs)


#: (n_tasks, n_addresses, max_params, mean_exec, mean_memory): the
#: goldens' and ledger's shapes, zero-width ranges that draw nothing
#: (``max_params=1``, ``mean_memory=0``), ``rng == 2**32 - 1`` and the
#: 64-bit Lemire branch (``mean_exec >= 2**31``), more parameters than
#: addresses, and the tail-shuffle branch (20,000 addresses, up to 600).
SHAPES = [
    (300, 16, 6, 1000, 500),
    (200, 96, 6, 4000, 0),
    (200, 16, 1, 1000, 500),
    (200, 16, 1, 1000, 0),
    (100, 16, 6, 2**31, 500),
    (100, 16, 6, 2**40 + 3, 500),
    (200, 4, 10, 1000, 500),
    (12, 20_000, 600, 1000, 500),
]


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "-".join(map(str, s)))
@pytest.mark.parametrize("seed", SEEDS)
def test_traces_equal_the_oracle(shape, seed):
    n_tasks, n_addresses, max_params, mean_exec, mean_memory = shape
    expected, theirs = oracle_trace(n_tasks, n_addresses, max_params, seed,
                                    mean_exec, mean_memory)
    ours = PCG64(seed)
    columns = _columns(ours, n_tasks, n_addresses, max_params, mean_exec,
                       mean_memory)
    assert TaskTrace.from_columns("random", **columns).tasks == expected.tasks
    _same_position(ours, theirs)
    trace = random_trace(n_tasks, n_addresses, max_params, seed, mean_exec,
                         mean_memory)
    assert trace.tasks == expected.tasks


@pytest.mark.parametrize("args", [(8192, 64, 5, 3), (9000, 1000, 4, 5)],
                         ids=lambda a: "-".join(map(str, a)))
def test_long_traces_equal_the_oracle(args):
    """The largest trace drawn per task before every length was, and the
    stream ``test_generators`` pins at 9,000 tasks."""
    expected, _ = oracle_trace(*args)
    assert random_trace(*args).tasks == expected.tasks


def test_stream_1p_equals_the_oracle():
    """The perf ledger's 10,000-task ``stream-1p`` trace is NumPy's
    stream, so its pinned digest is too."""
    params = dict(CATALOGUE["stream-1p"].params)
    del params["name"]
    expected, _ = oracle_trace(**params)
    assert workload("stream-1p").tasks == expected.tasks


def test_negative_seed_raises_as_numpy_does():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError):
        PCG64(-1)
    with pytest.raises(ValueError):
        random_trace(10, seed=-1)
