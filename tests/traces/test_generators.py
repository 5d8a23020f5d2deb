"""Tests for the paper's workload generators (Fig. 4, Fig. 5, Table II)."""

import hashlib

import pytest

from repro.runtime.task_graph import build_task_graph
from repro.sim import US
from repro.traces import (
    TABLE_II_SIZES,
    TimeModel,
    gaussian_mean_weight,
    gaussian_task_count,
    gaussian_trace,
    h264_wavefront_trace,
    horizontal_chains_trace,
    independent_trace,
    random_trace,
    spatial_decomposition_trace,
    vertical_chains_trace,
    wait_chain_trace,
    wavefront_step,
    workload,
)


class TestH264Wavefront:
    def test_default_task_count_is_8160(self):
        trace = h264_wavefront_trace()
        assert len(trace) == 8160  # 120 x 68 macroblocks

    def test_dependency_structure(self):
        trace = h264_wavefront_trace(rows=4, cols=5)
        graph = build_task_graph(trace)
        cols = 5
        # Task (1,1) depends on left (1,0) and up-right (0,2).
        tid = 1 * cols + 1
        assert graph.predecessors[tid] == {1 * cols + 0, 0 * cols + 2}
        # Corner task (0,0) has no predecessors.
        assert graph.predecessors[0] == set()
        # Last column tasks have no up-right dependence.
        tid_last = 1 * cols + (cols - 1)
        assert graph.predecessors[tid_last] == {1 * cols + (cols - 2)}

    def test_wavefront_step_dominates_dependencies(self):
        # step(i,j) must be strictly greater than both predecessors' steps.
        for i, j in [(1, 1), (3, 2), (10, 0)]:
            s = wavefront_step(i, j)
            if j > 0:
                assert wavefront_step(i, j - 1) < s
            if i > 0:
                assert wavefront_step(i - 1, j + 1) < s

    def test_ramping_parallelism_profile(self):
        trace = h264_wavefront_trace()
        profile = build_task_graph(trace).parallelism_profile()
        # Ramp up, plateau around cols/2, ramp down (the paper's Fig. 4a).
        assert profile[0] == 1
        assert max(profile) == pytest.approx(34, abs=1)
        assert profile[-1] == 1
        assert sum(profile) == 8160

    def test_mean_times_match_published_values(self):
        trace = h264_wavefront_trace()
        assert trace.mean_exec_time == pytest.approx(11.8 * US, rel=0.02)
        assert trace.mean_memory_time == pytest.approx(7.5 * US, rel=0.02)

    def test_deterministic_per_seed(self):
        a = h264_wavefront_trace(seed=7)
        b = h264_wavefront_trace(seed=7)
        c = h264_wavefront_trace(seed=8)
        assert a.tasks == b.tasks
        assert a.tasks != c.tasks

    def test_max_three_params(self):
        assert h264_wavefront_trace().max_params == 3

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            h264_wavefront_trace(rows=0)


class TestIndependent:
    def test_no_dependencies(self):
        trace = independent_trace(n_tasks=200)
        graph = build_task_graph(trace)
        assert graph.n_edges == 0
        assert graph.max_parallelism() == 200

    def test_default_shape(self):
        trace = independent_trace()
        assert len(trace) == 8160
        assert trace.max_params == 3

    def test_param_count_override(self):
        assert independent_trace(n_tasks=10, n_params=3).max_params == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            independent_trace(n_tasks=0)
        with pytest.raises(ValueError):
            independent_trace(n_params=0)


class TestChainPatterns:
    def test_horizontal_chains_along_rows(self):
        trace = horizontal_chains_trace(rows=3, cols=4)
        graph = build_task_graph(trace)
        cols = 4
        # Within a row: each task depends only on its left neighbour.
        assert graph.predecessors[1] == {0}
        assert graph.predecessors[2] == {1}
        # Row starts are independent.
        assert graph.predecessors[cols] == set()

    def test_vertical_chains_across_rows(self):
        trace = vertical_chains_trace(rows=3, cols=4)
        graph = build_task_graph(trace)
        cols = 4
        # First row: no deps; below: depend on the task directly above.
        assert graph.predecessors[0] == set()
        assert graph.predecessors[cols + 1] == {1}
        assert graph.predecessors[2 * cols + 3] == {cols + 3}

    def test_both_patterns_are_8160_tasks(self):
        assert len(horizontal_chains_trace()) == 8160
        assert len(vertical_chains_trace()) == 8160

    def test_fixed_parallelism(self):
        # Unlike the wavefront, these have a flat parallelism profile
        # (the paper: "provide a constant number of parallel tasks").
        h = build_task_graph(horizontal_chains_trace(rows=6, cols=9))
        assert set(h.parallelism_profile()) == {6}
        v = build_task_graph(vertical_chains_trace(rows=6, cols=9))
        assert set(v.parallelism_profile()) == {9}


class TestGaussian:
    def test_task_counts_match_table_ii(self):
        expected = {250: 31374, 500: 125249, 1000: 500499, 3000: 4501499, 5000: 12502499}
        for n in TABLE_II_SIZES:
            assert gaussian_task_count(n) == expected[n]

    def test_mean_weights_against_table_ii(self):
        # Formula (1) gives means slightly below the paper's Table II values
        # (and the n=5000 entry, 3523, is inconsistent with the paper's own
        # formula, which yields 3333).  We require exact agreement with the
        # formula and 6% agreement with the printed table.
        formula_expected = {250: 166.01, 500: 332.67, 1000: 666.0, 3000: 1999.3, 5000: 3332.7}
        table_ii = {250: 167, 500: 334, 1000: 667, 3000: 2012, 5000: 3523}
        for n in TABLE_II_SIZES:
            assert gaussian_mean_weight(n) == pytest.approx(formula_expected[n], rel=1e-3)
            assert gaussian_mean_weight(n) == pytest.approx(table_ii[n], rel=0.06)

    def test_trace_length(self):
        trace = gaussian_trace(20)
        assert len(trace) == gaussian_task_count(20)

    def test_phase_structure_matches_fig5(self):
        # Profile: 1 pivot, n-1 updates, 1 pivot, n-2 updates, ...
        n = 6
        graph = build_task_graph(gaussian_trace(n))
        profile = graph.parallelism_profile()
        expected = []
        for i in range(1, n):
            expected.extend([1, n - i])
        assert profile == expected

    def test_pivot_has_wide_param_list(self):
        n = 12
        trace = gaussian_trace(n)
        # First task is pivot T(1,1): inout row1 + in rows 2..n.
        assert trace[0].n_params == n
        # Updates have exactly two parameters.
        assert trace[1].n_params == 2

    def test_first_pivot_fans_out_to_all_updates(self):
        n = 8
        graph = build_task_graph(gaussian_trace(n))
        # T(1,1) is tid 0; updates T(j,1) are tids 1..n-1 and all depend on it.
        for tid in range(1, n):
            assert graph.is_edge(0, tid)

    def test_second_pivot_waits_for_all_first_updates(self):
        n = 8
        graph = build_task_graph(gaussian_trace(n))
        second_pivot = n  # after pivot(1) + (n-1) updates
        # It must depend on every update of step 1 (reads all their rows).
        for tid in range(1, n):
            assert graph.is_edge(tid, second_pivot)

    def test_war_ordering_enforced(self):
        # Updates write rows the pivot *read* (WAR).  In this workload the
        # same task pair also carries a RAW hazard (updates read the pivot
        # row), so the edge is labelled RAW; what matters is that the
        # ordering edge pivot -> update exists for *every* update, including
        # those whose only hazard against the pivot is the row they write.
        n = 6
        graph = build_task_graph(gaussian_trace(n))
        from repro.runtime.task_graph import DependenceKind

        assert DependenceKind.RAW in set(graph.edge_kinds.values())
        for tid in range(1, n):  # all step-1 updates
            assert graph.is_edge(0, tid)

    def test_durations_follow_2gflops(self):
        trace = gaussian_trace(10)
        # Pivot T(1,1) weight = n+1-1 = 10 FLOPs -> 5 ns.
        assert trace[0].exec_time == 5000
        # Update weight = n-1 = 9 FLOPs -> 4.5 ns.
        assert trace[1].exec_time == 4500

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            gaussian_trace(1)
        with pytest.raises(ValueError):
            gaussian_task_count(0)


class TestRandomTrace:
    def test_deterministic(self):
        assert random_trace(50, seed=3).tasks == random_trace(50, seed=3).tasks

    def test_address_pool_bounded(self):
        trace = random_trace(100, n_addresses=4, seed=1)
        assert len(trace.address_set()) <= 4

    def test_param_limit(self):
        trace = random_trace(100, n_addresses=20, max_params=5, seed=2)
        assert trace.max_params <= 5


class TestRandomTraceStreaming:
    """Traces longer than the golden schedules replay (up to 3,000 tasks)
    draw the same per-task stream, however long they get."""

    def test_streaming_path_is_deterministic(self):
        a = random_trace(9000, n_addresses=64, seed=5)
        b = random_trace(9000, n_addresses=64, seed=5)
        assert a.tasks == b.tasks

    def test_streaming_tasks_are_well_formed(self):
        from repro.traces.trace import AccessMode

        trace = random_trace(10_000, n_addresses=32, max_params=6, seed=9)
        assert len(trace) == 10_000
        assert [t.tid for t in trace] == list(range(10_000))
        for task in trace:
            addrs = [p.addr for p in task.params]
            assert 1 <= len(addrs) <= 6
            assert len(set(addrs)) == len(addrs), "duplicate address in a task"
            assert all(p.mode in AccessMode for p in task.params)
            assert task.exec_time >= 1
            assert task.read_time >= 0 and task.write_time >= 0
        assert len(trace.address_set()) <= 32

    def test_streaming_path_lints_clean(self):
        from repro.traces.validate import lint_trace

        report = lint_trace(random_trace(20_000, n_addresses=256, seed=2))
        assert report.ok, report.errors

    def test_small_traces_keep_the_legacy_stream(self):
        """Random traces keep the original RNG stream byte-for-byte — the
        pinned golden schedule digests replay random traces of up to 3000
        tasks.  Spot-check against frozen first-task values recorded from
        the original generator."""
        trace = random_trace(
            400, n_addresses=96, max_params=6, seed=7,
            mean_exec=4000, mean_memory=0, name="pinned",
        )
        t0 = trace.tasks[0]
        assert (t0.exec_time, t0.read_time, t0.write_time) == (953, 0, 0)
        assert [(p.addr, int(p.mode)) for p in t0.params] == [
            (33575680, 2), (33568256, 0), (33573120, 1),
            (33574912, 2), (33568768, 0), (33570304, 2),
        ]

    @pytest.mark.parametrize(
        "shorter, longer, params",
        [
            (8000, 9000, {}),
            (2000, 10_000, dict(n_addresses=1024, max_params=1,
                                mean_exec=2000, mean_memory=0)),
        ],
        ids=["default", "stream-1p"],
    )
    @pytest.mark.parametrize("seed", [0, 7])
    def test_a_longer_trace_starts_with_the_shorter_one(
        self, shorter, longer, params, seed
    ):
        """Growing ``n_tasks`` only appends rows: the first ``n`` rows of
        any longer trace are the ``n``-task trace, on both sides of 8,192
        tasks."""
        short = random_trace(shorter, seed=seed, **params)
        long = random_trace(longer, seed=seed, **params)
        assert long.tasks[:shorter] == short.tasks

    def test_long_stream_is_pinned(self):
        """A 9,000-task stream over a 1,000-address pool, frozen without
        NumPy (``test_pcg64`` checks it is NumPy's own stream)."""
        trace = random_trace(9000, n_addresses=1000, max_params=4, seed=5)
        assert _stream_digest(trace) == LONG_STREAM_DIGEST

    def test_stream_1p_is_pinned(self):
        """The ``stream-1p`` trace (one parameter per task, the perf
        ledger's and the 1M waypoint's shape), frozen without NumPy."""
        trace = workload("stream-1p")
        assert len(trace) == 10_000
        assert _stream_digest(trace) == STREAM_1P_DIGEST

    def test_working_memory_does_not_grow_with_the_pool(self):
        """A wide pool must not size anything by ``n_tasks x n_addresses``
        (9000 x 4096 float64 keys alone are 281 MiB).  Deterministic:
        ``tracemalloc`` counts the allocations."""
        import tracemalloc

        tracemalloc.start()
        try:
            random_trace(9000, n_addresses=4096, max_params=1, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


#: sha256 of ``_stream_digest(random_trace(9000, n_addresses=1000,
#: max_params=4, seed=5))``.
LONG_STREAM_DIGEST = (
    "75790e58990a63368ce9853eaee54555571182aa961b6c10a39d13cc0f754129"
)


#: ``_stream_digest(workload("stream-1p"))``.
STREAM_1P_DIGEST = (
    "46884a02010dacc3bd0fef9f337f5b357b56d54ef70191bab96a80e352fc9508"
)


def _stream_digest(trace):
    rows = [
        (t.tid, t.params, t.exec_time, t.read_time, t.write_time)
        for t in trace
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


class TestTimeModel:
    def test_zero_cv_gives_constant_times(self):
        model = TimeModel(mean_exec=1000, mean_memory=400, cv=0.0)
        e, r, w = model.sample(10, seed=0)
        assert set(e) == {1000}
        assert all(r + w == 400 for r, w in zip(r, w))

    def test_mean_calibration(self):
        model = TimeModel(mean_exec=10_000_000, mean_memory=5_000_000, cv=0.3)
        e, r, w = model.sample(20000, seed=1)
        assert e.mean() == pytest.approx(10_000_000, rel=0.02)
        assert (r + w).mean() == pytest.approx(5_000_000, rel=0.02)

    def test_read_fraction_split(self):
        model = TimeModel(mean_exec=100, mean_memory=1000, read_fraction=0.75, cv=0)
        _, r, w = model.sample(5, seed=0)
        assert all(rv == 750 for rv in r)
        assert all(wv == 250 for wv in w)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeModel(mean_exec=-1, mean_memory=0)
        with pytest.raises(ValueError):
            TimeModel(mean_exec=1, mean_memory=1, read_fraction=1.5)
        with pytest.raises(ValueError):
            TimeModel(mean_exec=1, mean_memory=1, cv=-0.1)


class TestWaitChain:
    """The granularity probe: rows x cols chains with k cross links."""

    def test_shape(self):
        trace = wait_chain_trace(8, 10, k_deps=2, spin_ns=500)
        assert len(trace) == 80
        assert [t.tid for t in trace] == list(range(80))
        assert trace.max_params == 3  # 2 deps + own output
        assert trace.meta["pattern"] == "wait-chain"

    def test_every_dep_precedes_its_consumer(self):
        graph = build_task_graph(wait_chain_trace(7, 9, k_deps=3, spin_ns=250))
        for tid in range(graph.n_tasks):
            assert all(p < tid for p in graph.predecessors[tid])

    def test_dependency_structure(self):
        rows, k = 8, 3
        graph = build_task_graph(wait_chain_trace(rows, 10, k_deps=k))
        # Column 0 tasks are roots.
        assert graph.roots() == list(range(rows))
        # Task (r, c) depends on ((r+d) % rows, c-1) for d in range(k).
        for tid in (rows, 3 * rows + 5, 9 * rows + 7):
            c, r = divmod(tid, rows)
            expected = {(c - 1) * rows + (r + d) % rows for d in range(k)}
            assert graph.predecessors[tid] == expected

    def test_spin_sets_exec_time_exactly(self):
        trace = wait_chain_trace(4, 6, spin_ns=750)
        assert {t.exec_time for t in trace} == {750_000}  # ps
        assert all(t.memory_time == 0 for t in trace)

    def test_jitter_is_seed_deterministic(self):
        a = wait_chain_trace(6, 8, spin_ns=1000, cv=0.3, seed=3)
        b = wait_chain_trace(6, 8, spin_ns=1000, cv=0.3, seed=3)
        c = wait_chain_trace(6, 8, spin_ns=1000, cv=0.3, seed=4)
        assert a.tasks == b.tasks
        assert [t.exec_time for t in a] != [t.exec_time for t in c]

    def test_k_deps_clamped_to_rows(self):
        trace = wait_chain_trace(3, 4, k_deps=10)
        assert trace.meta["k_deps"] == 3
        assert trace.max_params == 4  # no duplicate addresses

    def test_steady_state_parallelism_is_rows(self):
        profile = build_task_graph(
            wait_chain_trace(5, 12, k_deps=1)
        ).parallelism_profile()
        assert set(profile) == {5}
        assert len(profile) == 12

    def test_lints_clean(self):
        from repro.traces.validate import lint_trace

        report = lint_trace(wait_chain_trace(16, 16, k_deps=4))
        assert report.ok, report.errors

    def test_beyond_8k_tasks_stays_dense_and_correct(self):
        """Wait-chains of more than 8,192 tasks keep dense tids and the
        exact dependence structure past that size."""
        rows, cols, k = 128, 65, 2
        trace = wait_chain_trace(rows, cols, k_deps=k, spin_ns=300)
        assert len(trace) == 8320
        assert [t.tid for t in trace] == list(range(8320))
        for tid in (8191, 8192, 8193):
            task = trace[tid]
            c, r = divmod(tid, rows)
            expected = {
                0x80_000_000 + ((c - 1) * rows + (r + d) % rows) * 64
                for d in range(k)
            }
            got = {p.addr for p in task.params if p.mode.name == "IN"}
            assert got == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            wait_chain_trace(0, 5)
        with pytest.raises(ValueError):
            wait_chain_trace(5, 0)
        with pytest.raises(ValueError):
            wait_chain_trace(5, 5, k_deps=0)
        with pytest.raises(ValueError):
            wait_chain_trace(5, 5, spin_ns=0)

    @pytest.mark.parametrize("cv", [-1, -0.1, float("nan"), float("inf")])
    def test_bad_cv_is_rejected_by_name(self, cv):
        with pytest.raises(ValueError, match="cv must be finite and >= 0"):
            wait_chain_trace(5, 5, cv=cv)


class TestSpatialDecomposition:
    """The MD halo exchange: Moore neighbourhood, double buffered."""

    def test_task_count(self):
        assert len(spatial_decomposition_trace(4, 3, dims=2)) == 48
        assert len(spatial_decomposition_trace(3, 2, dims=3)) == 54

    def test_interior_cell_reads_full_moore_neighbourhood(self):
        grid = 4
        trace = spatial_decomposition_trace(grid, 2, dims=2)
        graph = build_task_graph(trace)
        # Interior cell (1, 1) of step 1 depends on its 3x3 block of
        # step-0 writers (self + 8 neighbours).
        tid = grid * grid + 1 * grid + 1
        expected = {
            i * grid + j for i in range(3) for j in range(3)
        }
        assert graph.predecessors[tid] == expected
        assert trace[tid].n_params == 10  # 9 reads + 1 write

    def test_boundary_cells_clamp(self):
        grid = 4
        trace = spatial_decomposition_trace(grid, 2, dims=2)
        graph = build_task_graph(trace)
        corner = grid * grid + 0  # cell (0, 0) of step 1
        assert graph.predecessors[corner] == {0, 1, grid, grid + 1}
        assert trace[corner].n_params == 5  # 4 reads + 1 write

    def test_3d_interior_cell_has_28_params(self):
        trace = spatial_decomposition_trace(3, 2, dims=3)
        # Centre cell (1,1,1) reads all 27 step-0 blocks; its parameter
        # list spills well past the per-descriptor hardware limit.
        centre = 27 + (1 * 3 + 1) * 3 + 1
        assert trace[centre].n_params == 28
        graph = build_task_graph(trace)
        assert graph.predecessors[centre] == set(range(27))

    def test_every_dep_precedes_its_consumer(self):
        graph = build_task_graph(spatial_decomposition_trace(3, 3, dims=3))
        for tid in range(graph.n_tasks):
            assert all(p < tid for p in graph.predecessors[tid])

    def test_deterministic(self):
        a = spatial_decomposition_trace(4, 3, dims=2)
        b = spatial_decomposition_trace(4, 3, dims=2)
        assert a.tasks == b.tasks

    def test_lints_clean(self):
        from repro.traces.validate import lint_trace

        for dims in (2, 3):
            report = lint_trace(spatial_decomposition_trace(3, 2, dims=dims))
            assert report.ok, report.errors

    def test_validation(self):
        with pytest.raises(ValueError):
            spatial_decomposition_trace(4, 2, dims=4)
        with pytest.raises(ValueError):
            spatial_decomposition_trace(0, 2)
        with pytest.raises(ValueError):
            spatial_decomposition_trace(4, 0)
