"""Tests for the extension workloads: Cholesky, LU, stencil, tree, pipeline."""

import pytest

from repro.config import SystemConfig
from repro.machine import run_trace
from repro.runtime.task_graph import build_task_graph
from repro.traces import (
    blocked_lu_trace,
    cholesky_task_count,
    cholesky_trace,
    jacobi_stencil_trace,
    pipeline_trace,
    reduction_tree_trace,
)


class TestCholesky:
    def test_task_count_formula(self):
        # T + T(T-1)/2 * 2 + T(T-1)(T-2)/6
        assert cholesky_task_count(1) == 1
        assert cholesky_task_count(2) == 4
        assert cholesky_task_count(4) == 4 + 6 + 6 + 4
        trace = cholesky_trace(5)
        assert len(trace) == cholesky_task_count(5)

    def test_dependency_structure_step0(self):
        t = 4
        trace = cholesky_trace(t)
        graph = build_task_graph(trace)
        # Task 0 = potrf(0,0); tasks 1..3 = trsm reading (0,0).
        for tid in range(1, t):
            assert graph.is_edge(0, tid)
        # gemm(i,j,0) depends on trsm(i,0) and trsm(j,0).
        # Layout for k=0: [potrf, trsm1, trsm2, trsm3, syrk1, syrk2,
        #                  gemm(2,1), syrk3, gemm(3,1), gemm(3,2)].
        gemm_21 = 6
        assert graph.is_edge(1, gemm_21) and graph.is_edge(2, gemm_21)

    def test_critical_path_grows_linearly_in_tiles(self):
        g2 = build_task_graph(cholesky_trace(2))
        g6 = build_task_graph(cholesky_trace(6))
        assert g6.critical_path() > g2.critical_path()
        # Parallelism grows with the trailing submatrix size.
        assert g6.max_parallelism() > g2.max_parallelism()

    def test_runs_legally_on_machine(self):
        trace = cholesky_trace(5, tile_size=32)
        result = run_trace(trace, SystemConfig(workers=4, memory_batch_chunks=8))
        assert result.verify_against(build_task_graph(trace)) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            cholesky_trace(0)
        with pytest.raises(ValueError):
            cholesky_trace(2, tile_size=0)


class TestBlockedLU:
    def test_task_count(self):
        t = 4
        trace = blocked_lu_trace(t)
        expected = sum(1 + 2 * (t - k - 1) + (t - k - 1) ** 2 for k in range(t))
        assert len(trace) == expected

    def test_gemm_waits_for_both_panels(self):
        trace = blocked_lu_trace(3)
        graph = build_task_graph(trace)
        # k=0 layout: [getrf, trsm_r(0,1), trsm_r(0,2), trsm_c(1,0),
        #              trsm_c(2,0), gemm(1,1), gemm(1,2), gemm(2,1), gemm(2,2)]
        gemm_11 = 5
        assert graph.is_edge(3, gemm_11)  # column panel (1,0)
        assert graph.is_edge(1, gemm_11)  # row panel (0,1)

    def test_runs_legally_on_machine(self):
        trace = blocked_lu_trace(4, tile_size=32)
        result = run_trace(trace, SystemConfig(workers=4, memory_batch_chunks=8))
        assert result.verify_against(build_task_graph(trace)) == []


class TestJacobi:
    def test_task_count(self):
        assert len(jacobi_stencil_trace(4, 3)) == 16 * 3

    def test_iterations_chain_through_buffers(self):
        trace = jacobi_stencil_trace(2, 2)
        graph = build_task_graph(trace)
        # Every iteration-1 task depends on some iteration-0 task.
        for tid in range(4, 8):
            assert graph.predecessors[tid]
            assert all(p < 4 for p in graph.predecessors[tid])

    def test_interior_task_has_five_reads(self):
        trace = jacobi_stencil_trace(3, 1)
        center = trace[4]  # (1,1) of a 3x3 grid
        reads = sum(1 for p in center.params if p.mode.reads)
        assert reads == 5

    def test_runs_legally_on_machine(self):
        trace = jacobi_stencil_trace(3, 3)
        result = run_trace(trace, SystemConfig(workers=4, memory_batch_chunks=8))
        assert result.verify_against(build_task_graph(trace)) == []

    def test_parallelism_is_grid_sized(self):
        graph = build_task_graph(jacobi_stencil_trace(4, 4))
        assert graph.max_parallelism() == 16


class TestReductionTree:
    def test_task_count_and_depth(self):
        trace = reduction_tree_trace(16)
        assert len(trace) == 15  # 8 + 4 + 2 + 1
        graph = build_task_graph(trace)
        assert graph.parallelism_profile() == [8, 4, 2, 1]

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            reduction_tree_trace(6)

    def test_runs_legally_on_machine(self):
        trace = reduction_tree_trace(32)
        result = run_trace(trace, SystemConfig(workers=8, memory_batch_chunks=8))
        assert result.verify_against(build_task_graph(trace)) == []


class TestPipeline:
    def test_task_count(self):
        assert len(pipeline_trace(10, 4)) == 40

    def test_stage_state_serializes_items_per_stage(self):
        trace = pipeline_trace(5, 2)
        graph = build_task_graph(trace)
        # Stage 0 of item n depends on stage 0 of item n-1 (shared state).
        for n in range(1, 5):
            assert graph.is_edge((n - 1) * 2, n * 2)

    def test_renaming_recovers_pipeline_parallelism(self):
        from repro.runtime.renaming import rename_trace

        trace = pipeline_trace(12, 3)
        before = build_task_graph(trace).max_parallelism()
        after = build_task_graph(rename_trace(trace)).max_parallelism()
        assert after > before  # stage-state WAW chains removed

    def test_runs_legally_on_machine(self):
        trace = pipeline_trace(8, 3)
        result = run_trace(trace, SystemConfig(workers=4, memory_batch_chunks=8))
        assert result.verify_against(build_task_graph(trace)) == []
