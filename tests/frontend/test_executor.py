"""Tests for ``execute``: recorded task bodies run for real, in program order
or in the order a modelled machine started the lowered trace's tasks."""

import numpy as np
import pytest

from repro.config import LADDER, SystemConfig
from repro.frontend import StarSsProgram, execute
from repro.machine import NexusMachine, run_trace
from repro.runtime import build_task_graph, run_software_rts

#: The golden ``full`` stack (tests/integration/test_goldens.py) at 4 shards.
FULL_4_SHARDS = LADDER["full"].with_(
    workers=8, master_cores=4, td_cache_entries=16, maestro_shards=4
)


def modelled_order(prog, run, exec_time=1000):
    """Lower ``prog``, run it with ``run(trace)``, check the schedule is
    legal, and return the run's start order."""
    trace = prog.to_trace(exec_time=exec_time)
    result = run(trace)
    assert result.verify_against(build_task_graph(trace)) == []
    return result.start_order()


class TestProgramOrder:
    def test_executes_in_program_order(self):
        prog = StarSsProgram()
        log = []

        @prog.task(inouts=("x",))
        def step(x):
            log.append(int(x[0]))
            x[0] += 1

        x = np.zeros(1)
        for _ in range(4):
            step(x)
        report = execute(prog)
        assert report.ok
        assert report.order == [0, 1, 2, 3]
        assert log == [0, 1, 2, 3]
        assert x[0] == 4

    def test_simple_chain_result_correct(self):
        prog = StarSsProgram()

        @prog.task(inputs=("a",), outputs=("b",))
        def copy(a, b):
            b[:] = a

        @prog.task(inouts=("x",))
        def double(x):
            x *= 2

        a = np.arange(8.0)
        b = np.zeros(8)
        copy(a, b)
        double(b)
        double(b)
        report = execute(prog)
        assert report.ok
        assert np.allclose(b, a * 4)

    def test_task_exception_collected_not_raised(self):
        prog = StarSsProgram()

        @prog.task(inouts=("x",))
        def boom(x):
            raise RuntimeError("kaboom")

        boom(np.zeros(1))
        report = execute(prog)
        assert not report.ok
        assert "kaboom" in report.errors[0]

    def test_empty_program(self):
        report = execute(StarSsProgram())
        assert report.ok
        assert report.n_tasks == 0


def marking_program():
    """Three tasks, a barrier, three more; each body logs its tid."""
    prog = StarSsProgram()
    log = []

    @prog.task(inouts=("x",))
    def mark(x):
        log.append(int(x[0]))

    xs = [np.full(1, float(i)) for i in range(6)]
    for x in xs[:3]:
        mark(x)
    prog.barrier()
    for x in xs[3:]:
        mark(x)
    return prog, log


class TestOrderValidation:
    @pytest.mark.parametrize(
        "order", [[0, 1, 2, 3, 4], [0, 1, 2, 3, 4, 4], [0, 1, 2, 3, 4, 6]],
        ids=["missing", "repeated", "out-of-range"],
    )
    def test_non_permutation_rejected_before_running(self, order):
        prog, log = marking_program()
        with pytest.raises(ValueError, match="not a permutation of the 6 task ids"):
            execute(prog, order)
        assert log == []

    def test_order_crossing_a_barrier_rejected_before_running(self):
        prog, log = marking_program()
        with pytest.raises(
            ValueError, match=r"runs task 4 \(epoch 1\) before task 2 of the earlier epoch 0"
        ):
            execute(prog, [1, 0, 4, 2, 3, 5])
        assert log == []

    def test_order_within_epochs_accepted(self):
        prog, log = marking_program()
        report = execute(prog, [2, 0, 1, 5, 3, 4])
        assert report.ok
        assert log == report.order == [2, 0, 1, 5, 3, 4]


def ge_program(n, seed=0):
    """LU factorisation with partial pivoting, recorded row by row; returns
    the program, the rows it factorises in place, and the matrix."""
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(n, n)) + np.eye(n) * n  # well-conditioned
    prog = StarSsProgram("ge")
    work = matrix.copy()  # factorisation happens in-place on the copy
    rows = [work[i] for i in range(n)]
    piv = np.zeros(n, dtype=np.int64)

    @prog.task(inouts=("pivot_row", "below"))
    def pivot(k, pivot_row, *below):
        # Partial pivoting within the remaining rows: swap row contents.
        col = [abs(pivot_row[k])] + [abs(r[k]) for r in below]
        best = int(np.argmax(col))
        if best > 0:
            tmp = pivot_row.copy()
            pivot_row[:] = below[best - 1]
            below[best - 1][:] = tmp
        piv[k] = best

    @prog.task(inputs=("pivot_row",), inouts=("row",))
    def eliminate(k, pivot_row, row):
        factor = row[k] / pivot_row[k]
        row[k:] -= factor * pivot_row[k:]
        row[k] = factor  # store the multiplier, LU style

    for k in range(n - 1):
        pivot(k, rows[k], *rows[k + 1 :])
        for j in range(k + 1, n):
            eliminate(k, rows[k], rows[j])
    return prog, rows, matrix


class TestGaussianEliminationFunctional:
    """Real LU factorisation through the frontend, checked against SciPy."""

    def test_reconstructs_matrix(self):
        n = 10
        prog, rows, matrix = ge_program(n)
        report = execute(prog)
        assert report.ok
        # L@U equals the matrix with the pivot swaps applied, so its
        # determinant magnitude must match the original's.
        u = np.triu(np.vstack(rows))
        l = np.tril(np.vstack(rows), k=-1) + np.eye(n)
        assert abs(np.linalg.det(l @ u)) == pytest.approx(
            abs(np.linalg.det(matrix)), rel=1e-8
        )

    def test_lu_against_scipy_without_pivoting_effects(self):
        # With a strictly diagonally dominant matrix no swaps occur, so the
        # factorisation must equal SciPy's LU exactly.  Skipped here, not at
        # collection, so the module's other tests run without SciPy.
        sla = pytest.importorskip("scipy.linalg")

        n = 9
        prog, rows, matrix = ge_program(n, seed=2)
        report = execute(prog)
        assert report.ok
        _, l_ref, u_ref = sla.lu(matrix)
        u = np.triu(np.vstack(rows))
        l = np.tril(np.vstack(rows), k=-1) + np.eye(n)
        assert np.allclose(u, u_ref, atol=1e-8)
        assert np.allclose(l, l_ref, atol=1e-8)


def pipeline_program(n_blocks=8):
    """scale -> neighbour stencil -> barrier -> one wide reduction."""
    prog = StarSsProgram("pipeline")
    blocks = [np.full((4, 4), float(i)) for i in range(n_blocks)]
    halo = [np.zeros((4, 4)) for _ in range(n_blocks)]
    total = np.zeros(1)

    @prog.task(inouts=("b",))
    def scale(b, factor):
        b *= factor

    @prog.task(inputs=("left", "right"), outputs=("out",))
    def stencil(left, right, out):
        out[:] = ((left if left is not None else 0)
                  + (right if right is not None else 0)) / 2.0

    @prog.task(inputs=("parts",), inouts=("acc",))
    def reduce_all(acc, *parts):
        acc[0] = sum(float(p.sum()) for p in parts)

    for b in blocks:
        scale(b, 2.0)
    for i in range(n_blocks):
        stencil(
            blocks[i - 1] if i > 0 else None,
            blocks[i + 1] if i + 1 < n_blocks else None,
            halo[i],
        )
    prog.barrier()
    reduce_all(total, *halo)
    return prog, halo + [total]


class TestStartOrder:
    def test_dependencies_enforced_under_parallelism(self):
        prog = StarSsProgram()

        @prog.task(inputs=("src",), inouts=("acc",))
        def add(src, acc):
            acc += src

        # acc is a chain: every add depends on the previous one.
        acc = np.zeros(1)
        for i in range(10):
            add(np.full(1, float(i)), acc)
        order = modelled_order(prog, lambda trace: run_trace(trace, SystemConfig(workers=8)))
        # The start order of a pure chain is program order.
        assert order == list(range(10))
        assert execute(prog, order).ok
        assert acc[0] == sum(range(10))

    @pytest.mark.parametrize(
        "build, run, exec_time",
        [
            (lambda: ge_program(12)[:2],
             lambda trace: run_trace(trace, SystemConfig(workers=4)), 1000),
            (lambda: ge_program(12)[:2],
             lambda trace: run_trace(trace, FULL_4_SHARDS), 1000),
            # Earlier tasks run longer, so some stencils become ready out
            # of program order.
            (pipeline_program,
             lambda trace: run_software_rts(trace, SystemConfig(workers=2)),
             lambda task: 1_000_000 * (100 - task.tid)),
        ],
        ids=["ge-table-iv", "ge-full-4-shards", "pipeline-software-rts"],
    )
    def test_modelled_order_matches_serial(self, build, run, exec_time):
        prog, values = build()
        serial_prog, serial_values = build()
        assert execute(serial_prog).ok
        order = modelled_order(prog, run, exec_time)
        assert order != list(range(len(prog.tasks)))
        assert execute(prog, order).ok
        for modelled, serial in zip(values, serial_values):
            assert np.array_equal(modelled, serial)

    def test_truncated_run_has_no_start_order(self):
        prog, _ = pipeline_program()
        result = NexusMachine(SystemConfig(workers=4)).run(prog.to_trace(), max_time=1)
        with pytest.raises(ValueError, match="never started"):
            result.start_order()
