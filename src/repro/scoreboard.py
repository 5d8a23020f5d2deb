"""Per-task lifecycle records shared by all machine components.

Lives at the package top level so the hardware components (repro.hw) and
the machine driver (repro.machine) can both import it without cycles.

The store is columnar, like the Maestro's fixed-width hardware tables:
one ``array('q')`` per field, indexed by task ID, with ``-1`` for a
stage that has not happened.  The hardware blocks stamp the columns
directly (``sb.stored[tid] = sim.now``); :class:`TaskRecord` is a row
view for tests and for code that reads one task at a time.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from typing import Iterator, List, Union

__all__ = [
    "TaskRecord",
    "TaskRecords",
    "Scoreboard",
    "FIELDS",
    "STAGES",
    "stage_problems",
]

_UNSET = -1

#: Lifecycle stamps (ps), in pipeline order.
STAGES = (
    "submitted",
    "stored",
    "ready",
    "dispatched",
    "fetch_start",
    "exec_start",
    "exec_end",
    "writeback_end",
    "completed",
)
#: Every per-task column: the executing core, the releasing task, the stamps.
FIELDS = ("core", "released_by") + STAGES


def stage_problems(tid: int, stamps: Sequence[int]) -> List[str]:
    """Monotonicity violations of one task's :data:`STAGES` stamps.

    A stage that never happened (``-1``) is reported and skipped: the
    next stage is compared with the last stage that did happen.
    """
    problems = []
    last_name, last_t = STAGES[0], stamps[0]
    for name, t in zip(STAGES[1:], stamps[1:]):
        if t == _UNSET or last_t == _UNSET:
            problems.append(f"task {tid}: stage {name} never happened")
            continue
        if t < last_t:
            problems.append(f"task {tid}: {name}@{t} precedes {last_name}@{last_t}")
        last_name, last_t = name, t
    return problems


class Scoreboard:
    """Run-time lifecycle store shared by all machine components.

    One ``array('q')`` column per name in :data:`FIELDS` (``sb.core``,
    ``sb.released_by``, ``sb.submitted`` ... ``sb.completed``), each
    ``n_tasks`` long and indexed by task ID; ``-1`` marks a stage that
    has not happened: 88 B per task and no per-task object.  ``records``
    gives the same data as a sequence of :class:`TaskRecord` row views.
    """

    def __init__(self, n_tasks: int):
        blank = array("q", [_UNSET]) * n_tasks
        for name in FIELDS:
            setattr(self, name, array("q", blank))
        self.n_tasks = n_tasks
        self.completed_count = 0
        self.last_completion = 0

    @classmethod
    def of(cls, records: Union[Scoreboard, Sequence[TaskRecord]]) -> Scoreboard:
        """The scoreboard behind ``records``.

        A board, or a board's own :class:`TaskRecords`, is returned
        as-is; any other sequence of records (e.g. a hand-built list of
        standalone :class:`TaskRecord`) is copied into a fresh board.
        Row ``i`` must be task ``i``.
        """
        if isinstance(records, Scoreboard):
            return records
        if isinstance(records, TaskRecords):
            return records.board
        board = cls(len(records))
        for row, record in enumerate(records):
            if record.tid != row:
                raise ValueError(f"record {row} is task {record.tid}")
            for name in FIELDS:
                getattr(board, name)[row] = getattr(record, name)
        return board

    @property
    def records(self) -> TaskRecords:
        """Row views over the columns, one per task."""
        return TaskRecords(self)

    def note_completed(self, tid: int, now: int) -> bool:
        """Mark completion; True when this was the final task."""
        self.completed[tid] = now
        self.completed_count += 1
        if now > self.last_completion:
            self.last_completion = now
        return self.completed_count == self.n_tasks

    @property
    def all_done(self) -> bool:
        return self.completed_count == self.n_tasks


def _column_property(name: str) -> property:
    def get(self: TaskRecord) -> int:
        return getattr(self._board, name)[self._row]

    def set(self: TaskRecord, value: int) -> None:
        getattr(self._board, name)[self._row] = value

    return property(get, set)


class TaskRecord:
    """Lifecycle timestamps (ps) of one task through the machine.

    A row view over a :class:`Scoreboard`: reads and writes go straight
    to the board's columns.  ``TaskRecord(tid)`` on its own is a
    one-row record with every field unset (``-1``).

    ``submitted``: master finished sending the TD;
    ``stored``: Write TP placed it in the Task Pool;
    ``ready``: its ID entered the Global Ready Tasks list;
    ``dispatched``: Schedule assigned it to a worker core;
    ``fetch_start``/``exec_start``/``exec_end``/``writeback_end``: the Task
    Controller pipeline stages;
    ``completed``: Handle Finished retired it and updated the task graph.

    ``released_by`` is not a timestamp: it names the finished task whose
    dependence resolution made this one ready (-1 for tasks that were
    ready straight out of the dependence check).  The chain of
    ``released_by`` links is what the dispatch-latency attribution walks
    to decompose per-hop chain latency.
    """

    __slots__ = ("tid", "_board", "_row")

    def __init__(self, tid: int):
        self.tid = tid
        self._board = Scoreboard(1)
        self._row = 0

    @classmethod
    def _view(cls, board: Scoreboard, tid: int) -> TaskRecord:
        record = cls.__new__(cls)
        record.tid = tid
        record._board = board
        record._row = tid
        return record

    def is_complete(self) -> bool:
        return self.completed != _UNSET

    def check_monotone(self) -> List[str]:
        """Lifecycle timestamps must be non-decreasing; returns violations."""
        return stage_problems(self.tid, [getattr(self, n) for n in STAGES])

    def _key(self) -> tuple:
        return (self.tid,) + tuple(getattr(self, n) for n in FIELDS)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskRecord):
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None  # mutable, so unhashable

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)}" for n in FIELDS)
        return f"TaskRecord(tid={self.tid}, {fields})"


for _name in FIELDS:
    setattr(TaskRecord, _name, _column_property(_name))
del _name


class TaskRecords(Sequence):
    """A scoreboard's tasks as a sequence of :class:`TaskRecord` row views.

    Supports ``len``, iteration, (negative) indexing and slicing (a
    slice is a list of views).  ``board`` is the underlying
    :class:`Scoreboard`; bulk readers use its columns instead.
    """

    __slots__ = ("board",)

    def __init__(self, board: Scoreboard):
        self.board = board

    def __len__(self) -> int:
        return self.board.n_tasks

    def __getitem__(self, index):
        rows = range(self.board.n_tasks)[index]
        if isinstance(rows, range):
            return [TaskRecord._view(self.board, t) for t in rows]
        return TaskRecord._view(self.board, rows)

    def __iter__(self) -> Iterator[TaskRecord]:
        board = self.board
        return (TaskRecord._view(board, t) for t in range(board.n_tasks))
