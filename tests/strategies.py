"""Hypothesis strategies shared by the property tests.

``tests/`` is on ``sys.path`` because pytest imports ``tests/conftest.py``
from there, so test modules in any subdirectory can
``from strategies import traces``.
"""

from hypothesis import strategies as st

from repro.traces import AccessMode, Param, TaskTrace, TraceTask

_MODES = [AccessMode.IN, AccessMode.OUT, AccessMode.INOUT]


@st.composite
def traces(draw, max_tasks=24, max_addresses=6, max_params=4):
    """Random traces over a small shared address pool (dense RAW/WAR/WAW
    interaction)."""
    n_tasks = draw(st.integers(1, max_tasks))
    n_addr = draw(st.integers(1, max_addresses))
    tasks = []
    for tid in range(n_tasks):
        k = draw(st.integers(1, min(max_params, n_addr)))
        addr_ids = draw(
            st.lists(
                st.integers(0, n_addr - 1), min_size=k, max_size=k, unique=True
            )
        )
        params = tuple(
            Param(0x1000 + a * 256, 256, draw(st.sampled_from(_MODES)))
            for a in addr_ids
        )
        exec_time = draw(st.integers(1, 5000))
        tasks.append(TraceTask(tid, 7, params, exec_time, 0, 0))
    return TaskTrace("hypo", tasks)
