"""StarSs-like programming frontend (the pragma layer of Listing 1): record
``@task`` calls, lower them to a trace, run their bodies in a given order."""

from .executor import ExecutionReport, execute
from .program import RecordedTask, StarSsProgram, TaskSpec

__all__ = ["StarSsProgram", "RecordedTask", "TaskSpec", "execute", "ExecutionReport"]
