"""Benchmark operations and their checked outcomes."""

import time


class Op:
    """One user-level operation.

    `run(tracer)` does the work and returns its output; `check(output)`
    returns None when the output is right, else the reason it is wrong.
    `defect` names the failure a known defect of the program causes on this
    input ("ResourceCap" or "wrong-answer"); such a failure still counts as
    failed, but does not make the run incorrect.
    """

    __slots__ = ("kind", "run", "check", "defect")

    def __init__(self, kind, run, check, defect=None):
        self.kind = kind
        self.run = run
        self.check = check
        self.defect = defect


class Record:
    """The outcome of one executed Op. `verify()` runs the check and then
    drops the output and the op, so a run's memory does not grow with the
    number of records kept."""

    __slots__ = ("op", "kind", "defect", "result", "error", "seconds",
                 "failure", "reason")

    def __init__(self, op, result, error, seconds):
        self.op = op
        self.kind = op.kind
        self.defect = op.defect
        self.result = result
        self.error = error
        self.seconds = seconds
        self.failure = None
        self.reason = None

    def verify(self):
        """Classify the outcome: None, an exception name, "wrong-answer", or
        "check-error" when the check itself raised."""
        if self.error is not None:
            self.failure, self.reason = self.error
        else:
            try:
                self.reason = self.op.check(self.result)
            except Exception as exc:  # a crash while checking is a failed op
                self.failure, self.reason = "check-error", repr(exc)
            else:
                if self.reason is not None:
                    self.failure = "wrong-answer"
        self.op = self.result = None


def execute(op, tracer):
    t = time.perf_counter()
    try:
        result, error = op.run(tracer), None
    except Exception as exc:  # any exception is a failed op, never a crash
        # keep only its name and message: the traceback pins the op's frames
        result, error = None, (type(exc).__name__, str(exc))
    return Record(op, result, error, time.perf_counter() - t)
