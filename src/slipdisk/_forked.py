"""Run a zero-argument callable in a forked child process.

The interpreter lock serialises numpy's calls on the package's 32^2-64^2
arrays, so a second thread buys nothing; a second process has its own
lock. The child is forked, so the callable and everything it reaches are
inherited, never pickled; only the return value, or the exception the
callable raised, travels back through a one-way pipe. A spawned child
would import numpy afresh and pickle its inputs, which costs more than
the work split here.
"""

from __future__ import annotations

import multiprocessing


def _child(fn, send) -> None:
    try:
        out = (True, fn())
    except Exception as err:  # every failure is the parent's to raise
        out = (False, err)
    send.send(out)


class ForkedCall:
    """fn() running in a forked child from construction on.

    result() returns fn's value or raises its exception, type and fields
    kept (an exception pickles through its __reduce__); a child that ends
    without sending either raises a RuntimeError naming its exit code.
    stop() kills and joins a child that is no longer wanted. Used as a
    context manager, stop() runs on leaving the block, so no child
    outlives the call that started it. Where fork is not a start method,
    fn runs in the calling process when result() is called.
    """

    def __init__(self, fn):
        self._fn = fn
        self._process = None
        if "fork" in multiprocessing.get_all_start_methods():
            ctx = multiprocessing.get_context("fork")
            self._recv, send = ctx.Pipe(duplex=False)
            self._process = ctx.Process(target=_child, args=(fn, send), daemon=True)
            self._process.start()
            # The parent's copy of the send end is closed, so that a child
            # that dies without sending leaves the pipe at end of file.
            send.close()

    def result(self):
        if self._process is None:
            return self._fn()
        # Receive before joining: a child blocked on sending a large value
        # would never exit for a parent that joins first.
        try:
            ok, value = self._recv.recv()
        except EOFError:
            self._process.join()
            raise RuntimeError(f"forked child exited with code "
                               f"{self._process.exitcode} before sending a result") from None
        self._process.join()
        if ok:
            return value
        raise value

    def stop(self) -> None:
        if self._process is not None:
            # SIGKILL, not SIGTERM: the child inherited the parent's signal
            # handlers, and it holds nothing that needs a clean exit.
            self._process.kill()
            self._process.join()
            self._recv.close()

    def __enter__(self) -> ForkedCall:
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
