import os

import pytest

from qbernstein import verify


@pytest.fixture
def stub_suites(monkeypatch):
    """``stub_suites(workers, in_parent=None, in_child=None)`` replaces every
    suite by one passing check ``<suite>.stub`` whose params carry the pid of
    the process that ran it, and runs the verifier with ``workers`` workers.

    ``in_parent(name)`` runs before the check when this process takes the
    suite, ``in_child(name)`` when a forked worker takes it.  With more than
    one worker, the first suite each process takes waits, through pipes,
    until this process and a child have both started one, so each side takes
    at least one suite from the queue."""
    opened = []

    def stub(workers, in_parent=None, in_child=None):
        parent = os.getpid()
        parent_r, parent_w = os.pipe()
        child_r, child_w = os.pipe()
        opened.extend((parent_r, parent_w, child_r, child_w))
        started = []  # per process: a forked child starts with it empty
        monkeypatch.setattr(verify, "_cpu_count", lambda: workers)
        for name in verify.SUITES:

            def suite(cfg, name=name):
                in_parent_process = os.getpid() == parent
                if workers > 1 and not started:
                    started.append(name)
                    if in_parent_process:
                        os.write(parent_w, bytes(workers - 1))  # one for each child
                        os.read(child_r, 1)
                    else:
                        os.write(child_w, b".")
                        os.read(parent_r, 1)
                action = in_parent if in_parent_process else in_child
                if action:
                    action(name)
                yield f"{name}.stub", {"q": cfg.qs[0], "pid": os.getpid()}, 1, 1

            monkeypatch.setitem(verify._SUITE_FUNCS, name, suite)

    yield stub
    for fd in opened:
        os.close(fd)
