import errno
import os

import pytest

from wafersense import host


def test_forked_closes_its_pipe_when_the_fork_fails(monkeypatch):
    opened, pipe = [], os.pipe

    def recording_pipe():
        fds = pipe()
        opened.extend(fds)
        return fds

    def failing_fork():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "pipe", recording_pipe)
    monkeypatch.setattr(os, "fork", failing_fork)
    with pytest.raises(OSError) as raised:
        with host.forked(abs, -1):
            pytest.fail("the block ran with no process forked")
    assert raised.value.errno == errno.EAGAIN and len(opened) == 2
    for fd in opened:
        with pytest.raises(OSError) as closed:
            os.fstat(fd)
        assert closed.value.errno == errno.EBADF
