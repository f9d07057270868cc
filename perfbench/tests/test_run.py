"""The run leaves no process behind."""

import multiprocessing
import os
import time
from multiprocessing import resource_tracker

import pytest

from run import stop_child_processes


def test_stop_child_processes_reaps_shards_and_the_resource_tracker():
    # A spawn-context child, as a cluster shard is, also starts the
    # resource tracker, which would otherwise outlive the run.
    child = multiprocessing.get_context("spawn").Process(
        target=time.sleep, args=(60,), daemon=True
    )
    child.start()
    tracker_pid = resource_tracker._resource_tracker._pid
    assert tracker_pid is not None

    stop_child_processes()

    assert not child.is_alive()
    assert multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ChildProcessError):
        os.waitpid(tracker_pid, os.WNOHANG)
