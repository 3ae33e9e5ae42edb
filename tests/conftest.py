"""Shared fixtures: generated datasets reused across the suite, a guard
against object-server connection threads a test leaves running, and a check
of an HTTP backend's connection pool."""

from __future__ import annotations

import threading
import time

import pytest

from loadbench.dataset import DatasetSpec, generate_random_dataset

# small grid used by most unit tests: 3 shards in train, multi-class
TINY_SPEC = DatasetSpec(n_train=48, n_val=12, n_test=8, width=8, height=6,
                        channels=3, n_classes=4, seed=11)

# the desk-scale acceptance dataset
SMALL_SPEC = DatasetSpec(n_train=2000, n_val=200, n_test=100, width=64,
                         height=64, channels=3, n_classes=20, seed=7)


@pytest.fixture(autouse=True)
def no_connection_thread_left():
    """Fail a test if an object-server connection thread it started is still
    running 2 s after it ends: the thread counterpart of the
    ``error::ResourceWarning`` filter."""
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + 2.0
    left = []
    for thread in set(threading.enumerate()) - before:
        if thread.name == "loadbench-store-conn":
            thread.join(max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                left.append(thread)
    if left:
        pytest.fail(f"{len(left)} object-server connection threads left running")


@pytest.fixture(scope="session")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny-data")
    manifests = generate_random_dataset(TINY_SPEC, root, shard_capacity=16)
    return root, manifests


@pytest.fixture(scope="session")
def random_small(tmp_path_factory):
    root = tmp_path_factory.mktemp("random-small")
    manifests = generate_random_dataset(SMALL_SPEC, root, shard_capacity=500)
    return root, manifests


def assert_pool_at_rest(backend) -> None:
    """Every connection ``backend``, an ``HTTPBackend``, counts as open is
    idle, and no call waits in its pool's queue."""
    assert backend._opened == len(backend._idle)
    assert not backend._queue
