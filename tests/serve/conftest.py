"""Shared serving-plane fixtures: one in-process server per module."""

import pytest

from repro.grid import GridConfig
from repro.serve import ServeConfig
from repro.serve.client import ServeClient, wait_ready
from tests.serve.server_thread import start_server_thread


@pytest.fixture(scope="module")
def server():
    """A live server on an ephemeral port over a small telemetry-on grid."""
    handle = start_server_thread(ServeConfig(
        port=0,
        seed=0,
        grid=GridConfig(n_peers=120, telemetry=True),
    ))
    wait_ready(handle.host, handle.port)
    yield handle
    handle.stop()


@pytest.fixture()
def client(server):
    with ServeClient(server.host, server.port) as c:
        yield c
