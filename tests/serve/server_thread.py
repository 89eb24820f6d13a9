"""An in-process ``repro serve`` on a background thread, for the serve tests.

Boots the same :class:`~repro.serve.core.ServeServer` the ``repro serve``
command runs, with the same GC tuning, but on a daemon thread of the
test process, so a test can drive it over real TCP and then read the
runtime's state directly.
"""

from __future__ import annotations

import asyncio
import threading
from typing import List

from repro.serve.core import GridRuntime, ServeConfig, ServeServer, tune_gc_for_serving

__all__ = ["ServerHandle", "start_server_thread"]


class ServerHandle:
    """An in-process server running on a background thread.

    The asyncio loop lives on its own daemon thread, clients talk real
    TCP from the calling thread, and :meth:`stop` shuts everything down
    and exports telemetry.
    """

    def __init__(
        self,
        runtime: GridRuntime,
        server: ServeServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self.runtime = runtime
        self.server = server
        self._loop = loop
        self._thread = thread
        self.host, self.port = server.address

    def stop(self) -> int:
        """Stop the loop, join the thread, export telemetry (line count)."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=30)
        return self.runtime.export_telemetry()


def start_server_thread(config: ServeConfig) -> ServerHandle:
    """Boot a server on a daemon thread; returns once it accepts TCP."""
    tune_gc_for_serving()
    runtime = GridRuntime(config)
    server = ServeServer(runtime, config.host, config.port)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    failure: List[BaseException] = []

    def _run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # pragma: no cover - startup failure
            failure.append(exc)
            started.set()
            loop.close()
            return
        started.set()
        try:
            loop.run_forever()
            loop.run_until_complete(server.stop())
        finally:
            loop.close()

    thread = threading.Thread(target=_run, name="repro-serve", daemon=True)
    thread.start()
    if not started.wait(timeout=60):  # pragma: no cover - hung startup
        raise RuntimeError("serve thread did not start within 60s")
    if failure:
        raise RuntimeError(f"serve thread failed to start: {failure[0]!r}")
    return ServerHandle(runtime, server, loop, thread)
