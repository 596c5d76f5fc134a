"""Service layer: async multi-session API over shared compute and storage.

The top of the GridMind stack (ROADMAP: async session server, shared
process-pool lifecycle, cross-session result store):

* :mod:`repro.service.api` — typed request/response envelopes
  (``AskRequest``/``AskReply``/``StudyReply``/``WatchReply``, plus the
  re-exported ``StudyRequest`` and ``WatchRequest`` every front end
  builds) and order-independent per-session seed derivation,
* :class:`StudyExecutor` (from :mod:`repro.scenarios.executor`) — one
  long-lived process pool shared by every batch study,
* :mod:`repro.service.store` — :class:`ResultStore`, content-addressed
  on-disk persistence of full per-scenario result sets,
* :mod:`repro.service.service` — :class:`GridMindService`, the asyncio
  façade that serialises turns per session while running sessions
  concurrently.

Quickstart::

    import asyncio
    from repro.service import GridMindService

    async def main():
        async with GridMindService(store_dir="studies") as svc:
            a, b = await asyncio.gather(
                svc.ask("alice", "Solve the IEEE 14 bus case"),
                svc.ask("bob", "Solve the IEEE 30 bus case"),
            )
            print(a.text, b.text, sep="\\n")

    asyncio.run(main())
"""

from ..scenarios.executor import StudyExecutor
from .api import (
    AskReply,
    AskRequest,
    SessionInfo,
    StudyReply,
    StudyRequest,
    WatchReply,
    WatchUpdate,
    derive_session_seed,
    thin_progress,
)
from .service import GridMindService, ServiceClosed, SessionNotFound
from .store import ResultStore, StoredStudyMeta, StudyNotFound


def __getattr__(name: str):
    # WatchRequest lives beside run_watch.  Resolving it on first use keeps
    # the telemetry layer out of service processes, and the pool workers
    # they fork, that never watch a feed.
    if name == "WatchRequest":
        from ..telemetry.watch import WatchRequest

        return WatchRequest
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AskReply",
    "AskRequest",
    "GridMindService",
    "ResultStore",
    "ServiceClosed",
    "SessionInfo",
    "SessionNotFound",
    "StoredStudyMeta",
    "StudyExecutor",
    "StudyNotFound",
    "StudyReply",
    "StudyRequest",
    "WatchReply",
    "WatchRequest",
    "WatchUpdate",
    "derive_session_seed",
    "thin_progress",
]
