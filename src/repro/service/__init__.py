"""Service layer: async multi-session API over shared compute and storage.

The top of the GridMind stack (ROADMAP: async session server, shared
process-pool lifecycle, cross-session result store):

* :mod:`repro.service.api` — typed request/response envelopes
  (``AskRequest``/``AskReply``/``StudyRequest``/``StudyReply``) plus
  order-independent per-session seed derivation,
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
    STUDY_KINDS,
    AskReply,
    AskRequest,
    SessionInfo,
    StudyReply,
    StudyRequest,
    WatchReply,
    WatchRequest,
    WatchUpdate,
    derive_session_seed,
    thin_progress,
)
from .service import GridMindService, ServiceClosed, SessionNotFound
from .store import ResultStore, StoredStudyMeta, StudyNotFound

__all__ = [
    "STUDY_KINDS",
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
