"""Long-lived multi-tenant scan service over the ledger tier.

The batch, stream and cluster engines each answer one scan and exit.
This package keeps the batch engine resident: a :class:`ScanService`
owns an admission-controlled run queue (duplicate configs coalesce onto
one run), per-run :class:`~repro.runtime.RunLedger` journals under a
data directory — so results survive restarts and are served *from the
ledger*, never by re-scanning — and a results cache of decoded merges.
A framed-JSON TCP server/client pair (:class:`ServiceServer` /
:class:`ServiceClient`) makes the whole thing reachable from other
processes, reusing the cluster tier's wire protocol.

See ``README.md`` ("Running as a service") and
``repro.experiments.service`` for the CLI front
(``leishen serve | submit | status | results``).
"""

from .cache import TTLCache
from .client import PaginationError, ServiceClient
from .registry import RUN_STATES, RunRecord, RunRegistry, run_id_for
from .server import SERVICE_PROTOCOL_VERSION, ServerStopping, ServiceServer
from .service import AdmissionError, ScanService, ServiceError, UnknownRunError

__all__ = [
    "AdmissionError",
    "PaginationError",
    "RUN_STATES",
    "RunRecord",
    "RunRegistry",
    "SERVICE_PROTOCOL_VERSION",
    "ScanService",
    "ServerStopping",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "TTLCache",
    "UnknownRunError",
    "run_id_for",
]
