"""The canonical bytes of a merged scan result.

Every backend (batch, stream, windowed stream, cluster, service) and
every resume path must produce a byte-identical result; this is what
their identity tests compare. It covers the total, every detection's
full wire form (patterns, truth, profit and borrowed USD) and the
Table V rows.
"""

from __future__ import annotations

import json

from repro.engine.wire import detection_to_wire


def fingerprint(result) -> str:
    """Canonical bytes of a merged result (what byte-identity means)."""
    return json.dumps(
        {
            "total_transactions": result.total_transactions,
            "detections": [detection_to_wire(d) for d in result.detections],
            "rows": {
                name: (row.n, row.tp, row.fp)
                for name, row in sorted(result.rows.items())
            },
        },
        sort_keys=True,
    )
