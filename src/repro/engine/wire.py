"""JSON-safe serialization of scan configs and shard results.

The cluster subsystem (:mod:`repro.cluster`) ships shard descriptors to
remote workers and streams their :class:`~repro.engine.scan.ShardResult`\\ s
back over a length-prefixed JSON wire protocol, and the run ledger
(:mod:`repro.runtime.ledger`) journals the same payloads durably to
disk. Everything that crosses the wire or lands in a ledger round-trips
through the codecs in this module, and the round-trip is lossless: a
decoded shard result merges byte-identically to the in-process original
(``tests/cluster/test_protocol.py`` pins this).

Only plain JSON types ever cross the wire — no pickling — so a worker
can never execute anything the coordinator sends except the scan the
codecs describe, and vice versa.

Decoding is *strict*, and it happens once, where a payload enters the
program: each payload kind has one declarative field table (field →
JSON type and range), and :func:`check_fields` applies it. A payload
must be a JSON object whose key set is exact, and every value must have
its declared type (a ``bool`` is never an int; an int is a number) and
fall in its declared range. Anything else raises ``ValueError`` naming
the payload and the field, instead of producing a wrong merge or a
``TypeError`` later — the failure modes that matter once payloads
outlive the process that wrote them (resumed ledgers, mixed-version
fleets). The check never converts a value: an int ``scale`` stays an
int, so a decoded config digests as the payload did. The run ledger,
the scan service and the cluster coordinator check their own envelopes
with the same helper and re-raise its ``ValueError`` as their own error.

Optional fields (``optional=True`` in a table) are *omitted at their
default value* rather than encoded as nulls. That keeps every payload
written before the field existed decodable, and — because
:func:`config_digest` hashes the encoded dict — keeps the digests of
default-valued configs byte-identical across versions. A non-default
value (a non-paper pattern selection, an adversarial tail, a
family-labelled truth) encodes the field and therefore changes the
digest, which is exactly the identity contract: same digest ⇔ same scan
bytes.
"""

from __future__ import annotations

import hashlib
import json
import math

from ..chain.types import Address
from .scan import ShardResult

__all__ = [
    "WIRE_VERSION",
    "WIRE_VERSION_FIELD",
    "Field",
    "check_fields",
    "config_digest",
    "config_to_wire",
    "config_from_wire",
    "detection_to_wire",
    "detection_from_wire",
    "shard_result_to_wire",
    "shard_result_from_wire",
]

#: schema version stamped on every top-level payload. Bump whenever a
#: codec's field set changes; decoders reject anything else.
#: v2: configs carry ``split_attacks`` (cross-transaction split-attack
#: groups — identity-relevant, it changes the canonical schedule) and
#: ground truths carry ``split_group``. Still v2: configs may carry
#: ``adversarial`` and truths ``family``, both optional-at-default.
#: ``pattern_config`` is ``null`` for the paper defaults and otherwise
#: the namespaced pattern-settings object; the flat four-field object
#: older builds wrote still decodes, into the same settings. So v2
#: payloads written by older builds decode unchanged.
WIRE_VERSION = 2

#: each JSON type name: the Python classes ``json.loads`` produces for
#: it, and how an error message names it. ``any`` leaves the value to
#: the field's own decoder.
_TYPES = {
    "null": ((type(None),), "null"),
    "bool": ((bool,), "a bool"),
    "int": ((int,), "an int"),
    "number": ((int, float), "a number"),
    "string": ((str,), "a string"),
    "list": ((list,), "a list"),
    "object": ((dict,), "an object"),
    "any": ((object,), "anything"),
}


class Field:
    """One field of a payload table: its JSON types and, optionally, the
    range its value must fall in.

    ``types`` names the accepted JSON types, e.g. ``"int or null"``; a
    ``bool`` is accepted only where ``bool`` is named, and an int
    wherever ``number`` is. ``check`` is the range predicate, run on a
    well-typed non-null value; ``fails`` says what a value outside the
    range is, for the error. An ``optional`` field may be absent (it is
    omitted at its default).
    """

    __slots__ = ("expect", "check", "fails", "optional", "classes", "bools")

    def __init__(self, types: str, check=None, fails: str = "", *, optional: bool = False):
        names = types.split(" or ")
        self.expect = " or ".join(_TYPES[name][1] for name in names)
        self.check = check
        self.fails = fails
        self.optional = optional
        self.classes = tuple(cls for name in names for cls in _TYPES[name][0])
        self.bools = "bool" in names or "any" in names


def _brief(value) -> str:
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def check_fields(payload, table: dict, what: str) -> dict:
    """Check ``payload`` against a field ``table``; return it unchanged.

    Raises ``ValueError`` naming ``what`` unless ``payload`` is a JSON
    object holding every required field of ``table`` and no field
    outside it, each value of its declared type and in its range.
    """
    if not isinstance(payload, dict):
        raise ValueError(
            f"{what}: expected a JSON object, got {type(payload).__name__}"
        )
    for key, field in table.items():
        if key not in payload:
            continue
        value = payload[key]
        if not isinstance(value, field.classes) or (
            value.__class__ is bool and not field.bools
        ):
            raise ValueError(f"{what}: {key} must be {field.expect}, got {_brief(value)}")
        if field.check is not None and value is not None and not field.check(value):
            raise ValueError(f"{what}: {key}={_brief(value)} is {field.fails}")
    unknown = sorted(str(key) for key in payload if key not in table)
    if unknown:
        raise ValueError(f"{what}: unknown field(s) {unknown}")
    missing = [
        key for key, field in table.items() if not field.optional and key not in payload
    ]
    if missing:
        raise ValueError(f"{what}: missing field(s) {missing}")
    return payload


def _nonnegative(value) -> bool:
    return value >= 0


def _finite_positive(value) -> bool:
    return value > 0 and (isinstance(value, int) or math.isfinite(value))


def _is_address(value) -> bool:
    try:
        Address(value)
    except ValueError:
        return False
    return True


def _all_strings(values) -> bool:
    return all(isinstance(value, str) for value in values)


def _is_row(counts) -> bool:
    return (
        isinstance(counts, list)
        and len(counts) == 3
        and all(type(count) is int and count >= 0 for count in counts)
    )


def _rows_ok(rows) -> bool:
    from ..leishen.registry import default_registry

    keys = default_registry().keys()
    return all(name in keys and _is_row(counts) for name, counts in rows.items())


WIRE_VERSION_FIELD = Field(
    "int", lambda value: value == WIRE_VERSION,
    f"not wire version {WIRE_VERSION} (the wire schema version this build speaks)",
)
_NONNEGATIVE_INT = Field("int", _nonnegative, "negative")
_STRINGS = Field("list", _all_strings, "not a list of strings")
_ADDRESS = Field("string or null", _is_address, "not a 40-hex-digit address")

_CONFIG = {
    "v": WIRE_VERSION_FIELD,
    "scale": Field("number", _finite_positive, "not a finite number > 0"),
    "seed": Field("int"),
    "with_heuristic": Field("bool"),
    "keep_history": Field("bool"),
    "pattern_config": Field("any"),  # _pattern_config_from_wire checks it
    "shards": Field("int or null", lambda value: value >= 1, "below 1"),
    "split_attacks": _NONNEGATIVE_INT,
    "adversarial": Field("int", _nonnegative, "negative", optional=True),
}
#: the namespaced encoding of a ``PatternSettings`` — told apart from
#: the flat form older builds wrote by the ``enabled`` key, which the
#: flat form never carries. ``PatternSettings`` checks the contents.
_SETTINGS = {
    "enabled": Field("list"), "params": Field("object"), "registry": Field("int"),
}
#: the flat form: field -> (pattern key, parameter name)
_FLAT_SETTINGS = {
    "krp_min_buys": ("KRP", "min_buys"),
    "sbs_min_volatility": ("SBS", "min_volatility"),
    "sbs_amount_tolerance": ("SBS", "amount_tolerance"),
    "mbs_min_rounds": ("MBS", "min_rounds"),
}
_FLAT_SETTINGS_TABLE = {field: Field("number") for field in _FLAT_SETTINGS}
_TRUTH = {
    "is_attack": Field("bool"),
    "profile": Field("string"),
    "net_profit": Field("bool"),
    "source_disclosed": Field("bool"),
    "aggregator_initiated": Field("bool"),
    "attacked_app": Field("string or null"),
    "attacker": _ADDRESS,
    "attack_contract": _ADDRESS,
    "asset": Field("string or null"),
    "month": Field("int or null"),
    "patterns": _STRINGS,
    "known": Field("bool"),
    "split_group": Field("int or null"),
    "family": Field("string", optional=True),
}
_DETECTION = {
    "tx_hash": Field("string"),
    "patterns": _STRINGS,
    "truth": Field("object"),
    "profit_usd": Field("number"),
    "borrowed_usd": Field("number"),
}
_SHARD_RESULT = {
    "v": WIRE_VERSION_FIELD,
    "shard_index": _NONNEGATIVE_INT,
    "total_transactions": _NONNEGATIVE_INT,
    "detections": Field("list"),
    "row_counts": Field(
        "object", _rows_ok, "not a map of pattern key to three ints >= 0"
    ),
}


def _pattern_config_to_wire(settings):
    """``null`` for the paper defaults, else the namespaced object: the
    enabled keys, the per-pattern params and the registry version."""
    from ..leishen.registry import PAPER_PATTERN_KEYS, REGISTRY_VERSION

    if settings.enabled == PAPER_PATTERN_KEYS and not settings.params:
        return None
    return {
        "enabled": list(settings.enabled),
        "params": {key: dict(values) for key, values in settings.params},
        "registry": REGISTRY_VERSION,
    }


def _pattern_config_from_wire(payload):
    """Decode any pattern-config form ever written into ``PatternSettings``:
    ``null``, the namespaced object, or the flat four-field object of the
    paper's three patterns."""
    from ..leishen.registry import REGISTRY_VERSION, PatternSettings

    if payload is None:
        return PatternSettings()
    if isinstance(payload, dict) and "enabled" in payload:
        check_fields(payload, _SETTINGS, "pattern config")
        version = payload["registry"]
        if version != REGISTRY_VERSION:
            raise ValueError(
                f"pattern config: registry version mismatch — payload says "
                f"{version!r}, this build's registry is v{REGISTRY_VERSION}"
            )
        return PatternSettings(enabled=payload["enabled"], params=payload["params"])
    check_fields(payload, _FLAT_SETTINGS_TABLE, "pattern config")
    params: dict[str, dict] = {}
    for field, (key, name) in _FLAT_SETTINGS.items():
        params.setdefault(key, {})[name] = payload[field]
    return PatternSettings(params=params)


def config_to_wire(config) -> dict:
    """Encode a ``WildScanConfig`` as a JSON-safe dict.

    ``jobs`` is deliberately dropped: it is an execution knob of the
    *local* engine and must never leak into a worker's identity-relevant
    inputs (a cluster worker always executes its shard sequentially).
    """
    payload = {
        "v": WIRE_VERSION,
        "scale": config.scale,
        "seed": config.seed,
        "with_heuristic": config.with_heuristic,
        "keep_history": config.keep_history,
        "pattern_config": _pattern_config_to_wire(config.pattern_config),
        "shards": config.shards,
        "split_attacks": config.split_attacks,
    }
    adversarial = getattr(config, "adversarial", 0)
    if adversarial:
        payload["adversarial"] = adversarial
    return payload


def config_from_wire(payload: dict):
    """Decode :func:`config_to_wire` output back into a ``WildScanConfig``."""
    from ..workload.generator import WildScanConfig

    check_fields(payload, _CONFIG, "scan config")
    return WildScanConfig(
        scale=payload["scale"],
        seed=payload["seed"],
        with_heuristic=payload["with_heuristic"],
        keep_history=payload["keep_history"],
        pattern_config=_pattern_config_from_wire(payload["pattern_config"]),
        jobs=1,
        shards=payload["shards"],
        split_attacks=payload["split_attacks"],
        adversarial=payload.get("adversarial", 0),
    )


def config_digest(config) -> str:
    """Stable content digest of a scan config's identity-relevant fields.

    SHA-256 over the canonical JSON of :func:`config_to_wire`. Every
    spelling of one pattern selection builds the same canonical
    ``PatternSettings``, so two configs digest equal exactly when they
    describe the same scan. The run ledger records this in its header
    and refuses to resume under a different config — silently merging
    shards from a different scan is the one corruption a journal must
    make impossible.
    """
    blob = json.dumps(config_to_wire(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _truth_to_wire(truth) -> dict:
    payload = {
        "is_attack": truth.is_attack,
        "profile": truth.profile,
        "net_profit": truth.net_profit,
        "source_disclosed": truth.source_disclosed,
        "aggregator_initiated": truth.aggregator_initiated,
        "attacked_app": truth.attacked_app,
        "attacker": truth.attacker,
        "attack_contract": truth.attack_contract,
        "asset": truth.asset,
        "month": truth.month,
        "patterns": list(truth.patterns),
        "known": truth.known,
        "split_group": truth.split_group,
    }
    if truth.family is not None:
        payload["family"] = truth.family
    return payload


def _truth_from_wire(payload: dict):
    from ..workload.profiles import GroundTruth

    check_fields(payload, _TRUTH, "ground truth")

    def address(value):
        return Address(value) if value is not None else None

    return GroundTruth(
        is_attack=payload["is_attack"],
        profile=payload["profile"],
        net_profit=payload["net_profit"],
        source_disclosed=payload["source_disclosed"],
        aggregator_initiated=payload["aggregator_initiated"],
        attacked_app=payload["attacked_app"],
        attacker=address(payload["attacker"]),
        attack_contract=address(payload["attack_contract"]),
        asset=payload["asset"],
        month=payload["month"],
        patterns=tuple(payload["patterns"]),
        known=payload["known"],
        split_group=payload["split_group"],
        family=payload.get("family"),
    )


def detection_to_wire(detection) -> dict:
    return {
        "tx_hash": detection.tx_hash,
        "patterns": list(detection.patterns),
        "truth": _truth_to_wire(detection.truth),
        "profit_usd": detection.profit_usd,
        "borrowed_usd": detection.borrowed_usd,
    }


def detection_from_wire(payload: dict):
    from ..workload.generator import Detection

    check_fields(payload, _DETECTION, "detection")
    return Detection(
        tx_hash=payload["tx_hash"],
        patterns=tuple(payload["patterns"]),
        truth=_truth_from_wire(payload["truth"]),
        profit_usd=payload["profit_usd"],
        borrowed_usd=payload["borrowed_usd"],
    )


def shard_result_to_wire(result: ShardResult) -> dict:
    return {
        "v": WIRE_VERSION,
        "shard_index": result.shard_index,
        "total_transactions": result.total_transactions,
        "detections": [detection_to_wire(d) for d in result.detections],
        "row_counts": {
            name: list(counts) for name, counts in result.row_counts.items()
        },
    }


def shard_result_from_wire(payload: dict, *, shard=None, enabled=None) -> ShardResult:
    """Decode :func:`shard_result_to_wire` output into a ``ShardResult``.

    ``shard`` and ``enabled``, when given, bind the result to one run
    (what the run ledger and the coordinator check before a result may
    reach the merge): its ``shard_index`` must equal ``shard``, and its
    rows may name only the ``enabled`` pattern keys.
    """
    check_fields(payload, _SHARD_RESULT, "shard result")
    if shard is not None and payload["shard_index"] != shard:
        raise ValueError(
            f"shard result: shard_index={payload['shard_index']} is not shard {shard}"
        )
    rows = payload["row_counts"]
    if enabled is not None and not set(rows) <= set(enabled):
        raise ValueError(
            f"shard result: row_counts name pattern(s) "
            f"{sorted(set(rows) - set(enabled))} this run does not enable"
        )
    return ShardResult(
        shard_index=payload["shard_index"],
        total_transactions=payload["total_transactions"],
        detections=[detection_from_wire(d) for d in payload["detections"]],
        row_counts={name: list(counts) for name, counts in rows.items()},
    )
