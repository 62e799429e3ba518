"""Pattern-registry identity: digests, wire round-trips, compatibility.

The enabled-pattern set and every per-pattern threshold are part of a
scan's identity: two runs that would match different patterns must never
share a ``config_digest`` (the run ledger and the scan service both key
on it). Conversely every spelling of one selection must share a digest,
and the *default* selection must digest byte-identically to what older
builds wrote, or every existing ledger and artifact would be orphaned by
a refactor that changed no behaviour.
"""

from __future__ import annotations

import pytest

from repro.engine.wire import (
    config_digest,
    config_from_wire,
    config_to_wire,
    detection_from_wire,
    detection_to_wire,
)
from repro.leishen.registry import ALL_PATTERN_KEYS, PatternSettings
from repro.workload.generator import Detection, WildScanConfig
from repro.workload.profiles import GroundTruth

#: the digest of the all-defaults config, pinned across PRs: a refactor
#: that shifts it silently orphans every ledger written before it.
DEFAULT_DIGEST = "de714eea7fd338ee534d3797436ab318f3e52654ba3bb252912d145abb05ed03"

#: same pin for the scale-0.01, seed-7 config that the wild-scan tests
#: and the timing budgets run.
BENCH_DIGEST = "cb02b363f73eaf3f0d1fed8946fedc76a279af943e8d60b41d0256f70869254a"

#: the default config with all six plugins enabled, as older builds
#: digested it.
ALL_PATTERNS_DIGEST = "4a6a4403e5636614b6c4076b7a21a8b330ff4a023f9abb61e6df76a1795a2d86"

#: the flat pattern config older builds wrote, at the paper's thresholds
#: (older builds digested the default config with it as
#: ``c2f246a888b8226e…``).
FLAT = {"krp_min_buys": 5, "sbs_min_volatility": 0.28,
        "sbs_amount_tolerance": 0.001, "mbs_min_rounds": 3}


def with_pattern_config(pattern_config) -> dict:
    """The default config's wire payload with ``pattern_config`` swapped in."""
    return {**config_to_wire(WildScanConfig()), "pattern_config": pattern_config}


class TestDigestPins:
    def test_default_config_digest_is_stable(self):
        assert config_digest(WildScanConfig()) == DEFAULT_DIGEST

    def test_bench_config_digest_is_stable(self):
        assert config_digest(WildScanConfig(scale=0.01, seed=7)) == BENCH_DIGEST

    def test_jobs_is_not_identity(self):
        assert config_digest(WildScanConfig(jobs=8)) == DEFAULT_DIGEST


class TestDigestSensitivity:
    def test_enabled_set_changes_digest(self):
        base = WildScanConfig(pattern_config=PatternSettings())
        widened = WildScanConfig(
            pattern_config=PatternSettings(enabled=ALL_PATTERN_KEYS)
        )
        assert config_digest(base) != config_digest(widened)

    def test_threshold_changes_digest(self):
        base = WildScanConfig(pattern_config=PatternSettings())
        tuned = WildScanConfig(
            pattern_config=PatternSettings.make(
                params={"KRP": {"min_buys": 6}}
            )
        )
        assert config_digest(base) != config_digest(tuned)

    def test_legacy_threshold_changes_digest(self):
        base = config_from_wire(with_pattern_config(FLAT))
        tuned = config_from_wire(with_pattern_config({**FLAT, "krp_min_buys": 6}))
        assert config_digest(base) != config_digest(tuned)

    def test_registry_version_mismatch_is_refused(self):
        payload = config_to_wire(
            WildScanConfig(pattern_config=PatternSettings(enabled=ALL_PATTERN_KEYS))
        )
        assert payload["pattern_config"]["registry"] == 1
        payload["pattern_config"]["registry"] = 99
        with pytest.raises(ValueError, match="payload says 99, this build's registry is v1"):
            config_from_wire(payload)

    def test_adversarial_tail_changes_digest(self):
        assert config_digest(WildScanConfig(adversarial=3)) != DEFAULT_DIGEST


class TestWireRoundTrips:
    def test_settings_round_trip(self):
        settings = PatternSettings.make(
            enabled=("KRP", "SANDWICH"),
            params={"KRP": {"min_buys": 7}, "SANDWICH": {"amount_tolerance": 0.02}},
        )
        config = WildScanConfig(pattern_config=settings, adversarial=4)
        decoded = config_from_wire(config_to_wire(config))
        assert decoded.pattern_config == settings
        assert decoded.adversarial == 4

    def test_legacy_flat_config_round_trip(self):
        decoded = config_from_wire(with_pattern_config({**FLAT, "krp_min_buys": 6}))
        assert decoded.pattern_config == PatternSettings.make(params={"KRP": {"min_buys": 6}})
        assert config_from_wire(config_to_wire(decoded)) == decoded

    def test_default_payload_omits_optional_fields(self):
        payload = config_to_wire(WildScanConfig())
        assert "adversarial" not in payload
        truth = detection_to_wire(
            Detection(tx_hash="0x1", patterns=("KRP",), truth=GroundTruth(is_attack=False, profile="benign"))
        )["truth"]
        assert "family" not in truth

    def test_truth_family_round_trips(self):
        detection = Detection(
            tx_hash="0x2",
            patterns=("SANDWICH",),
            truth=GroundTruth(is_attack=True, profile="sandwich", family="SANDWICH"),
        )
        decoded = detection_from_wire(detection_to_wire(detection))
        assert decoded.truth.family == "SANDWICH"

    def test_settings_payload_with_unknown_field_rejected(self):
        payload = config_to_wire(
            WildScanConfig(pattern_config=PatternSettings(enabled=ALL_PATTERN_KEYS))
        )
        payload["pattern_config"]["surprise"] = 1
        with pytest.raises(ValueError, match="unknown field"):
            config_from_wire(payload)


class TestOneDigestPerScan:
    """Every spelling of one pattern selection is one scan identity."""

    def test_paper_default_spellings_share_the_default_digest(self):
        paper = {"KRP": {"min_buys": 5},
                 "SBS": {"min_volatility": 0.28, "amount_tolerance": 0.001},
                 "MBS": {"min_rounds": 3}}
        spellings = [
            WildScanConfig(),
            WildScanConfig(pattern_config=PatternSettings()),
            WildScanConfig(pattern_config=PatternSettings.make(params=paper)),
            WildScanConfig(
                pattern_config=PatternSettings.make(params={"MINT": {"min_dumps": 9}})
            ),
            config_from_wire(with_pattern_config(FLAT)),
            config_from_wire(
                with_pattern_config({"enabled": ["KRP", "SBS", "MBS"],
                                     "params": paper, "registry": 1})
            ),
        ]
        assert [config_digest(config) for config in spellings] == [DEFAULT_DIGEST] * 6

    def test_all_patterns_digest_is_stable(self):
        config = WildScanConfig(pattern_config=PatternSettings(enabled=ALL_PATTERN_KEYS))
        assert config_digest(config) == ALL_PATTERNS_DIGEST
        spelled = PatternSettings.make(
            enabled=list(ALL_PATTERN_KEYS), params={"SANDWICH": {"amount_tolerance": 0.01}}
        )
        assert config_digest(WildScanConfig(pattern_config=spelled)) == ALL_PATTERNS_DIGEST

    @pytest.mark.parametrize(
        "pattern_config",
        [
            {"enabled": ["KRP", "SBS", "KRP"], "params": {}, "registry": 1},
            {"enabled": ["KRP", "NOPE"], "params": {}, "registry": 1},
            {"enabled": ["KRP"], "params": {"KRP": {"min_sells": 5}}, "registry": 1},
            {"enabled": ["KRP"], "params": {}, "registry": 99},
            {**FLAT, "krp_min_buys": "five"},
        ],
        ids=["duplicate-key", "unknown-key", "unknown-param", "registry-99", "flat-string"],
    )
    def test_non_canonical_spellings_are_refused(self, pattern_config):
        with pytest.raises(ValueError, match="pattern"):
            config_from_wire(with_pattern_config(pattern_config))
