"""Pattern registry: plugin set, settings normalization, the matcher seam."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.chain import Address
from repro.engine.wire import config_from_wire, config_to_wire
from repro.leishen import PatternMatcher, Trade, TradeKind
from repro.leishen.registry import (
    ALL_PATTERN_KEYS,
    PAPER_PATTERN_KEYS,
    PatternRegistry,
    PatternSettings,
    default_registry,
)
from repro.workload.generator import WildScanConfig

X = Address("0x" + "aa" * 20)
Q = Address("0x" + "bb" * 20)
BORROWER = "0xatk"


def buy(seq, amount_q, amount_x, buyer=BORROWER, seller="Pool"):
    return Trade(seq=seq, kind=TradeKind.SWAP, buyer=buyer, seller=seller,
                 amount_sell=amount_q, token_sell=Q, amount_buy=amount_x, token_buy=X)


def sell(seq, amount_x, amount_q, buyer=BORROWER, seller="Venue"):
    return Trade(seq=seq, kind=TradeKind.SWAP, buyer=buyer, seller=seller,
                 amount_sell=amount_x, token_sell=X, amount_buy=amount_q, token_buy=Q)


#: the flat pattern config older builds wrote, at the paper's thresholds
FLAT = {"krp_min_buys": 5, "sbs_min_volatility": 0.28,
        "sbs_amount_tolerance": 0.001, "mbs_min_rounds": 3}


def from_wire(pattern_config) -> PatternSettings:
    """Decode a pattern config through the scan-config wire codec."""
    payload = {**config_to_wire(WildScanConfig()), "pattern_config": pattern_config}
    return config_from_wire(payload).pattern_config


class TestDefaultRegistry:
    def test_ships_every_pattern_in_order(self):
        assert default_registry().keys() == ALL_PATTERN_KEYS

    def test_paper_keys_are_the_default_prefix(self):
        assert ALL_PATTERN_KEYS[:3] == PAPER_PATTERN_KEYS == ("KRP", "SBS", "MBS")

    def test_select_preserves_enabled_order(self):
        registry = default_registry()
        selected = registry.select(("MBS", "KRP"))
        assert tuple(p.key for p in selected) == ("MBS", "KRP")

    def test_unknown_key_is_loud(self):
        with pytest.raises(KeyError, match="unknown pattern key"):
            default_registry().get("NOPE")

    def test_duplicate_key_rejected(self):
        krp = default_registry().get("KRP")
        with pytest.raises(ValueError, match="duplicate pattern key"):
            PatternRegistry([krp, krp])


class TestPatternSettings:
    def test_none_normalizes_to_paper_defaults(self):
        settings = from_wire(None)
        assert settings == PatternSettings()
        assert settings.enabled == PAPER_PATTERN_KEYS
        assert settings.params == ()
        assert config_to_wire(WildScanConfig(pattern_config=settings))["pattern_config"] is None

    def test_settings_pass_through_unchanged(self):
        settings = PatternSettings(enabled=("KRP",))
        assert PatternMatcher(settings).settings is settings
        assert PatternSettings(settings.enabled, settings.params) == settings

    def test_legacy_flat_config_maps_field_for_field(self):
        settings = from_wire({**FLAT, "krp_min_buys": 6, "sbs_min_volatility": 0.5})
        assert settings.enabled == PAPER_PATTERN_KEYS
        assert settings.params == (("KRP", (("min_buys", 6),)),
                                   ("SBS", (("min_volatility", 0.5),)))

    def test_legacy_round_trips_through_settings(self):
        settings = from_wire({**FLAT, "krp_min_buys": 9, "mbs_min_rounds": 4})
        payload = config_to_wire(WildScanConfig(pattern_config=settings))["pattern_config"]
        assert payload == {"enabled": list(PAPER_PATTERN_KEYS), "registry": 1,
                           "params": {"KRP": {"min_buys": 9}, "MBS": {"min_rounds": 4}}}
        assert from_wire(payload) == settings
        assert from_wire(FLAT) == PatternSettings()

    def test_junk_value_rejected(self):
        with pytest.raises(ValueError, match="enabled must be a list"):
            PatternSettings(enabled=5)
        with pytest.raises(ValueError, match="params must be a mapping"):
            PatternSettings(params=[1])
        with pytest.raises(ValueError, match="expected a JSON object"):
            from_wire(5)

    def test_canonical_when_built(self):
        settings = PatternSettings.make(
            enabled=["MBS", "KRP"],
            params={"MBS": {"min_rounds": 3}, "KRP": {"min_buys": 4},
                    "SBS": {"min_volatility": 0.1}},
        )
        # order kept; default values and disabled groups dropped
        assert settings.enabled == ("MBS", "KRP")
        assert settings.params == (("KRP", (("min_buys", 4),)),)
        assert PatternSettings.make(params={"SBS": {"min_volatility": 1}}).params == (
            ("SBS", (("min_volatility", 1.0),)),
        )

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"enabled": ("KRP", "KRP")}, "enabled repeats"),
            ({"enabled": ("NOPE",)}, "enabled names unknown"),
            ({"enabled": "KRP"}, "enabled must be a list"),
            ({"params": {"NOPE": {"x": 1}}}, "params names unknown"),
            ({"params": {"KRP": {"min_sells": 5}}}, "params.KRP has no parameter"),
            ({"params": {"KRP": {"min_buys": "five"}}}, "params.KRP.min_buys"),
            ({"params": {"KRP": {"min_buys": 5.0}}}, "params.KRP.min_buys takes an int"),
            ({"params": {"KRP": {"min_buys": True}}}, "params.KRP.min_buys"),
            ({"params": {"SBS": {"min_volatility": float("nan")}}}, "must be finite"),
            ({"params": {"SBS": {"min_volatility": 10**400}}}, "must be finite"),
            ({"params": {"KRP": [("min_buys", 6)]}}, "params.KRP must be a mapping"),
            ({"params": (("KRP", ()), ("KRP", ()))}, "one entry per name"),
        ],
    )
    def test_bad_input_names_the_field(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            PatternSettings(**kwargs)

    def test_make_sorts_params_structurally(self):
        a = PatternSettings.make(params={"SBS": {"min_volatility": 0.5},
                                         "KRP": {"min_buys": 6}})
        b = PatternSettings.make(params={"KRP": {"min_buys": 6},
                                         "SBS": {"min_volatility": 0.5}})
        assert a == b and hash(a) == hash(b)

    def test_enabled_pattern_keys_for_every_flavour(self):
        for settings in (PatternSettings(), PatternSettings.make(),
                         from_wire(None), from_wire(FLAT)):
            assert settings.enabled == PAPER_PATTERN_KEYS
        custom = PatternSettings(enabled=("MINT", "KRP"))
        assert custom.enabled == ("MINT", "KRP")
        assert from_wire({"enabled": ["MINT", "KRP"], "params": {}, "registry": 1}) == custom


class TestMatcherSeam:
    def krp_series(self, n=6):
        trades = [buy(i, (100 + 10 * i) * 10, 10) for i in range(n)]
        trades.append(sell(n, 50, 5_000))
        return trades

    def test_default_matcher_runs_paper_patterns(self):
        matches = PatternMatcher().match(self.krp_series(), BORROWER)
        assert {m.pattern for m in matches} == {"KRP"}

    def test_disabled_pattern_never_fires(self):
        settings = PatternSettings(enabled=("SBS", "MBS"))
        assert PatternMatcher(settings).match(self.krp_series(), BORROWER) == []

    def test_threshold_override_via_namespaced_params(self):
        series = self.krp_series(n=4)  # four buys: below the paper's 5
        assert PatternMatcher().match(series, BORROWER) == []
        loose = PatternSettings.make(enabled=("KRP",), params={"KRP": {"min_buys": 4}})
        matches = PatternMatcher(loose).match(series, BORROWER)
        assert {m.pattern for m in matches} == {"KRP"}

    def test_legacy_flat_config_still_drives_thresholds(self):
        series = self.krp_series(n=4)
        settings = from_wire({**FLAT, "krp_min_buys": 4})
        matches = PatternMatcher(settings).match(series, BORROWER)
        assert {m.pattern for m in matches} == {"KRP"}


#: six target tokens, bought in this order
SIX_TOKENS = tuple(Address("0x" + byte * 20) for byte in ("aa", "bb", "cc", "dd", "ee", "ff"))
ROOT = Path(__file__).resolve().parents[2]


def six_token_matches() -> list:
    """Every plugin over a list where the borrower runs KRP on six
    tokens in turn, as ``[pattern, target token]`` in match order."""
    trades = []
    for token in SIX_TOKENS:
        for price in range(100, 106):
            trades.append(Trade(
                seq=len(trades), kind=TradeKind.SWAP, buyer=BORROWER, seller="Pool",
                amount_sell=price * 10, token_sell=Q, amount_buy=10, token_buy=token,
            ))
        trades.append(Trade(
            seq=len(trades), kind=TradeKind.SWAP, buyer=BORROWER, seller="Venue",
            amount_sell=60, token_sell=token, amount_buy=7_000, token_buy=Q,
        ))
    matcher = PatternMatcher(PatternSettings(enabled=ALL_PATTERN_KEYS))
    return [[m.pattern, str(m.target_token)] for m in matcher.match(trades, BORROWER)]


class TestMatchOrder:
    def test_match_order_ignores_the_hash_seed(self):
        """Plugins walk tokens in first-seen trade order, not a set's, so
        two interpreters with different hash seeds list the same matches
        in the same order."""
        path = os.pathsep.join([str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH", "")])
        script = (
            "import json\n"
            "from tests.leishen.test_registry import six_token_matches\n"
            "print(json.dumps(six_token_matches()))\n"
        )
        runs = []
        for seed in ("0", "1"):
            run = subprocess.run(
                [sys.executable, "-c", script], cwd=ROOT,
                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
                capture_output=True, text=True, timeout=120,
            )
            assert run.returncode == 0, run.stderr
            runs.append(json.loads(run.stdout))
        assert runs[0] == runs[1]
        krp = [token for pattern, token in runs[0] if pattern == "KRP"]
        assert krp == [str(token) for token in SIX_TOKENS]
