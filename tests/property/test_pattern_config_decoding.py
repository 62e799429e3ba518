"""Property tests: decoding a scan config's ``pattern_config``.

Arbitrary JSON values, and near-valid payloads built from the registry's
keys and ``defaults``, go through the wire decoder in every field of the
namespaced form (``enabled``, ``params``, ``registry``) and of the flat
four-field form older builds wrote. Decoding returns a
:class:`PatternSettings` or raises ``ValueError``; encoding what it
returns and decoding again is a fixed point; and two payloads digest
equal exactly when they decode to equal settings.
"""

import json

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.engine.wire import config_digest, config_from_wire, config_to_wire
from repro.leishen.registry import (
    ALL_PATTERN_KEYS,
    PAPER_PATTERN_KEYS,
    PatternSettings,
    default_registry,
)
from repro.workload.generator import WildScanConfig

BASE = config_to_wire(WildScanConfig())
KEYS = ALL_PATTERN_KEYS + ("NOPE",)
DEFAULTS = {key: dict(default_registry().get(key).defaults) for key in ALL_PATTERN_KEYS}
#: the flat form's fields, each with its (pattern key, parameter name)
FLAT = {
    "krp_min_buys": ("KRP", "min_buys"),
    "sbs_min_volatility": ("SBS", "min_volatility"),
    "sbs_amount_tolerance": ("SBS", "amount_tolerance"),
    "mbs_min_rounds": ("MBS", "min_rounds"),
}

json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
#: wrong for every parameter but a float-valued one (which takes 2.5)
BAD_VALUES = [True, None, "5", float("nan"), float("inf"), 10**400, [1], 2.5]


def valid_value(default):
    """Valid values for one parameter, its default spelled several ways."""
    if isinstance(default, int):
        return st.sampled_from([default, default, 2 * default, 0, 1])
    return st.sampled_from([default, default, 2 * default, 0, 0.0, -0.0, 1, 1.0])


@st.composite
def valid_params(draw):
    params = {}
    for key in draw(st.lists(st.sampled_from(ALL_PATTERN_KEYS), max_size=3, unique=True)):
        names = draw(st.lists(st.sampled_from(sorted(DEFAULTS[key])), max_size=2, unique=True))
        params[key] = {name: draw(valid_value(DEFAULTS[key][name])) for name in names}
    return params


valid_namespaced = st.fixed_dictionaries(
    {
        "enabled": st.lists(st.sampled_from(ALL_PATTERN_KEYS), max_size=4, unique=True),
        "params": valid_params(),
        "registry": st.just(1),
    }
)
valid_flat = st.fixed_dictionaries(
    {field: valid_value(DEFAULTS[key][name]) for field, (key, name) in FLAT.items()}
)
valid_payload = st.one_of(st.none(), valid_namespaced, valid_flat)


@st.composite
def near_payload(draw):
    """A valid payload with one field nudged: a key, name or value off
    the registry, another registry version, a field dropped or added."""
    payload = draw(st.one_of(valid_namespaced, valid_flat))
    field = draw(st.sampled_from([*payload, "drop", "add"]))
    if field == "drop":
        del payload[draw(st.sampled_from(sorted(payload)))]
    elif field == "add":
        payload["surprise"] = 1
    elif field == "enabled":
        payload[field].append(draw(st.sampled_from(["NOPE", *payload[field]])))
    elif field == "params":
        key = draw(st.sampled_from(KEYS))
        defaults = DEFAULTS.get(key, {"min_buys": 5})
        name = draw(st.sampled_from([*defaults, "nope"]))
        value = draw(st.sampled_from(BAD_VALUES) | valid_value(defaults.get(name, 1)))
        payload[field] = {**payload[field], key: {name: value}}
    elif field == "registry":
        payload[field] = draw(st.sampled_from([2, 99, True, 1.0, "1", None]))
    else:
        payload[field] = draw(st.sampled_from(BAD_VALUES))
    return payload


@st.composite
def json_in_one_field(draw):
    """A valid payload with arbitrary JSON in one of its fields."""
    payload = draw(st.one_of(valid_namespaced, valid_flat))
    payload[draw(st.sampled_from(sorted(payload)))] = draw(json_value)
    return payload


any_payload = st.one_of(valid_payload, near_payload(), json_in_one_field(), json_value)


def decode(pattern_config) -> PatternSettings | None:
    """The decoded settings, or ``None`` when the decoder refuses them."""
    try:
        config = config_from_wire({**BASE, "pattern_config": pattern_config})
    except ValueError:
        return None
    assert isinstance(config.pattern_config, PatternSettings)
    return config.pattern_config


def digest(settings: PatternSettings) -> str:
    return config_digest(WildScanConfig(pattern_config=settings))


def other_spelling(value):
    """An equal number written differently: a whole float as an int, and
    zero as ``-0.0``."""
    if isinstance(value, float) and value.is_integer():
        return -0.0 if value == 0 else int(value)
    return value


def respellings(settings: PatternSettings) -> list:
    """Other payloads that spell ``settings``: every default written out
    for every registry key, the dict orders reversed, and whole or zero
    values written another way."""
    params = {key: dict(values) for key, values in settings.params}
    spelled = [
        {"enabled": list(settings.enabled), "registry": 1,
         "params": {key: {**DEFAULTS[key], **params.get(key, {})} for key in ALL_PATTERN_KEYS}},
        {"enabled": list(settings.enabled), "registry": 1,
         "params": {key: dict(reversed(values.items()))
                    for key, values in reversed(params.items())}},
        {"enabled": list(settings.enabled), "registry": 1,
         "params": {key: {name: other_spelling(value) for name, value in values.items()}
                    for key, values in params.items()}},
    ]
    if settings.enabled == PAPER_PATTERN_KEYS:
        spelled.append(
            {field: params.get(key, {}).get(name, DEFAULTS[key][name])
             for field, (key, name) in FLAT.items()}
        )
    return spelled


class TestPatternConfigDecoding:
    @given(any_payload)
    @settings(max_examples=300, deadline=None)
    def test_decodes_to_settings_or_value_error(self, pattern_config):
        decode(pattern_config)

    @given(st.one_of(valid_payload, near_payload()))
    @settings(max_examples=150, deadline=None)
    def test_encoding_then_decoding_is_a_fixed_point(self, pattern_config):
        decoded = decode(pattern_config)
        assume(decoded is not None)
        config = WildScanConfig(pattern_config=decoded)
        payload = config_to_wire(config)
        again = config_from_wire(json.loads(json.dumps(payload)))
        assert again == config
        assert config_to_wire(again) == payload

    @given(valid_payload, st.data())
    @settings(max_examples=150, deadline=None)
    def test_digests_equal_exactly_when_settings_equal(self, first, data):
        settings_a = decode(first)
        assert settings_a is not None
        spelled = respellings(settings_a)
        second = data.draw(st.one_of(valid_payload, st.sampled_from(spelled)))
        settings_b = decode(second)
        assert settings_b is not None
        assert (digest(settings_a) == digest(settings_b)) == (settings_a == settings_b)
        if second in spelled:
            assert settings_b == settings_a
