"""Stage-profiler unit contract: accumulation, merge, render, artifact.

Profiles are observability-only payloads; what these tests pin is the
arithmetic (timers and counters sum exactly, ``None`` shards are skipped
but counted via ``shards_profiled``) and the artifact schema that
``--profile`` and the fullscale bench write to disk.
"""

from __future__ import annotations

import json

from repro.runtime.profile import (
    DEFAULT_PROFILE_ARTIFACT,
    StageProfiler,
    merge_profiles,
    render_profile,
    write_profile,
)


class TestStageProfiler:
    def test_add_accumulates_per_stage(self):
        prof = StageProfiler()
        prof.add("detect", 100)
        prof.add("detect", 50)
        prof.add("tag", 7)
        assert prof.timers_ns == {"detect": 150, "tag": 7}

    def test_count_accumulates(self):
        prof = StageProfiler()
        prof.count("transactions")
        prof.count("transactions", 9)
        prof.count("warm_starts", 0)
        assert prof.counters == {"transactions": 10, "warm_starts": 0}

    def test_to_dict_is_a_copy(self):
        prof = StageProfiler()
        prof.add("detect", 1)
        payload = prof.to_dict()
        payload["timers_ns"]["detect"] = 999
        assert prof.timers_ns["detect"] == 1


class TestMergeProfiles:
    def test_sums_timers_and_counters(self):
        a = {"timers_ns": {"detect": 10, "tag": 5}, "counters": {"transactions": 3}}
        b = {"timers_ns": {"detect": 7}, "counters": {"transactions": 2, "hits": 1}}
        merged = merge_profiles([a, b])
        assert merged["timers_ns"] == {"detect": 17, "tag": 5}
        assert merged["counters"] == {
            "transactions": 5, "hits": 1, "shards_profiled": 2,
        }

    def test_none_shards_are_skipped_but_visible(self):
        # a ledger-resumed shard contributes no profile; the merge must
        # not crash and must record the partial coverage.
        a = {"timers_ns": {"detect": 10}, "counters": {}}
        merged = merge_profiles([None, a, None])
        assert merged["timers_ns"] == {"detect": 10}
        assert merged["counters"]["shards_profiled"] == 1

    def test_empty_input(self):
        merged = merge_profiles([])
        assert merged == {"timers_ns": {}, "counters": {"shards_profiled": 0}}


class TestRender:
    def test_slowest_stage_first_with_shares(self):
        text = render_profile(
            {
                "timers_ns": {"tag": 1_000_000, "detect": 3_000_000},
                "counters": {"transactions": 4},
            }
        )
        lines = text.splitlines()
        assert lines[0].startswith("stage profile")
        # ``tag`` runs inside ``detect``: it is a share of ``detect``,
        # never added to it, and the uncovered rest shows as ``other``.
        assert "detect" in lines[1] and "100.0%" in lines[1]
        assert "tag" in lines[2] and "33.3% of detect" in lines[2]
        assert "other" in lines[3] and "66.7% of detect" in lines[3]
        assert any("transactions" in line for line in lines)

    def test_top_level_shares_exclude_nested_stages(self):
        text = render_profile(
            {
                "timers_ns": {
                    "build_context": 1_000_000,
                    "execute": 5_000_000,
                    "detect": 4_000_000,
                    "identify": 1_000_000,
                    "match": 2_000_000,
                },
                "counters": {},
            }
        )
        lines = text.splitlines()
        assert "execute" in lines[1] and "50.0%" in lines[1]
        assert "detect" in lines[2] and "40.0%" in lines[2]
        assert "match" in lines[3] and "50.0% of detect" in lines[3]
        assert "identify" in lines[4] and "25.0% of detect" in lines[4]
        assert "other" in lines[5] and "25.0% of detect" in lines[5]
        assert "build_context" in lines[6] and "10.0%" in lines[6]

    def test_without_detect_every_stage_is_top_level(self):
        # a stream profile times the detector's stages but no enclosing
        # ``detect``; its shares are of the plain sum, with no ``other``.
        text = render_profile(
            {
                "timers_ns": {"build_context": 1_000_000, "tag": 3_000_000},
                "counters": {},
            }
        )
        lines = text.splitlines()
        assert "tag" in lines[1] and "75.0%" in lines[1]
        assert "build_context" in lines[2] and "25.0%" in lines[2]
        assert len(lines) == 3
        assert "of detect" not in text and "other" not in text

    def test_zero_total_is_safe(self):
        assert "stage profile" in render_profile({"timers_ns": {}, "counters": {}})
        text = render_profile({"timers_ns": {"detect": 0}, "counters": {}})
        assert "other" in text


class TestWriteProfile:
    def test_artifact_schema_and_ms_view(self, tmp_path):
        path = write_profile(
            {"timers_ns": {"detect": 2_500_000}, "counters": {"transactions": 1}},
            tmp_path / "profile.json",
        )
        artifact = json.loads(path.read_text())
        assert artifact["artifact"] == "stage_profile"
        assert artifact["timers_ns"] == {"detect": 2_500_000}
        assert artifact["timers_ms"] == {"detect": 2.5}
        assert artifact["counters"] == {"transactions": 1}

    def test_default_path_is_repo_root_name(self):
        assert DEFAULT_PROFILE_ARTIFACT == "PROFILE_wildscan.json"
