"""The CLI contract: each subcommand takes exactly its flags, and an
invocation runs the one config those flags describe."""

from __future__ import annotations

import json
import socket

import pytest

from repro.experiments.runner import main
from repro.workload.generator import WildScanConfig

SMALL = ["--scale", "0.005", "--shards", "2"]


@pytest.fixture()
def configs(monkeypatch):
    """Every ``WildScanConfig`` built in this process, in order."""
    built: list[WildScanConfig] = []
    post_init = WildScanConfig.__post_init__

    def spy(self):
        post_init(self)
        built.append(self)

    monkeypatch.setattr(WildScanConfig, "__post_init__", spy)
    return built


@pytest.fixture()
def thread_workers(monkeypatch):
    """Local cluster workers run as threads, so their configs are seen."""
    from repro.cluster import local

    spawn = local.spawn_local_workers
    monkeypatch.setattr(
        local, "spawn_local_workers",
        lambda address, count, **options: spawn(
            address, count, **{**options, "use_processes": False}
        ),
    )


@pytest.mark.parametrize("command", [
    ["scan"],
    ["stream", "--jobs", "2"],
    ["cluster", "--workers", "1"],
    ["table5"],
])
def test_seed_reaches_every_config(command, configs, thread_workers, capsys):
    assert main([*command, *SMALL, "--seed", "3"]) == 0
    capsys.readouterr()
    assert configs
    assert {config.seed for config in configs} == {3}


def test_all_scans_once(monkeypatch, capsys):
    from repro.engine import ScanEngine
    from repro.experiments import ablations, perf

    scanned: list[WildScanConfig] = []
    run = ScanEngine.run

    def counted(self):
        scanned.append(self.config)
        return run(self)

    monkeypatch.setattr(ScanEngine, "run", counted)
    # these two scan nothing at --scale 0.005; stubbed for time
    monkeypatch.setattr(ablations, "render", lambda: "ablations")
    monkeypatch.setattr(perf, "render", lambda: "perf")
    assert main(["all", *SMALL]) == 0
    out = capsys.readouterr().out
    for name in ("table5", "table6", "table7", "fig8"):
        assert f"=== {name} (" in out
    assert [config.scale for config in scanned] == [0.005]


@pytest.mark.parametrize("argv", [
    ["stream", "--workers", "3"],
    ["cluster", "--jobs", "4"],
    ["table1", "--seed", "3"],
    ["scan", "--profile-out", "profile.json"],
    ["fig1", "--scale", "0.01"],
])
def test_flags_of_other_subcommands_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code != 0
    assert "unrecognized arguments" in capsys.readouterr().err


def test_bare_profile_names_the_default_artifact():
    from repro.experiments.runner import _parser
    from repro.runtime.profile import DEFAULT_PROFILE_ARTIFACT

    for command in ("scan", "stream", "cluster"):
        args = _parser().parse_args([command, "--profile"])
        assert args.profile == DEFAULT_PROFILE_ARTIFACT
        assert _parser().parse_args([command]).profile is None


@pytest.mark.parametrize("command", [
    ["scan"],
    ["stream"],
    ["cluster", "--workers", "1", "--no-verify"],
])
def test_profile_path_prints_and_writes(command, tmp_path, thread_workers, capsys):
    path = tmp_path / "profile.json"
    assert main([*command, *SMALL, "--profile", str(path)]) == 0
    out = capsys.readouterr().out
    assert "stage profile" in out
    assert f"profile written to {path}" in out
    artifact = json.loads(path.read_text())
    assert artifact["artifact"] == "stage_profile"
    assert artifact["counters"]["shards_profiled"] == 2


def test_standby_profile_prints_and_writes(tmp_path, capsys):
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    dead = "%s:%d" % probe.getsockname()[:2]
    probe.close()
    ledger = str(tmp_path / "run.ledger")
    assert main(["scan", *SMALL, "--ledger", ledger]) == 0
    capsys.readouterr()

    path = tmp_path / "profile.json"
    assert main(["cluster", *SMALL, "--standby", dead, "--host", "127.0.0.1",
                 "--port", "0", "--resume", ledger, "--profile", str(path)]) == 0
    out = capsys.readouterr().out
    assert "2 shard(s) adopted from the dead primary's journal" in out
    assert "stage profile" in out
    assert f"profile written to {path}" in out
    assert json.loads(path.read_text())["artifact"] == "stage_profile"
