"""Tests for the scenario loader and the sleds-run CLI."""

import json

import pytest

from repro.apps.cli import main
from repro.bench.scenario import (
    DEFAULT_SCENARIO,
    ScenarioError,
    build_scenario,
    load_scenario,
)
from repro.sim.units import KB, MB, PAGE_SIZE


class TestBuildScenario:
    def test_default_scenario_builds(self):
        machine = build_scenario(DEFAULT_SCENARIO)
        assert machine.booted
        st = machine.kernel.stat("/mnt/ext2/demo/big.txt")
        assert st.size == 8 * MB

    def test_file_sizes_and_plants(self):
        machine = build_scenario({
            "profile": "unix",
            "cache_mb": 1,
            "files": [
                {"path": "/mnt/ext2/a.txt", "size_kb": 64, "seed": 1,
                 "plants": {"1000": "MARKER"}},
            ],
        })
        fd = machine.kernel.open("/mnt/ext2/a.txt")
        assert machine.kernel.pread(fd, 1000, 6) == b"MARKER"
        machine.kernel.close(fd)

    def test_warm_applies(self):
        machine = build_scenario({
            "profile": "unix", "cache_mb": 4,
            "files": [{"path": "/mnt/ext2/w.txt", "size_kb": 64}],
            "warm": ["/mnt/ext2/w.txt"],
        })
        inode = machine.kernel.resolve("/mnt/ext2/w.txt")[1]
        assert machine.kernel.page_cache.resident_count(
            inode.id, inode.npages) == inode.npages

    def test_hsm_tape_files(self):
        machine = build_scenario({
            "profile": "hsm", "cache_mb": 1,
            "tape_files": [
                {"path": "/mnt/hsm/arch.dat", "size_kb": 128,
                 "cartridge": "VOL001"},
            ],
        })
        inode = machine.kernel.resolve("/mnt/hsm/arch.dat")[1]
        state = machine.hsmfs.state_of(inode)
        assert state.cartridge_label == "VOL001"

    @pytest.mark.parametrize("spec,fragment", [
        ("not a dict", "must be a dict"),
        ({"profile": "vms"}, "unknown profile"),
        ({"cache_mb": -1}, "bad cache_mb"),
        ({"files": [{"size_kb": 4}]}, "missing path"),
        ({"files": [{"path": "/mnt/ext2/x", "size_kb": 4, "size_mb": 4}]},
         "exactly one"),
        ({"files": [{"path": "/mnt/ext2/x", "size_kb": 4,
                     "plants": {"junk": "A"}}]}, "not an int"),
        ({"files": [{"path": "/mnt/ext2/x", "size": 100,
                     "plants": {"5000": "A"}}]}, "escapes"),
        ({"tape_files": [{"path": "/mnt/ext2/x", "size_kb": 4}]},
         "not on an HSM"),
    ])
    def test_malformed_specs_rejected(self, spec, fragment):
        if isinstance(spec, dict) and "tape_files" in spec:
            spec = {"profile": "unix", **spec}
        with pytest.raises(ScenarioError, match=fragment):
            build_scenario(spec)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "profile": "unix", "cache_mb": 1,
            "files": [{"path": "/mnt/ext2/f.txt", "size_kb": 16}],
        }))
        machine = load_scenario(path)
        assert machine.kernel.stat("/mnt/ext2/f.txt").size == 16 * KB

    def test_load_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario(path)


class TestCli:
    def test_wc(self, capsys):
        assert main(["wc", "/mnt/ext2/demo/big.txt", "--sleds"]) == 0
        out = capsys.readouterr().out
        assert "8388608" in out
        assert "virtual time" in out

    def test_grep_found_and_missing(self, capsys):
        assert main(["grep", "XNEEDLEX", "/mnt/ext2/demo/big.txt",
                     "-q", "--sleds"]) == 0
        assert main(["grep", "ZZZABSENT", "/mnt/ext2/demo/small.txt"]) == 1

    def test_grep_line_numbers(self, capsys):
        main(["grep", "XNEEDLEX", "/mnt/ext2/demo/big.txt", "-n"])
        out = capsys.readouterr().out
        first_line = out.splitlines()[0]
        line_no = int(first_line.split(":", 1)[0])
        assert line_no > 0

    def test_find_latency(self, capsys):
        assert main(["find", "/mnt/ext2", "-latency", "+u1"]) == 0
        out = capsys.readouterr().out
        assert "/mnt/ext2/demo/big.txt" in out

    def test_gmc(self, capsys):
        assert main(["gmc", "/mnt/ext2/demo/big.txt"]) == 0
        out = capsys.readouterr().out
        assert "delivery time" in out

    def test_sleds_dump(self, capsys):
        assert main(["sleds", "/mnt/ext2/demo/big.txt"]) == 0
        out = capsys.readouterr().out
        assert "SLED(s) over 8388608 bytes" in out

    def test_timeline(self, capsys):
        assert main(["timeline", "/mnt/ext2/demo/big.txt"]) == 0
        out = capsys.readouterr().out
        lanes = {line[:8].strip(): line[9:] for line in out.splitlines()
                 if line[:8].strip() in ("syscall", "fault", "device")}
        assert set(lanes) == {"syscall", "fault", "device"}
        for lane, row in lanes.items():
            assert row.strip(), f"{lane} lane is blank"

    def test_scenario_file(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({
            "profile": "unix", "cache_mb": 1,
            "files": [{"path": "/mnt/ext2/t.txt", "size_kb": 16}],
        }))
        assert main(["--scenario", str(path), "wc", "/mnt/ext2/t.txt"]) == 0

    def test_progress_command(self, capsys):
        assert main(["progress", "/mnt/nfs/pub/dataset.txt",
                     "--samples", "4"]) == 0
        out = capsys.readouterr().out
        assert "initial SLEDs estimate" in out
        assert "dynamic ETA" in out

    def test_gmc_directory(self, capsys):
        assert main(["gmc", "/mnt/ext2/demo"]) == 0
        out = capsys.readouterr().out
        assert "big.txt" in out and "small.txt" in out
        assert "cached" in out

    def test_stats_warm_reports_accuracy(self, capsys):
        assert main(["stats", "/mnt/ext2/demo/big.txt", "--warm"]) == 0
        out = capsys.readouterr().out
        assert "SLED prediction accuracy" in out
        assert "disk" in out
        assert "memory" in out
        assert "hit ratio" in out

    def test_stats_prometheus_format(self, capsys):
        assert main(["stats", "/mnt/ext2/demo/big.txt",
                     "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_syscalls_total counter" in out

    def test_stats_json_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "metrics.json"
        assert main(["stats", "/mnt/ext2/demo/big.txt", "--format", "json",
                     "--app", "grep", "-o", str(out_path)]) == 0
        dump = json.loads(out_path.read_text())
        assert "metrics" in dump and "accuracy" in dump

    def test_trace_exports_chrome_json(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        assert main(["trace", "/mnt/ext2/demo/big.txt",
                     "-o", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        events = doc["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        assert {"syscall", "fault", "device"} <= {e["cat"] for e in events}

    def test_trace_to_stdout(self, capsys):
        assert main(["trace", "/mnt/ext2/demo/small.txt"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["traceEvents"]

    def test_report_json_exports_by_component(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        assert main(["report", "--json", str(out_path)]) == 0
        dump = json.loads(out_path.read_text())
        acc = dump["accuracy"]
        assert "by_class" in acc and "by_component" in acc
        assert any(key.endswith("/queue") or key.endswith("/service")
                   for key in acc["by_component"])

    def test_slo_command(self, capsys, tmp_path):
        json_path = tmp_path / "slo.json"
        series_path = tmp_path / "series.json"
        om_path = tmp_path / "series.om"
        assert main(["slo", "--json", str(json_path),
                     "--series-out", str(series_path),
                     "--openmetrics-out", str(om_path)]) == 0
        out = capsys.readouterr().out
        assert "SLO compliance" in out
        dump = json.loads(json_path.read_text())
        rows = {r["name"]: r for r in dump["slo"]["targets"]}
        graded = [r for r in rows.values() if r["requests"]]
        assert graded, "demo mix graded no requests"
        for row in graded:
            assert row["p50_s"] <= row["p99_s"]
            assert 0.0 <= row["compliance"] <= 1.0
            assert row["burn_rate"] >= 0.0
        series = json.loads(series_path.read_text())
        assert series["samples"] >= 2
        assert len(series["families"]) >= 3
        assert om_path.read_text().endswith("# EOF\n")

    def test_slo_custom_objective_and_bad_spec(self, capsys):
        assert main(["slo", "/mnt/ext2/demo/small.txt",
                     "--objective", "disk=0.000001"]) == 0
        out = capsys.readouterr().out
        assert "disk-latency" in out
        with pytest.raises(SystemExit):
            main(["slo", "--objective", "disk"])

    def test_explain_command(self, capsys, tmp_path):
        import math
        import re
        json_path = tmp_path / "forensics.json"
        folded_path = tmp_path / "stacks.folded"
        assert main(["explain", "--tenants", "3", "--top", "2",
                     "--json", str(json_path),
                     "--folded-out", str(folded_path)]) == 0
        out = capsys.readouterr().out
        assert "latency forensics" in out
        assert "blame:" in out
        assert "per-tenant queue delay" in out
        dump = json.loads(json_path.read_text())
        forensics = dump["forensics"]
        assert forensics["analyzed"] > 0
        assert len(forensics["waterfalls"]) == 2
        for wf in forensics["waterfalls"]:
            blame = wf["blame"]
            assert math.fsum(blame.values()) == pytest.approx(
                wf["record"]["latency"], rel=1e-12, abs=1e-15)
            assert wf["spans"], "waterfall without spans"
        # matrix rows reconcile with the SLO tracker's queue pools
        rows = forensics["interference"]["row_totals"]
        pools = dump["slo_tenant_queue_waits"]
        for tenant, pooled in pools.items():
            assert rows.get(tenant, 0.0) == pytest.approx(
                pooled, rel=1e-12, abs=1e-15)
        # folded stacks: `frame(;frame)* <integer ns>` per line
        lines = folded_path.read_text().splitlines()
        assert lines
        pattern = re.compile(r"^\S.*;.+ \d+$")
        for line in lines:
            assert pattern.match(line), f"bad folded line: {line!r}"
        assert any(line.startswith("critical;") for line in lines)

    def test_explain_plain_and_bad_args(self, capsys):
        assert main(["explain", "/mnt/ext2/demo/small.txt",
                     "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert "traced request(s)" in out
        assert "per-tenant queue delay" not in out
        with pytest.raises(SystemExit):
            main(["explain", "--top", "0"])
        with pytest.raises(SystemExit):
            main(["explain", "--tenants", "-1"])

    def test_profile_command(self, capsys, tmp_path):
        out_path = tmp_path / "prof.json"
        assert main(["profile", "--json", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "hot-path profile" in out
        dump = json.loads(out_path.read_text())
        sites = {row["site"] for row in dump["sites"]}
        assert {"event_loop.dispatch", "kernel.sled_build"} <= sites
        assert all(row["calls"] > 0 for row in dump["sites"])

    def test_profile_budget_gate(self, capsys):
        # any real run clears 1 fault/s; nothing clears 1e12
        assert main(["profile", "--budget", "1"]) == 0
        assert "PASS" in capsys.readouterr().out
        assert main(["profile", "--budget", "1e12"]) == 1
        assert "FAIL" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["profile", "--budget", "0"])

    def test_profile_storm(self, capsys, tmp_path):
        out_path = tmp_path / "storm.json"
        assert main(["profile", "--storm", "--repeat", "1",
                     "--json", str(out_path), "--budget", "1"]) == 0
        assert "PASS" in capsys.readouterr().out
        dump = json.loads(out_path.read_text())
        assert {row["site"]: row["calls"] for row in dump["sites"]} == {
            "kernel.fault_batch": 768, "device.batch_math": 768,
            "cache.residency": 768}
        assert dump["storm"]["hard_faults"] == 49152
        assert main(["profile", "--storm", "--repeat", "1",
                     "--budget", "1e12"]) == 1
        assert "FAIL" in capsys.readouterr().out
