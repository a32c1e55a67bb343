"""Tests for the command-line dissector and table printers."""

import io

import pytest

from repro.cli import main
from repro.crypto.keys import RouterKey
from repro.protocols.opt import negotiate_session
from repro.protocols.xia import DagAddress, Xid
from repro.realize.derived import build_ndn_opt_interest
from repro.realize.epic import build_epic_packet
from repro.realize.ip import build_ipv4_packet
from repro.realize.xia import build_xia_packet


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture
def session():
    return negotiate_session(
        "s", "d", [RouterKey("cli-r")], RouterKey("d"), nonce=b"cl"
    )


class TestDecode:
    def test_decodes_ipv4_packet(self):
        packet = build_ipv4_packet(0x0A000001, 0x0B000002, payload=b"hi")
        code, text = run_cli("decode", packet.encode().hex())
        assert code == 0
        assert "FN num 2" in text
        assert "F_32_match" in text or "MATCH_32" in text
        assert "SOURCE" in text
        assert "2-byte payload" in text

    def test_decodes_embedded_opt(self, session):
        packet = build_ndn_opt_interest("/cli", session, b"p")
        code, text = run_cli("decode", packet.encode().hex())
        assert code == 0
        assert "embedded OPT header" in text
        assert session.session_id.hex()[:16] in text

    def test_decodes_embedded_epic(self, session):
        packet = build_epic_packet(session, b"p", counter=5)
        code, text = run_cli("decode", packet.encode().hex())
        assert code == 0
        assert "embedded EPIC header" in text and "ctr 5" in text

    def test_decodes_embedded_xia(self):
        dag = DagAddress.direct(Xid.for_content(b"cli"))
        packet = build_xia_packet(dag)
        code, text = run_cli("decode", packet.encode().hex())
        assert code == 0
        assert "embedded XIA header" in text and "intent CID:" in text

    def test_accepts_spaced_hex(self):
        packet = build_ipv4_packet(1, 2)
        spaced = " ".join(
            packet.encode().hex()[i : i + 2]
            for i in range(0, packet.size * 2, 2)
        )
        code, _text = run_cli("decode", *spaced.split())
        assert code == 0

    def test_rejects_non_hex(self):
        code, text = run_cli("decode", "zz")
        assert code == 2 and "not valid hex" in text

    def test_rejects_non_dip(self):
        code, text = run_cli("decode", "00")
        assert code == 1 and "not a DIP packet" in text


class TestLint:
    def test_clean_packet(self):
        packet = build_ipv4_packet(1, 2)
        code, text = run_cli("lint", packet.encode().hex())
        assert code == 0 and "clean" in text

    def test_poisoning_combo_warned(self):
        from repro.core.fn import FieldOperation, OperationKey
        from repro.core.header import DipHeader
        from repro.core.packet import DipPacket

        header = DipHeader(
            fns=(
                FieldOperation(0, 32, OperationKey.FIB),
                FieldOperation(0, 32, OperationKey.PIT),
            ),
            locations=bytes(4),
        )
        code, text = run_cli("lint", DipPacket(header=header).encode().hex())
        assert code == 0  # warnings only
        assert "W-POISON" in text

    def test_error_exit_code(self):
        from repro.core.fn import FieldOperation, OperationKey
        from repro.core.header import DipHeader
        from repro.core.packet import DipPacket

        header = DipHeader(
            fns=(FieldOperation(0, 64, OperationKey.MATCH_32),),
            locations=bytes(8),
        )
        code, text = run_cli("lint", DipPacket(header=header).encode().hex())
        assert code == 1 and "E-LEN" in text

    def test_garbage_rejected(self):
        code, _text = run_cli("lint", "00")
        assert code == 2


class TestTables:
    def test_table2_matches_paper(self):
        code, text = run_cli("table2")
        assert code == 0
        for row in ("40", "20", "50", "26", "16", "98", "108"):
            assert row in text

    def test_fig2_prints_series(self):
        code, text = run_cli("fig2")
        assert code == 0
        for protocol in ("DIP-IPv4", "NDN", "OPT", "NDN+OPT"):
            assert protocol in text

    def test_keys_lists_operations(self):
        code, text = run_cli("keys")
        assert code == 0
        assert "F_FIB" in text and "F_epic" in text


class TestEngine:
    def test_runs_serial_engine(self):
        code, text = run_cli(
            "engine", "--packets", "200", "--shards", "2",
            "--batch-size", "32",
        )
        assert code == 0
        assert "engine: 200/200 packets" in text
        assert "(serial, 2 shard(s))" in text
        assert "decisions: forward 200" in text
        assert "batch latency: p50" in text
        assert "shard" in text and "drops" in text

    def test_drop_tail_reports_drops(self):
        # a batch size above the ring capacity (1024) means the shard
        # never wakes mid-run, so pushes past the capacity drop
        code, text = run_cli(
            "engine", "--packets", "1200", "--shards", "1",
            "--batch-size", "2048", "--backpressure", "drop-tail",
        )
        assert code == 0
        assert "engine: 1024/1200 packets" in text

    def test_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            run_cli("engine", "--backend", "bogus")

    def test_metrics_out_writes_prometheus(self, tmp_path):
        path = tmp_path / "metrics.prom"
        code, text = run_cli(
            "engine", "--packets", "200", "--metrics-out", str(path)
        )
        assert code == 0
        assert f"metrics written to {path}" in text
        dump = path.read_text()
        # Prometheus text format: TYPE lines, the engine counters, and
        # the batch-latency histogram with its +Inf bucket.
        assert "# TYPE engine_packets_processed_total counter" in dump
        assert "engine_packets_processed_total 200" in dump
        assert "# TYPE engine_batch_latency_seconds histogram" in dump
        assert 'engine_batch_latency_seconds_bucket{le="+Inf"}' in dump
        assert dump.endswith("\n")

    def test_trace_out_writes_jsonl_spans(self, tmp_path):
        import json

        path = tmp_path / "trace.jsonl"
        code, text = run_cli(
            "engine", "--packets", "200", "--trace-out", str(path)
        )
        assert code == 0
        assert "trace written to" in text
        rows = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line
        ]
        names = {row["name"] for row in rows}
        assert {"engine.run", "shard.walk", "shard.emit"} <= names
        for row in rows:
            assert row["end"] >= row["start"]

    def test_no_export_flags_means_no_telemetry(self, tmp_path):
        # Without --metrics-out/--trace-out the engine must run with
        # telemetry off (no spans, no metrics) -- the 5%-budget path.
        code, text = run_cli("engine", "--packets", "100")
        assert code == 0
        assert "metrics written" not in text
        assert "trace written" not in text


class TestStats:
    def test_prints_snapshot_table(self):
        code, text = run_cli("stats", "--packets", "200")
        assert code == 0
        assert "engine telemetry" in text
        assert "engine_packets_processed_total" in text
        assert "processor_fn_cycles_p50" in text
        assert "counter" in text and "histogram" in text

    def test_json_twin(self):
        import json

        code, text = run_cli("stats", "--packets", "200", "--json")
        assert code == 0
        payload = json.loads(text)
        assert payload["counters"]["engine_packets_processed_total"] == 200
        assert "engine_batch_latency_seconds" in payload["histograms"]
        # Per-FN-key op counters come labeled by standardized key name.
        assert any(
            name.startswith("processor_fn_ops_total{key=")
            for name in payload["counters"]
        )

    def test_flow_cache_metrics_included(self):
        import json

        code, text = run_cli(
            "stats", "--packets", "200", "--flow-cache", "--json"
        )
        assert code == 0
        payload = json.loads(text)
        assert "flowcache_misses_total" in payload["counters"]

    def test_rejects_bad_config(self):
        with pytest.raises(SystemExit):
            run_cli("stats", "--backend", "bogus")


class TestEngineResilience:
    def test_fault_plan_crash_prints_resilience_line(self, tmp_path):
        from repro.resilience import CRASH, Fault, FaultPlan

        plan = FaultPlan(faults=(Fault(kind=CRASH, shard=0, batch=0),))
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        code, text = run_cli(
            "engine", "--packets", "200", "--shards", "2",
            "--fault-plan", str(path),
        )
        assert code == 0
        assert "engine: 200/200 packets" in text
        assert "resilience: 1 restart(s)" in text
        assert "1 fault(s) injected" in text

    def test_clean_run_prints_no_resilience_line(self):
        code, text = run_cli("engine", "--packets", "100", "--shards", "1")
        assert code == 0
        assert "resilience:" not in text

    def test_missing_fault_plan_file_errors(self):
        code, text = run_cli(
            "engine", "--fault-plan", "/nonexistent/plan.json"
        )
        assert code == 2
        assert "cannot read fault plan" in text

    def test_bad_fault_plan_json_errors(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        code, text = run_cli("engine", "--fault-plan", str(path))
        assert code == 2
        assert "bad fault plan" in text

    def test_degrade_flag_accepted(self):
        code, text = run_cli(
            "engine", "--packets", "100", "--degrade", "pass-to-host",
            "--max-retries", "1", "--worker-timeout", "5",
        )
        assert code == 0

    def test_rejects_unknown_degrade_policy(self):
        with pytest.raises(SystemExit):
            run_cli("engine", "--degrade", "shrug")

    def test_stats_exports_resilience_counters(self):
        import json

        code, text = run_cli("stats", "--packets", "100", "--json")
        assert code == 0
        payload = json.loads(text)
        assert "engine_dead_letter_total" in payload["counters"]
        assert "resilience_faults_injected_total" in payload["counters"]


class TestTopology:
    ARGS = ("topology", "--transit", "2", "--regional", "6", "--stub", "20",
            "--seed", "11", "--ix", "1")

    def test_generate_prints_summary(self):
        code, text = run_cli(*self.ARGS)
        assert code == 0
        assert "dip_ases" in text
        assert "hosts_bootstrapped" in text
        assert "fingerprint" in text

    def test_generate_json_is_deterministic(self):
        import json

        code_a, text_a = run_cli(*self.ARGS, "--json")
        code_b, text_b = run_cli(*self.ARGS, "--json")
        assert code_a == code_b == 0
        assert text_a == text_b  # byte-identical regeneration
        payload = json.loads(text_a)
        assert payload["ases"] == 28
        assert payload["fingerprint"]

    def test_describe_lists_plan(self):
        code, text = run_cli(*self.ARGS, "--describe")
        assert code == 0
        assert "AS" in text and "role" in text
        assert "fingerprint" in text

    def test_describe_json(self):
        import json

        code, text = run_cli(*self.ARGS, "--describe", "--json")
        assert code == 0
        payload = json.loads(text)
        assert len(payload["ases"]) == 28
        assert {"asn", "role", "mode", "profile"} <= set(payload["ases"][0])

    def test_sweep_writes_bench_artifact(self, tmp_path):
        import json

        bench = tmp_path / "BENCH_topology.json"
        code, text = run_cli(
            *self.ARGS, "--sweep", "--fractions", "0.1,0.5",
            "--flows", "8", "--packets-per-flow", "40",
            "--min-forwarded", "0", "--out", str(bench),
        )
        assert code == 0
        assert "adoption" in text and "delivery" in text
        payload = json.loads(bench.read_text())
        assert payload["fractions"] == [0.1, 0.5]
        assert len(payload["points"]) == 2
        point = payload["points"][0]
        assert {"fraction", "delivery_rate", "header_overhead_vs_ipv4",
                "packets_forwarded"} <= set(point)
        assert payload["totals"]["packets_offered"] > 0

    def test_sweep_json_twin(self):
        import json

        code, text = run_cli(
            *self.ARGS, "--sweep", "--fractions", "0.5", "--flows", "4",
            "--packets-per-flow", "20", "--min-forwarded", "0",
            "--out", "", "--json",
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["points"][0]["fraction"] == 0.5

    def test_bad_fractions_exit_2(self):
        code, text = run_cli(*self.ARGS, "--sweep", "--fractions", "0.5,nope")
        assert code == 2
        assert "bad --fractions" in text

    def test_bad_spec_exit_2(self):
        code, text = run_cli("topology", "--transit", "0")
        assert code == 2


class TestFabric:
    ARGS = (
        "fabric", "--ases", "4", "--hosts-per-as", "1",
        "--packets", "40", "--seed", "9",
    )

    def test_runs_and_reports(self):
        code, text = run_cli(*self.ARGS)
        assert code == 0
        assert "40/40 packets delivered" in text
        assert "fingerprint" in text
        assert "t0" in text and "t1" in text

    def test_compare_identical_exit_0(self):
        code, text = run_cli(*self.ARGS, "--compare")
        assert code == 0
        assert "IDENTICAL" in text

    def test_json_twin(self):
        import json

        code, text = run_cli(*self.ARGS, "--json")
        assert code == 0
        payload = json.loads(text)
        assert len(payload["records"]) == 40
        assert payload["processes"] == 1
        assert payload["spec"]["ases"] == 4
        assert payload["clock_skew"] >= 0.0

    def test_json_artifact_with_compare(self, tmp_path):
        import json

        artifact = tmp_path / "fabric.json"
        code, text = run_cli(
            *self.ARGS, "--compare", "--json", str(artifact)
        )
        assert code == 0
        assert "report written to" in text
        payload = json.loads(artifact.read_text())
        assert payload["compare"]["identical"] is True
        assert (
            payload["compare"]["fabric_fingerprint"]
            == payload["compare"]["twin_fingerprint"]
        )

    def test_pcap_out_writes_replayable_capture(self, tmp_path):
        from repro.fabric import read_pcap

        pcap = tmp_path / "traffic.pcap"
        code, text = run_cli(*self.ARGS, "--pcap-out", str(pcap))
        assert code == 0
        assert "traffic written" in text
        frames = read_pcap(str(pcap))
        assert len(frames) == 40
        times = [t for t, _ in frames]
        assert times == sorted(times)

    def test_scheduler_seed_does_not_change_results(self):
        import json

        _, base = run_cli(*self.ARGS, "--json")
        _, shuffled = run_cli(*self.ARGS, "--scheduler-seed", "77", "--json")
        assert (
            json.loads(base)["fingerprint"]
            == json.loads(shuffled)["fingerprint"]
        )

    def test_bad_spec_exit_2(self):
        code, text = run_cli("fabric", "--ases", "2")
        assert code == 2
        assert "error" in text


def test_bare_serve_parse_builds_the_default_config(monkeypatch):
    from repro.serve import daemon
    from repro.serve.config import ServeConfig

    seen = []

    def fake_run_daemon(config, json_out=False, out=None):
        seen.append(config)
        return {"unaccounted": 0}

    monkeypatch.setattr(daemon, "run_daemon", fake_run_daemon)
    code, _ = run_cli("serve")
    assert code == 0
    assert seen == [ServeConfig()]
