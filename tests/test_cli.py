"""CLI contract: schemas, exit codes, determinism, and flagship outputs."""

import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from longctx.cli import dispatch

GOLDEN = Path(__file__).parent / "data" / "megabeam_manifest.json"


def run_cli(capsys, *argv, expect_code=0):
    code = dispatch(["--no-timestamp", *argv])
    captured = capsys.readouterr()
    assert code == expect_code, captured.err
    return captured


def run_json(capsys, *argv):
    return json.loads(run_cli(capsys, *argv).out)


def check_schema(name, doc):
    schema = json.loads(
        resources.files("longctx").joinpath(f"schemas/{name}.json").read_text(encoding="utf-8")
    )
    jsonschema.validate(doc, schema)


class TestCensus:
    def test_output_and_schema(self, capsys):
        doc = run_json(capsys, "census", "--limit", "512")
        check_schema("census", doc)
        assert doc["distinct"] == 385
        assert doc["collision_rate"] == pytest.approx(1 - 385 / 512)


class TestRopePlan:
    def test_recommends_75m_for_half_mega_context(self, capsys):
        doc = run_json(
            capsys,
            "rope-plan", "--context-len", "524288",
            "--candidates", "25000000,75000000", "--head-dim", "128",
        )
        check_schema("rope-plan", doc)
        assert doc["recommended"] == 75_000_000

    def test_report_csv_columns(self, capsys):
        out = run_cli(
            capsys,
            "rope-report", "--theta-base", "75000000", "--head-dim", "8",
            "--max-position", "524288",
        ).out
        lines = out.strip().splitlines()
        assert lines[0] == "pair_index,inv_freq,wavelength,complete"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[1]) == 1.0


class TestRingsim:
    def test_error_below_tolerance_and_schema(self, capsys):
        doc = run_json(
            capsys,
            "ringsim", "--seq-len", "64", "--devices", "4",
            "--q-chunk", "8", "--kv-chunk", "16", "--seed", "7",
        )
        check_schema("ringsim", doc)
        assert doc["max_abs_error_vs_oracle"] < 1e-6
        assert doc["transfers"] == 12
        assert len(doc["schedule"]) == 16

    def test_segments_flag_and_weight_dump(self, capsys, tmp_path):
        dump = tmp_path / "weights.csv"
        doc = run_json(
            capsys,
            "ringsim", "--seq-len", "32", "--devices", "2", "--q-chunk", "4",
            "--kv-chunk", "4", "--seed", "1", "--segments", "16,16",
            "--dump-weights", str(dump),
        )
        assert doc["max_abs_error_vs_oracle"] < 1e-6
        rows = dump.read_text().strip().splitlines()
        assert len(rows) == 32
        # Cross-document block (first row, last column) must be exactly zero.
        assert float(rows[0].split(",")[-1]) == 0.0

    def test_bad_segments_is_domain_error(self, capsys):
        code = dispatch(
            ["--no-timestamp", "ringsim", "--seq-len", "32", "--devices", "2",
             "--q-chunk", "4", "--kv-chunk", "4", "--segments", "10,10"]
        )
        captured = capsys.readouterr()
        assert code == 1
        check_schema("error", json.loads(captured.err))

    def test_empty_sequence_is_domain_error(self, capsys):
        code = dispatch(
            ["--no-timestamp", "ringsim", "--seq-len", "0", "--devices", "1",
             "--q-chunk", "1", "--kv-chunk", "1"]
        )
        captured = capsys.readouterr()
        assert code == 1
        error = json.loads(captured.err)
        check_schema("error", error)
        assert error["error"]["message"] == "seq_len must be >= 1, got 0"


class TestMemplan:
    def test_reference_configuration(self, capsys):
        doc = run_json(
            capsys,
            "memplan", "--devices", "8", "--seq-len", "524288",
            "--q-chunk", "1024", "--kv-chunk", "2048",
        )
        check_schema("memplan", doc)
        assert doc["lookup_table_bytes"] == 34_359_738_368
        assert doc["lookup_table_gib"] == "32.000 GiB"

    def test_budget_and_extra_terms(self, capsys):
        doc = run_json(
            capsys,
            "memplan", "--devices", "8", "--seq-len", "524288",
            "--q-chunk", "2048", "--kv-chunk", "4096",
            "--budget", str(16 * 2**30), "--extra-term", "activations=1073741824",
        )
        assert doc["fits"] is True
        assert doc["breakdown"]["activations"] == 2**30
        assert doc["total_bytes"] == doc["lookup_table_bytes"] + 2**30

    def test_search_finds_plan(self, capsys):
        doc = run_json(
            capsys,
            "memplan-search", "--devices", "8", "--seq-len", "524288",
            "--budget", str(16 * 2**30), "--min-q-chunk", "1024",
            "--min-kv-chunk", "2048", "--power-of-two",
        )
        check_schema("memplan-search", doc)
        assert doc["plan"]["lookup_table_bytes"] <= 16 * 2**30

    def test_search_reports_null_when_hopeless(self, capsys):
        doc = run_json(
            capsys,
            "memplan-search", "--devices", "8", "--seq-len", "524288", "--budget", "1",
        )
        check_schema("memplan-search", doc)
        assert doc["plan"] is None

    def test_indivisible_chunks_is_domain_error(self, capsys):
        code = dispatch(
            ["--no-timestamp", "memplan", "--devices", "8", "--seq-len", "524288",
             "--q-chunk", "1000", "--kv-chunk", "2048"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        check_schema("error", json.loads(captured.err))


class TestNiah:
    def test_gen_inline_document(self, capsys):
        doc = run_json(
            capsys,
            "niah-gen", "--haystack-tokens", "600", "--depth", "0",
            "--payload", "7418118", "--seed", "3",
        )
        check_schema("niah-gen", doc)
        assert doc["needle_sentence_index"] == 0
        assert "7418118" in doc["document"]

    def test_gen_to_file(self, capsys, tmp_path):
        out = tmp_path / "haystack.txt"
        doc = run_json(
            capsys,
            "niah-gen", "--haystack-tokens", "600", "--depth", "100",
            "--payload", "123456", "--seed", "3", "--out", str(out),
        )
        assert doc["document_file"] == str(out)
        assert "document" not in doc
        assert "123456" in out.read_text(encoding="utf-8")

    def test_score_truncated_example(self, capsys):
        doc = run_json(
            capsys, "niah-score", "--expected", "7418118", "--answer", "I recall 741811.",
        )
        check_schema("niah-score", doc)
        assert doc["verdict"] == "truncated"

    def test_grid_with_echo_stub(self, capsys, tmp_path):
        log = tmp_path / "detail.json"
        doc = run_json(
            capsys,
            "niah-grid", "--lengths", "600,900", "--depths", "0,50,100",
            "--trials", "2", "--stub", "echo", "--seed", "5",
            "--detail-log", str(log),
        )
        check_schema("niah-grid", doc)
        assert all(cell["exact_rate"] == 1.0 for cell in doc["cells"])
        detail = json.loads(log.read_text(encoding="utf-8"))
        assert len(detail) == 12

    def test_grid_csv_format(self, capsys):
        out = run_cli(
            capsys,
            "niah-grid", "--lengths", "600", "--depths", "0,100",
            "--trials", "1", "--stub", "drop-last", "--format", "csv",
            "--metric", "truncated",
        ).out
        lines = out.strip().splitlines()
        assert lines[0] == "haystack_tokens,depth_0,depth_100"
        assert lines[1] == "600,1.000000,1.000000"

    def test_unknown_api_shape_key_is_domain_error(self, capsys, tmp_path):
        # The shape file is read before a client exists, so nothing is sent.
        shape = tmp_path / "shape.json"
        shape.write_text(json.dumps({"text_path": "text", "bogus_key": 1}))
        code = dispatch(
            ["--no-timestamp", "niah-grid", "--lengths", "600", "--depths", "50",
             "--endpoint", "http://127.0.0.1:9/complete", "--api-shape", str(shape)]
        )
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        check_schema("error", json.loads(captured.err))

    def test_grid_without_endpoint_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.delenv("LONGCTX_ENDPOINT", raising=False)
        with pytest.raises(SystemExit) as excinfo:
            dispatch(["--no-timestamp", "niah-grid", "--lengths", "600",
                      "--depths", "0", "--trials", "1"])
        assert excinfo.value.code == 2


class TestRecipe:
    def test_show_matches_golden(self, capsys):
        out = run_cli(capsys, "recipe", "show").out
        assert out == GOLDEN.read_text(encoding="utf-8")
        check_schema("recipe-manifest", json.loads(out))

    def test_emit_to_file_matches_golden(self, capsys, tmp_path):
        target = tmp_path / "manifest.json"
        run_cli(capsys, "recipe", "emit", "--out", str(target))
        assert target.read_bytes() == GOLDEN.read_bytes()

    def test_validate_builtin_is_clean(self, capsys):
        doc = run_json(capsys, "recipe", "validate")
        check_schema("recipe-validate", doc)
        assert doc["ok"] is True
        assert doc["violations"] == []

    def test_validate_broken_file_reports(self, capsys, tmp_path):
        broken = json.loads(GOLDEN.read_text(encoding="utf-8"))
        broken["phases"][0]["mix"] = {"source_code": 0.5}
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken), encoding="utf-8")
        doc = run_json(capsys, "recipe", "validate", "--file", str(path))
        assert doc["ok"] is False

    def test_phases_not_a_list_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"schema": 1, "base_model": "x", "phases": 7}))
        code = dispatch(["--no-timestamp", "recipe", "show", "--file", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        check_schema("error", json.loads(captured.err))

    def test_round_trip_through_file(self, capsys, tmp_path):
        path = tmp_path / "manifest.json"
        run_cli(capsys, "recipe", "emit", "--out", str(path))
        out = run_cli(capsys, "recipe", "show", "--file", str(path)).out
        assert out == GOLDEN.read_text(encoding="utf-8")

    def test_emit_to_stdout_matches_golden(self, capsys):
        out = run_cli(capsys, "recipe", "emit").out
        assert out == GOLDEN.read_text(encoding="utf-8")


class TestContract:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            dispatch(["no-such-command"])
        assert excinfo.value.code == 2

    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            dispatch(["census"])
        assert excinfo.value.code == 2

    def test_byte_identical_without_timestamp(self, capsys):
        first = run_cli(capsys, "census", "--limit", "1000").out
        second = run_cli(capsys, "census", "--limit", "1000").out
        assert first == second

    def test_seeded_subcommands_are_byte_identical(self, capsys):
        ringsim_argv = ("ringsim", "--seq-len", "32", "--devices", "4",
                        "--q-chunk", "4", "--kv-chunk", "8", "--seed", "9")
        grid_argv = ("niah-grid", "--lengths", "600", "--depths", "0,100",
                     "--trials", "1", "--stub", "echo", "--seed", "4")
        for argv in (ringsim_argv, grid_argv):
            assert run_cli(capsys, *argv).out == run_cli(capsys, *argv).out

    def test_timestamp_present_by_default(self, capsys):
        code = dispatch(["census", "--limit", "16"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert "timestamp" in doc

    def test_version_via_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "longctx", "--version"],
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout.startswith("longctx 0.1.0 (schema 1)")

    def test_entry_point_smoke(self):
        proc = subprocess.run(
            [sys.executable, "-m", "longctx", "--no-timestamp", "census", "--limit", "257"],
            capture_output=True, text=True, check=True,
        )
        assert json.loads(proc.stdout)["distinct"] == 257
