"""CLI contract: schemas, exit codes, determinism, and flagship outputs."""

import contextlib
import dataclasses
import hashlib
import io
import json
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from longctx import niah, recipe, ringsim, rope
from longctx.cli import dispatch

GOLDEN = Path(__file__).parent / "data" / "megabeam_manifest.json"
# json decodes nesting by recursion; 200,000 levels pass the interpreter's limit.
DEEPLY_NESTED = "[" * 200_000 + "]" * 200_000


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


def run_domain_error(capsys, *argv):
    """Exit 1 with nothing on stdout and a schema-valid JSON error on stderr."""
    code = dispatch(["--no-timestamp", *argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "", captured.err
    error = json.loads(captured.err)
    check_schema("error", error)
    return error["error"]


class TestCensus:
    def test_output_and_schema(self, capsys):
        doc = run_json(capsys, "census", "--limit", "512")
        check_schema("census", doc)
        assert doc["distinct"] == 385
        assert doc["collision_rate"] == pytest.approx(1 - 385 / 512)

    def test_limit_beyond_float64_is_domain_error(self, capsys):
        error = run_domain_error(capsys, "census", "--limit", str(10**400))
        assert error["type"] == "ValueError" and "float64" in error["message"]


class TestRopePlan:
    def test_recommends_75m_for_half_mega_context(self, capsys):
        doc = run_json(
            capsys,
            "rope-plan", "--context-len", "524288",
            "--candidates", "25000000,75000000", "--head-dim", "128",
        )
        check_schema("rope-plan", doc)
        assert doc["recommended"] == 75_000_000

    def test_unparsable_candidate_is_domain_error(self, capsys):
        error = run_domain_error(capsys, "rope-plan", "--context-len", "524288", "--candidates", "1,x")
        assert error["type"] == "ValueError" and "cannot parse list '1,x'" in error["message"]

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

    @pytest.mark.parametrize("P", [1, 2, 5])
    def test_trace_steps_are_the_printed_schedule(self, capsys, P):
        doc = run_json(
            capsys, "ringsim", "--seq-len", "20", "--devices", str(P), "--q-chunk", "2", "--kv-chunk", "2"
        )
        assert ringsim.RingTrace(P).steps == doc["schedule"]

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

    @pytest.mark.parametrize(
        "seq_len, chunk, segments",
        [(32, 4, "10,10"), (32, 4, "32,0"), (32, 4, "16,x"), (8, 4, ""), (129_536, 512, "129535")],
    )
    def test_bad_segments_fail_before_the_problem_is_drawn(self, capsys, seq_len, chunk, segments):
        # 129,536 = 2^9 x 11 x 23 is near the longest S random_problem admits at d = 1, where it
        # would allocate and draw three S x d float64 arrays before the list was read.
        drawn = AssertionError("random_problem ran before --segments was checked")
        with mock.patch.object(ringsim, "random_problem", side_effect=drawn):
            error = run_domain_error(
                capsys,
                "ringsim", "--seq-len", str(seq_len), "--devices", "1", "--q-chunk", str(chunk),
                "--kv-chunk", str(chunk), "--head-dim", "1", "--segments", segments,
            )
        assert error["type"] == "ValueError"

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

    def test_negative_head_dim_is_domain_error(self, capsys):
        # Checked before the working-set arithmetic, so numpy never sees the shape.
        error = run_domain_error(
            capsys, "ringsim", "--seq-len", "8", "--devices", "2", "--q-chunk", "2", "--kv-chunk", "2",
            "--head-dim", "-4",
        )
        assert (error["type"], error["message"]) == ("ValueError", "head_dim must be >= 1, got -4")

    def test_dump_weights_bytes_match_dense_savetxt(self, capsys, tmp_path):
        # 520 tokens span three oracle strips of 252, 252 and 16 rows; the
        # middle document straddles both strip edges.
        dump = tmp_path / "weights.csv"
        run_json(
            capsys,
            "ringsim", "--seq-len", "520", "--devices", "2", "--q-chunk", "20",
            "--kv-chunk", "26", "--seed", "3", "--segments", "100,300,120",
            "--dump-weights", str(dump),
        )
        problem = ringsim.random_problem(520, 16, np.random.default_rng(3), num_segments=1)
        problem = dataclasses.replace(
            problem, segment_ids=np.repeat(np.arange(3), [100, 300, 120])
        )
        expected = tmp_path / "expected.csv"
        np.savetxt(expected, ringsim.attention_weights(problem), delimiter=",")
        assert dump.read_bytes() == expected.read_bytes()

    def test_dump_weights_beside_the_split_oracle(self, capsys, tmp_path):
        # At S = 1024 the oracle splits into two groups on four CPUs (the ring keeps one);
        # the dump is its own in-order walk, so stdout and the CSV match the one-CPU run.
        argv = [
            "ringsim", "--seq-len", "1024", "--devices", "4", "--q-chunk", "64", "--kv-chunk", "128",
            "--head-dim", "64", "--seed", "5", "--segments", "300,424,300", "--dump-weights",
        ]
        runs = []
        for n in (1, 4):
            dump = tmp_path / f"weights_{n}.csv"
            with (
                mock.patch.object(ringsim, "_usable_cpus", lambda: n),
                mock.patch.object(ringsim, "_run_groups", wraps=ringsim._run_groups) as run,
            ):
                out = run_cli(capsys, *argv, str(dump)).out
            runs.append(([c.args[1] for c in run.call_args_list], out, dump.read_bytes()))
        (one_cpu, *alone), (four_cpus, *split) = runs
        assert (one_cpu, four_cpus) == ([1, 1], [1, 2])
        assert split == alone

    @pytest.mark.parametrize("seq_len, chunk", [(4096, 64), (3214, 1607)])
    def test_dump_past_its_byte_bound_fails_before_allocating(self, capsys, tmp_path, seq_len, chunk):
        # 26 * S^2 bytes pass MAX_DUMP_BYTES from S = 3214 on; the refusal comes before random_problem.
        dump = tmp_path / "weights.csv"
        tracemalloc.start()
        try:
            error = run_domain_error(
                capsys,
                "ringsim", "--seq-len", str(seq_len), "--devices", "1",
                "--q-chunk", str(chunk), "--kv-chunk", str(chunk), "--dump-weights", str(dump),
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert error["type"] == "ValueError" and "268435456" in error["message"]
        assert not dump.exists()
        assert peak < 2**20

    @pytest.mark.parametrize(
        "seq_len, chunk, bound",
        [
            (10**12, 10**12, "MAX_WORKING_SET_BYTES"),  # one block, 10^12-token Q/K/V
            (65536, 65536, "MAX_WORKING_SET_BYTES"),  # one block whose scores and mask take 64 GiB
            (2**30, 1, "MAX_CLASSIFIED_BLOCKS"),  # 2^60 one-token blocks
        ],
    )
    def test_sizes_beyond_the_bounds_fail_before_allocating(self, capsys, seq_len, chunk, bound):
        tracemalloc.start()
        try:
            error = run_domain_error(
                capsys,
                "ringsim", "--seq-len", str(seq_len), "--devices", "1",
                "--q-chunk", str(chunk), "--kv-chunk", str(chunk),
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert error["type"] == "ValueError"
        assert str(getattr(ringsim, bound)) in error["message"]
        assert peak < 2**20

    def test_devices_past_the_schedule_bound_fail_before_drawing(self, capsys):
        # The mesh is valid (1026 / 513 = 2 tokens per device), but its 513^2 schedule entries are refused.
        ringsim.RingMesh(513, 2, 2).validate_for(1026)
        with mock.patch.object(ringsim, "random_problem", side_effect=AssertionError("a problem was drawn")):
            error = run_domain_error(
                capsys, "ringsim", "--seq-len", "1026", "--devices", "513", "--q-chunk", "2", "--kv-chunk", "2"
            )
        assert error["type"] == "ValueError" and "MAX_SCHEDULE_DEVICES=512" in error["message"]


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

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (("--extra-term", "lookup_table=5"), "reserved"),
            (("--extra-term", "a=-5"), "non-negative"),
            (("--budget", "-1"), "budget_bytes must be positive"),
            (("--budget", "0"), "budget_bytes must be positive"),
            (("--extra-term", "a=1", "--extra-term", "a=2"), "more than once"),
            (("--extra-term", "=5"), "non-blank"),  # would be a "" breakdown key
            (("--extra-term", " =5"), "non-blank"),
            (("--extra-term", "a =5"), "no surrounding whitespace"),
            (("--extra-term", "a=1e3"), "--extra-term bytes must be an integer, got 'a=1e3'"),
            (("--extra-term", "foo"), "--extra-term must look like name=bytes, got 'foo'"),
        ],
        ids=[
            "table-name", "negative-term", "negative-budget", "zero-budget", "repeated-term", "empty-name",
            "blank-name", "padded-name", "non-integer-bytes", "no-equals",
        ],
    )
    def test_report_inputs_that_break_the_total_are_domain_errors(self, capsys, flags, message):
        error = run_domain_error(
            capsys, "memplan", "--devices", "8", "--seq-len", "524288",
            "--q-chunk", "2048", "--kv-chunk", "4096", *flags,
        )
        assert error["type"] == "ValueError"
        assert message in error["message"]

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

    @pytest.mark.parametrize(
        "flags",
        [("--devices", "0"), ("--devices", "-2"), ("--devices", "2", "--min-q-chunk", "0")],
    )
    def test_search_nonpositive_sizes_are_domain_errors(self, capsys, flags):
        error = run_domain_error(
            capsys, "memplan-search", "--seq-len", "8", "--budget", "10000", *flags
        )
        assert error["type"] == "ValueError"

    @pytest.mark.parametrize(
        "flags, field",
        [(("--max-q-chunk", "0"), "max_q_chunk"), (("--min-q-chunk", "64", "--max-q-chunk", "32"), "max_q_chunk")],
    )
    def test_search_maximum_below_its_minimum_is_domain_error(self, capsys, flags, field):
        # Either bound admits no chunk; the search used to print "plan": null with exit 0.
        error = run_domain_error(
            capsys, "memplan-search", "--devices", "1", "--seq-len", "64", "--budget", str(2**40), *flags
        )
        assert error["type"] == "ValueError" and f"{field} must be at least" in error["message"]

    @pytest.mark.parametrize("seq_len", [2**40 + 1, 10**30])
    def test_search_past_the_seq_len_bound_is_domain_error(self, capsys, seq_len):
        # Refused before the divisor scan, which would take about 100 s at 10^18 and never end at 10^30.
        error = run_domain_error(
            capsys, "memplan-search", "--devices", "1", "--seq-len", str(seq_len), "--budget", "1"
        )
        assert error["type"] == "ValueError" and "MAX_SEARCH_SEQ_LEN=1099511627776" in error["message"]

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

    @settings(max_examples=40, deadline=None)
    @given(
        tokens=st.integers(45, 600_000),
        depth=st.floats(0, 100) | st.sampled_from([0.0, 100.0]),
        payload=st.text("0123456789", min_size=1, max_size=12),
        seed=st.integers(0, 2**31),
        timestamp=st.booleans(),
    )
    def test_gen_output_is_what_json_dumps_writes(self, tokens, depth, payload, seed, timestamp):
        # The document is written verbatim, not through json.dumps; the bytes must not differ.
        out = io.StringIO()
        argv = ["niah-gen", "--haystack-tokens", str(tokens), "--depth", repr(depth),
                "--payload", payload, "--seed", str(seed)]  # fmt: skip
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = dispatch(argv if timestamp else ["--no-timestamp", *argv])
        if code == 1:  # too small for needle plus question
            assert out.getvalue() == ""
            return
        doc = json.loads(out.getvalue())
        assert code == 0 and ("timestamp" in doc) == timestamp
        assert json.dumps(doc, indent=2) + "\n" == out.getvalue()

    def test_gen_stdout_is_the_only_copy_of_the_haystack(self):
        # One join builds the JSON head, document and tail; a captured StringIO
        # hands that string back, so no 2.26 MB document is joined first (2.0x).
        argv = ["--no-timestamp", "niah-gen", "--haystack-tokens", "524288", "--depth", "37.5",
                "--payload", "4096512", "--seed", "1"]  # fmt: skip
        with contextlib.redirect_stdout(io.StringIO()):
            dispatch(argv)  # the filler tables are read once per process
        out = io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(out):
                code = dispatch(argv)
            stdout = out.getvalue()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and len(stdout) == 2_260_341
        assert peak <= 1.5 * len(stdout)

    @pytest.mark.parametrize("flag", ["--payload", "--expected"])
    def test_non_ascii_digits_are_domain_errors(self, capsys, flag):
        argv = {
            "--payload": ("niah-gen", "--haystack-tokens", "600", "--depth", "50", "--payload", "²³"),
            "--expected": ("niah-score", "--expected", "²³", "--answer", "²³"),
        }[flag]
        error = run_domain_error(capsys, *argv)
        assert error["type"] == "ValueError" and "ASCII digits" in error["message"]

    @pytest.mark.parametrize("concurrency", ["1", "2"])
    def test_grid_with_endless_trials_fails_fast(self, capsys, concurrency):
        # The first task fails. Tasks are built lazily and the pool takes a bounded
        # window of them, so none of the 2**60 is built ahead.
        error = run_domain_error(
            capsys, "niah-grid", "--lengths", "8", "--depths", "0", "--stub", "echo",
            "--trials", str(2**60), "--concurrency", concurrency,
        )
        assert "cannot hold needle" in error["message"]

    def test_score_truncated_example(self, capsys):
        doc = run_json(
            capsys, "niah-score", "--expected", "7418118", "--answer", "I recall 741811.",
        )
        check_schema("niah-score", doc)
        assert doc["verdict"] == "truncated"

    def test_score_reads_answer_file(self, capsys, tmp_path):
        answer = tmp_path / "answer.txt"
        answer.write_text("I recall 741811.\n", encoding="utf-8")
        doc = run_json(capsys, "niah-score", "--expected", "7418118", "--answer-file", str(answer))
        check_schema("niah-score", doc)
        assert (doc["verdict"], doc["matched_prefix_len"]) == ("truncated", 6)

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

    @pytest.mark.parametrize(
        "depths, header",
        [
            ("50,50.0000001", "haystack_tokens,depth_50,depth_50.0000001"),
            ("0.1,0.1000001", "haystack_tokens,depth_0.1,depth_0.1000001"),
        ],
    )
    def test_grid_csv_names_distinct_depths_apart(self, capsys, depths, header):
        # :g rounds to six significant digits, which would give both columns one name.
        out = run_cli(
            capsys, "niah-grid", "--lengths", "600", "--depths", depths,
            "--stub", "echo", "--format", "csv",
        ).out
        assert out.splitlines()[0] == header

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

    def test_deeply_nested_api_shape_is_domain_error(self, capsys, tmp_path):
        shape = tmp_path / "shape.json"
        shape.write_text(DEEPLY_NESTED)
        error = run_domain_error(
            capsys, "niah-grid", "--lengths", "600", "--depths", "50",
            "--endpoint", "http://127.0.0.1:9/complete", "--api-shape", str(shape),
        )
        assert error["type"] == "ValueError" and "nests too deeply" in error["message"]

    @pytest.mark.parametrize(
        "flags", [("--endpoint", "http://127.0.0.1:9/complete"), ("--api-shape", "/nonexistent")]
    )
    def test_grid_stub_with_endpoint_flags_is_usage_error(self, capsys, flags):
        # A stub sends nothing, so an endpoint or API shape beside it would be silently ignored.
        with pytest.raises(SystemExit) as excinfo:
            dispatch(["--no-timestamp", "niah-grid", "--lengths", "600", "--depths", "50",
                      "--stub", "echo", *flags])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2 and captured.out == "" and "usage:" in captured.err

    def test_grid_unknown_metric_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            dispatch(["--no-timestamp", "niah-grid", "--lengths", "600", "--depths", "0",
                      "--stub", "echo", "--format", "csv", "--metric", "bogus"])
        assert excinfo.value.code == 2 and capsys.readouterr().out == ""

    @pytest.mark.parametrize("concurrency", ["0", "-1", str(niah.MAX_CONCURRENCY + 1)])
    def test_grid_concurrency_outside_the_bound_is_domain_error(self, capsys, concurrency):
        # Rejected in run_grid before its thread pool is made.
        error = run_domain_error(
            capsys, "niah-grid", "--lengths", "600", "--depths", "0", "--stub", "echo",
            "--concurrency", concurrency,
        )
        assert "MAX_CONCURRENCY" in error["message"]

    @pytest.mark.parametrize("max_tokens", ["0", "-1"])
    def test_grid_nonpositive_max_tokens_is_domain_error(self, capsys, max_tokens):
        # Rejected before any case is generated, so no client would be asked for it.
        error = run_domain_error(
            capsys, "niah-grid", "--lengths", "600", "--depths", "0", "--stub", "echo",
            "--max-tokens", max_tokens,
        )
        assert (error["type"], error["message"]) == ("ValueError", f"max_tokens must be >= 1, got {max_tokens}")

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
        check_schema("recipe-validate", doc)
        assert doc["ok"] is False and "error" not in doc
        expected = recipe.validate(recipe.parse_manifest(path.read_text(encoding="utf-8")))
        assert expected and doc["violations"] == [dataclasses.asdict(v) for v in expected]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("token_budget", None), ("index", "1"), ("rope_theta", True), ("mix", {"books": None}),
            # Fields the manifest schema rejects, so show must not print them back.
            ("checkpoint", 5), ("phase_id", None), ("rope_theta", float("nan")),
        ],
    )
    def test_wrongly_typed_scalar_is_domain_error(self, capsys, tmp_path, field, value):
        doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
        doc["phases"][0][field] = value
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        error = run_domain_error(capsys, "recipe", "show", "--file", str(path))
        assert error["type"] == "ManifestError"
        assert f"phases[0].{field}" in error["message"]

    def test_validate_reports_an_empty_phase_list(self, capsys, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"schema": 1, "base_model": "x", "phases": []}))
        doc = run_json(capsys, "recipe", "validate", "--file", str(path))
        check_schema("recipe-validate", doc)
        assert doc["ok"] is False and [v["field"] for v in doc["violations"]] == ["phases"]
        run_domain_error(capsys, "recipe", "show", "--file", str(path))

    @pytest.mark.parametrize("action", ["show", "validate"])
    def test_phases_not_a_list_is_domain_error(self, capsys, tmp_path, action):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"schema": 1, "base_model": "x", "phases": 7}))
        code = dispatch(["--no-timestamp", "recipe", action, "--file", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        check_schema("error", json.loads(captured.err))

    @pytest.mark.parametrize("action", ["show", "validate"])
    def test_boolean_schema_version_is_domain_error(self, capsys, tmp_path, action):
        doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
        doc["schema"] = True
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        error = run_domain_error(capsys, "recipe", action, "--file", str(path))
        assert error["type"] == "ManifestError" and "schema" in error["message"]

    @pytest.mark.parametrize("action", ["show", "validate", "emit"])
    def test_deeply_nested_file_is_domain_error(self, capsys, tmp_path, action):
        path = tmp_path / "manifest.json"
        path.write_text(DEEPLY_NESTED)
        error = run_domain_error(capsys, "recipe", action, "--file", str(path))
        assert error["type"] == "ManifestError" and "recursion" in error["message"]

    @pytest.mark.parametrize(
        "phase, entry, field",
        [(0, None, "token_budget"), (3, 0, "sequence_spec[0]")],
        ids=["budget", "subtotal"],
    )
    def test_validate_lists_counts_beyond_float64(self, capsys, tmp_path, phase, entry, field):
        # A tolerance times 10**400 has no float; the comparison stays in integers and fractions.
        doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
        if entry is None:
            doc["phases"][phase]["token_budget"] = 10**400
        else:
            doc["phases"][phase]["sequence_spec"][entry]["token_subtotal"] = 10**400
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = run_json(capsys, "recipe", "validate", "--file", str(path))
        check_schema("recipe-validate", out)
        assert out["ok"] is False and field in [v["field"] for v in out["violations"]]

    @pytest.mark.parametrize("action", ["show", "validate"])
    def test_out_without_emit_is_usage_error(self, capsys, tmp_path, action):
        # Only emit writes a file, so --out beside show or validate would be silently ignored.
        target = tmp_path / "manifest.json"
        with pytest.raises(SystemExit) as excinfo:
            dispatch(["--no-timestamp", "recipe", action, "--out", str(target)])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2 and captured.out == "" and "usage:" in captured.err
        assert not target.exists()

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

    @pytest.mark.parametrize("argv", [("census", "--limit", "16"), ("recipe", "show")])
    def test_failed_stdout_write_is_domain_error(self, argv):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        err = io.StringIO()
        with contextlib.redirect_stdout(ClosedPipe()), contextlib.redirect_stderr(err):
            code = dispatch(["--no-timestamp", *argv])
        error = json.loads(err.getvalue())
        check_schema("error", error)
        assert code == 1 and error["error"]["type"] == "BrokenPipeError"

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


# One --no-timestamp argv per subcommand, with the sha256 of its stdout.
# A change to how argv reaches a handler must leave every byte in place.
STDOUT_DIGESTS = [
    pytest.param(
        ("census", "--limit", "524288"),
        "97867e23df69346361e327955231c501fb38bba2c508364ff1c853bd628afdd2",
        id="census",
    ),
    pytest.param(
        ("rope-plan", "--context-len", "524288",
         "--candidates", "25000000,75000000,100000000", "--head-dim", "128"),
        "9897832f4d4e75c4f3496154da8712f0d338aaeb370de386650e935aaa2cdf67",
        id="rope-plan",
    ),
    pytest.param(
        ("rope-report", "--theta-base", "75000000", "--head-dim", "16",
         "--max-position", "524288"),
        "ca2dcc2c439a0a2c9d3e6a746105cd5e524dcc5f363a4fa02245b2574ebc69b5",
        id="rope-report-csv",
    ),
    pytest.param(
        ("rope-report", "--theta-base", "75000000", "--head-dim", "65536",
         "--max-position", "524288"),
        "e98268373237cc230c36b673d3bd404594c848353dfaeaf2177c923a268f65a0",
        id="rope-report-max-head-dim",
    ),
    pytest.param(
        ("ringsim", "--seq-len", "32", "--devices", "4", "--q-chunk", "4",
         "--kv-chunk", "8", "--seed", "9"),
        "e536797267037e724477f66a3f1a139300c91ea458006dc39e1724d15415514f",
        id="ringsim",
    ),
    pytest.param(
        ("ringsim", "--seq-len", "32", "--devices", "2", "--q-chunk", "4",
         "--kv-chunk", "4", "--seed", "1", "--segments", "10,22"),
        "568ffe2888aad1d6c80f95c6de39b95c91141719396ea66eef4e21a011b84da9",
        id="ringsim-segments",
    ),
    pytest.param(
        ("memplan", "--devices", "8", "--seq-len", "524288", "--q-chunk", "2048",
         "--kv-chunk", "4096", "--budget", str(16 * 2**30),
         "--extra-term", "activations=1073741824"),
        "984debfceec2e6546e4002bb7969da37e26dc5b8968df74650a66196700b1ec2",
        id="memplan",
    ),
    pytest.param(
        ("memplan-search", "--devices", "8", "--seq-len", "524288",
         "--budget", str(16 * 2**30), "--min-q-chunk", "1024",
         "--min-kv-chunk", "2048", "--power-of-two"),
        "8d7245488ddf9794eb65a2fc7b27aa36dd9c08d160afe0de34ed6aa26df234b6",
        id="memplan-search",
    ),
    pytest.param(
        ("niah-gen", "--haystack-tokens", "2000", "--depth", "50",
         "--payload", "7418118", "--seed", "1"),
        "011cce21f784fd107a1a850da0f48453aefe5f5a9b94c4b8898e9c812533d34d",
        id="niah-gen",
    ),
    pytest.param(
        ("niah-score", "--expected", "7418118", "--answer", "I recall 741811"),
        "36d989b1f4ccdac47bbe1b9a59abcb8b4b3e3d47c83b6720ab8ba32603a8e9b7",
        id="niah-score",
    ),
    pytest.param(
        ("niah-grid", "--lengths", "600,900", "--depths", "0,50,100",
         "--trials", "2", "--stub", "drop-last", "--seed", "5"),
        "2ae542a93919497e0d21d490d65f1f02676609972614c7db0776878aee5349dd",
        id="niah-grid",
    ),
    pytest.param(
        ("recipe", "validate"),
        "cf6c5b06ec9851af53685dba50c06ed8bfa32337068d2567460bffec8311e767",
        id="recipe-validate",
    ),
]


@pytest.mark.parametrize("argv, digest", STDOUT_DIGESTS)
def test_stdout_digest_is_pinned(capsys, argv, digest):
    out = run_cli(capsys, *argv).out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestParserReuse:
    MEMPLAN = ("memplan", "--devices", "8", "--seq-len", "524288",
               "--q-chunk", "2048", "--kv-chunk", "4096")

    def test_appended_flag_does_not_carry_over(self, capsys):
        assert run_json(capsys, *self.MEMPLAN, "--extra-term", "a=1")["breakdown"]["a"] == 1
        assert "a" not in run_json(capsys, *self.MEMPLAN)["breakdown"]

    def test_grid_without_endpoint_after_a_grid_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.delenv("LONGCTX_ENDPOINT", raising=False)
        grid = ("niah-grid", "--lengths", "600", "--depths", "0", "--trials", "1")
        run_json(capsys, *grid, "--stub", "echo")
        with pytest.raises(SystemExit) as excinfo:
            dispatch(["--no-timestamp", *grid])
        assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "argv, bound",
    [
        (("niah-gen", "--haystack-tokens", str(niah.MAX_HAYSTACK_TOKENS + 1), "--depth", "50",
          "--payload", "7"), "MAX_HAYSTACK_TOKENS=16777216"),
        (("niah-grid", "--lengths", f"600,{10**15}", "--depths", "50", "--stub", "echo"),
         "MAX_HAYSTACK_TOKENS=16777216"),
        (("rope-report", "--theta-base", "1e6", "--max-position", "100",
          "--head-dim", str(rope.MAX_HEAD_DIM + 2)), "MAX_HEAD_DIM=65536"),
        (("rope-plan", "--context-len", "524288", "--candidates", "1e8",
          "--head-dim", str(2**60)), "MAX_HEAD_DIM=65536"),
    ],
    ids=["niah-gen", "niah-grid", "rope-report", "rope-plan"],
)
def test_sizes_beyond_the_bounds_fail_before_allocating(capsys, argv, bound):
    tracemalloc.start()
    try:
        error = run_domain_error(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert error["type"] == "ValueError" and bound in error["message"]
    assert peak < 2**20


@pytest.mark.parametrize(
    "argv",
    [
        ("rope-plan", "--context-len", str(10**400), "--candidates", "1e6"),
        ("rope-report", "--theta-base", "1e6", "--max-position", str(10**400)),
        ("memplan", "--devices", "1", "--seq-len", str(2**1100),
         "--q-chunk", str(2**1100), "--kv-chunk", str(2**1100)),
    ],
    ids=["rope-plan", "rope-report", "memplan"],
)
def test_beyond_float_range_is_domain_error(capsys, argv):
    assert run_domain_error(capsys, *argv)["type"] == "OverflowError"


@pytest.mark.parametrize(
    "argv, text",
    [
        (("ringsim", "--seq-len", "8", "--devices", "1", "--q-chunk", "4", "--kv-chunk", "4",
          "--segments", "4,,4"), "4,,4"),
        (("niah-grid", "--lengths", "2000,,16000", "--depths", "50,", "--stub", "echo"), "2000,,16000"),
        (("niah-grid", "--lengths", "2000", "--depths", "50,", "--stub", "echo"), "50,"),
        (("rope-plan", "--context-len", "4096", "--candidates", ",,1e6"), ",,1e6"),
    ],
    ids=["doubled", "doubled-first-of-two", "trailing", "leading"],
)
def test_empty_list_item_is_domain_error(capsys, argv, text):
    # A leading, doubled or trailing comma is a typo, not a shorter list.
    error = run_domain_error(capsys, *argv)
    assert error["type"] == "ValueError" and f"cannot parse list {text!r}" in error["message"]


@pytest.mark.parametrize(
    "argv, seed",
    [
        (("ringsim", "--seq-len", "8", "--devices", "1", "--q-chunk", "4", "--kv-chunk", "4", "--seed", "-1"),
         "seed must be >= 0, got -1"),
        (("niah-gen", "--haystack-tokens", "600", "--depth", "50", "--payload", "7", "--seed", "-1"),
         "seed must be >= 0, got -1"),
        (("niah-grid", "--lengths", "600", "--depths", "50", "--stub", "echo", "--seed", "-5"),
         "base_seed must be >= 0, got -5"),
    ],
    ids=["ringsim", "niah-gen", "niah-grid"],
)
def test_negative_seed_is_named_before_a_generator_is_made(capsys, argv, seed):
    made = AssertionError("a generator was made before the seed was checked")
    with mock.patch.object(np.random, "default_rng", side_effect=made):
        error = run_domain_error(capsys, *argv)
    assert error == {"type": "ValueError", "message": seed}
