"""Haystack generation, verdict scoring, grid execution, and the HTTP client."""

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from longctx.niah import (
    ApiShape,
    ClientError,
    DropLastDigitStub,
    EchoStub,
    FixtureClient,
    HttpCompletionClient,
    NiahCase,
    SilentStub,
    Verdict,
    build_prompt,
    estimate_tokens,
    filler_sentences,
    generate_case,
    grid_csv,
    run_grid,
    score,
)

FIXTURE = Path(__file__).parent / "data" / "niah_grid_fixture.json"


def make_case(**kwargs):
    defaults = dict(haystack_tokens=1500, depth_percent=50.0, needle_payload="7418118", seed=11)
    defaults.update(kwargs)
    return NiahCase(**defaults)


class TestFiller:
    def test_filler_has_no_digits(self):
        for sentence in filler_sentences():
            assert not any(ch.isdigit() for ch in sentence)

    def test_filler_is_plentiful_and_varied(self):
        pool = filler_sentences()
        assert len(pool) >= 50
        lengths = {len(s.split()) for s in pool}
        assert min(lengths) <= 8 and max(lengths) >= 18


class TestGenerate:
    def test_deterministic_for_fixed_seed(self):
        a = generate_case(make_case())
        b = generate_case(make_case())
        assert a.document == b.document
        assert a.needle_char_offset == b.needle_char_offset

    def test_different_seeds_differ(self):
        assert generate_case(make_case(seed=1)).document != generate_case(make_case(seed=2)).document

    def test_token_target_within_two_percent(self):
        for target in (500, 1500, 8000):
            gen = generate_case(make_case(haystack_tokens=target))
            assert abs(gen.estimated_tokens - target) <= 0.02 * target

    def test_payload_occurs_exactly_once(self):
        gen = generate_case(make_case())
        assert gen.document.count(gen.expected) == 1

    def test_depth_zero_puts_needle_first(self):
        gen = generate_case(make_case(depth_percent=0.0))
        assert gen.needle_sentence_index == 0
        assert gen.document.startswith(gen.case.needle_template.format(payload="7418118"))

    def test_depth_hundred_puts_needle_last(self):
        gen = generate_case(make_case(depth_percent=100.0))
        assert gen.document.rstrip().endswith("7418118.")

    def test_depth_fifty_lands_mid_document(self):
        gen = generate_case(make_case(haystack_tokens=20_000, depth_percent=50.0))
        fraction = gen.needle_char_offset / len(gen.document)
        assert 0.45 <= fraction <= 0.55

    def test_depth_monotone_in_offset(self):
        offsets = [
            generate_case(make_case(depth_percent=d)).needle_char_offset
            for d in (0, 10, 25, 50, 75, 90, 100)
        ]
        assert offsets == sorted(offsets)

    def test_offset_points_at_needle(self):
        gen = generate_case(make_case(depth_percent=37.0))
        needle = gen.case.needle_template.format(payload=gen.expected)
        assert gen.document[gen.needle_char_offset : gen.needle_char_offset + len(needle)] == needle

    def test_too_small_target_rejected(self):
        with pytest.raises(ValueError):
            generate_case(make_case(haystack_tokens=10))

    def test_custom_tokenizer_hook(self):
        tokenizer = lambda text: len(text.split())  # 1 token per word
        gen = generate_case(make_case(haystack_tokens=700), tokenizer=tokenizer)
        assert abs(tokenizer(gen.document) - 700) <= 0.02 * 700

    def test_estimate_tokens_default_rate(self):
        assert estimate_tokens("one two three four") == pytest.approx(4 * 1.3)

    def test_invalid_depth_rejected(self):
        with pytest.raises(ValueError):
            make_case(depth_percent=101)

    def test_non_digit_payload_rejected(self):
        with pytest.raises(ValueError):
            make_case(needle_payload="12a4")


class TestScore:
    def test_exact(self):
        assert score("7418118", "the number is 7418118.").verdict is Verdict.EXACT

    def test_truncated_last_digit_dropped(self):
        result = score("7418118", "The special magic number is 741811")
        assert result.verdict is Verdict.TRUNCATED
        assert result.matched_prefix_len == 6

    def test_wrong(self):
        assert score("7418118", "the number is 9999").verdict is Verdict.WRONG

    def test_empty(self):
        assert score("7418118", "I could not find any number.").verdict is Verdict.EMPTY
        assert score("7418118", "   ").verdict is Verdict.EMPTY

    def test_punctuation_around_payload_still_exact(self):
        assert score("7418118", "(7418118).").verdict is Verdict.EXACT

    def test_longer_run_containing_payload_is_wrong(self):
        # 77418118 starts with 7741..., not a truncation of 7418118.
        result = score("7418118", "it is 77418118")
        assert result.verdict is Verdict.WRONG

    def test_short_prefix_is_wrong_not_truncated(self):
        result = score("7418118", "something about 741")
        assert result.verdict is Verdict.WRONG
        assert result.matched_prefix_len == 3

    def test_half_length_prefix_counts_as_truncated(self):
        assert score("7418118", "7418").verdict is Verdict.TRUNCATED
        assert score("12345678", "1234").verdict is Verdict.TRUNCATED

    def test_exact_beats_truncated_when_both_present(self):
        assert score("7418118", "741811 or 7418118").verdict is Verdict.EXACT

    def test_rejects_non_digit_expected(self):
        with pytest.raises(ValueError):
            score("", "x")
        with pytest.raises(ValueError):
            score("12x", "x")


class TestStubs:
    def test_echo_stub_finds_needle(self):
        gen = generate_case(make_case())
        answer = EchoStub().complete(build_prompt(gen))
        assert score(gen.expected, answer).verdict is Verdict.EXACT

    def test_drop_last_digit_stub(self):
        gen = generate_case(make_case())
        answer = DropLastDigitStub().complete(build_prompt(gen))
        assert score(gen.expected, answer).verdict is Verdict.TRUNCATED


class TestGrid:
    def test_echo_grid_is_all_exact(self):
        result = run_grid([600, 900], [0, 50, 100], 2, EchoStub(), base_seed=7)
        for cell in result.cells:
            assert cell.rate("exact") == 1.0

    def test_drop_last_grid_is_all_truncated(self):
        result = run_grid([600], [0, 100], 2, DropLastDigitStub(), base_seed=7)
        for cell in result.cells:
            assert cell.rate("truncated") == 1.0

    def test_silent_grid_is_all_empty(self):
        result = run_grid([600], [50], 2, SilentStub(), base_seed=7)
        for cell in result.cells:
            assert cell.rate("empty") == 1.0

    def test_fixture_grid_matches_hand_tally(self):
        doc = json.loads(FIXTURE.read_text(encoding="utf-8"))
        grid = doc["grid"]
        client = FixtureClient(doc["responses"])
        result = run_grid(
            grid["lengths"], grid["depths"], grid["trials"], client,
            base_seed=grid["base_seed"],
        )
        for cell in result.cells:
            want = doc["hand_tally"][str(cell.haystack_tokens)][f"{cell.depth_percent:g}"]
            for verdict in ("exact", "truncated", "wrong", "empty", "error"):
                assert cell.counts[verdict] == want.get(verdict, 0), (
                    cell.haystack_tokens, cell.depth_percent, verdict,
                )

    def test_aggregation_equals_recount_of_details(self):
        doc = json.loads(FIXTURE.read_text(encoding="utf-8"))
        result = run_grid([600, 900], [0, 50], 2, FixtureClient(doc["responses"]), base_seed=42)
        recount = {}
        for record in result.details:
            key = (record["haystack_tokens"], record["depth_percent"])
            verdict = score(record["expected"], record["answer"]).verdict.value
            assert verdict == record["verdict"]
            recount.setdefault(key, {}).setdefault(verdict, 0)
            recount[key][verdict] += 1
        for cell in result.cells:
            key = (cell.haystack_tokens, cell.depth_percent)
            for verdict, count in recount[key].items():
                assert cell.counts[verdict] == count

    def test_grid_deterministic_across_runs_and_concurrency(self):
        a = run_grid([600], [0, 100], 2, EchoStub(), base_seed=3, max_concurrency=1)
        b = run_grid([600], [0, 100], 2, EchoStub(), base_seed=3, max_concurrency=4)
        assert a.details == b.details

    def test_flaky_client_retries_and_succeeds(self):
        class Flaky:
            def __init__(self):
                self.calls = 0

            def complete(self, prompt, max_tokens=64, temperature=0.0):
                self.calls += 1
                if self.calls % 3 != 0:  # fail twice, succeed on the third
                    raise ClientError("transient")
                return EchoStub().complete(prompt)

        result = run_grid([600], [50], 1, Flaky(), base_seed=5, attempts=3, backoff=0.0)
        assert result.cells[0].rate("exact") == 1.0

    def test_dead_client_marks_error_cells_without_aborting(self):
        class Dead:
            def complete(self, prompt, max_tokens=64, temperature=0.0):
                raise ClientError("unreachable")

        result = run_grid([600], [0, 100], 2, Dead(), base_seed=5, attempts=2, backoff=0.0)
        for cell in result.cells:
            assert cell.counts["error"] == 2
        assert all("error" in record for record in result.details)

    def test_csv_matrix_shape(self):
        result = run_grid([600, 900], [0, 50, 100], 1, EchoStub(), base_seed=1)
        lines = grid_csv(result).strip().splitlines()
        assert lines[0] == "haystack_tokens,depth_0,depth_50,depth_100"
        assert len(lines) == 3
        assert lines[1].startswith("600,") and lines[1].endswith("1.000000,1.000000,1.000000")

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            run_grid([600], [0], 0, EchoStub())

    @pytest.mark.parametrize("lengths, depths", [([600, 600], [0]), ([600], [50, 50.0])])
    def test_rejects_repeated_lengths_or_depths(self, lengths, depths):
        with pytest.raises(ValueError, match="must not repeat"):
            run_grid(lengths, depths, 1, EchoStub())


class _Endpoint(BaseHTTPRequestHandler):
    """Test completion endpoint implementing the default wire shape."""

    behavior = "echo"

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        assert "prompt" in body and "max_tokens" in body and "temperature" in body
        if self.behavior == "malformed":
            payload = {"unexpected": True}
        elif self.behavior == "nested":
            payload = {"choices": [{"text": EchoStub().complete(body["prompt"])}]}
        else:
            payload = {"text": EchoStub().complete(body["prompt"])}
        data = json.dumps(payload).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture()
def endpoint():
    server = HTTPServer(("127.0.0.1", 0), _Endpoint)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/"
    finally:
        server.shutdown()
        thread.join()


class TestHttpClient:
    def test_default_wire_shape(self, endpoint):
        _Endpoint.behavior = "echo"
        client = HttpCompletionClient(endpoint)
        gen = generate_case(make_case())
        answer = client.complete(build_prompt(gen), max_tokens=32)
        assert score(gen.expected, answer).verdict is Verdict.EXACT

    def test_grid_over_http(self, endpoint):
        _Endpoint.behavior = "echo"
        client = HttpCompletionClient(endpoint)
        result = run_grid([600], [0, 100], 1, client, base_seed=9)
        assert all(cell.rate("exact") == 1.0 for cell in result.cells)

    def test_adapter_maps_nested_response(self, endpoint):
        _Endpoint.behavior = "nested"
        client = HttpCompletionClient(endpoint, shape=ApiShape(text_path="choices.0.text"))
        gen = generate_case(make_case())
        answer = client.complete(build_prompt(gen))
        assert score(gen.expected, answer).verdict is Verdict.EXACT

    def test_malformed_response_raises_client_error(self, endpoint):
        _Endpoint.behavior = "malformed"
        client = HttpCompletionClient(endpoint)
        with pytest.raises(ClientError):
            client.complete("hello")

    def test_shape_file_round_trip(self, tmp_path):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps({"text_path": "choices.0.text", "extra_body": {"model": "m"}}))
        assert ApiShape.from_file(path) == ApiShape(text_path="choices.0.text", extra_body={"model": "m"})

    @pytest.mark.parametrize(
        "doc, match",
        [
            ({"text_path": "text", "bogus_key": 1}, "unknown keys"),
            ({"text_path": 3}, "text_path must be a string"),
            ({"extra_body": []}, "extra_body must be an object"),
            ([], "must be a JSON object"),
        ],
    )
    def test_bad_shape_file_raises_value_error(self, tmp_path, doc, match):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=match):
            ApiShape.from_file(path)

    def test_unreachable_endpoint_raises_client_error(self):
        client = HttpCompletionClient("http://127.0.0.1:9/", timeout=0.2)
        with pytest.raises(ClientError):
            client.complete("hello")
