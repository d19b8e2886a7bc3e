"""Haystack generation, verdict scoring, grid execution, and the HTTP client."""

import hashlib
import json
import threading
import tracemalloc
from http.server import BaseHTTPRequestHandler, HTTPServer
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from longctx import niah
from longctx.cli import dispatch
from longctx.niah import (
    MAX_CONCURRENCY,
    MAX_HAYSTACK_TOKENS,
    ApiShape,
    ClientError,
    DropLastDigitStub,
    EchoStub,
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
PAYLOAD = "7418118"


def make_case(**kwargs):
    defaults = dict(haystack_tokens=1500, depth_percent=50.0, needle_payload=PAYLOAD, seed=11)
    defaults.update(kwargs)
    return NiahCase(**defaults)


def needle(payload):
    return niah.DEFAULT_NEEDLE_TEMPLATE.format(payload=payload)


class FixtureClient:
    """Test fake: replays recorded answers keyed by the payload found in each prompt."""

    def __init__(self, responses):
        self.responses = dict(responses)

    def complete(self, prompt, max_tokens=64, temperature=0.0):
        match = niah._first_digit_run(prompt)
        if match is None or match.group(0) not in self.responses:
            raise ClientError("no recorded response for this prompt")
        return self.responses[match.group(0)]


class TestFiller:
    def test_filler_has_no_digits(self):
        for sentence in filler_sentences():
            assert not any(ch.isdigit() for ch in sentence)

    def test_filler_is_read_once_and_immutable(self):
        pool = filler_sentences()
        assert isinstance(pool, tuple) and filler_sentences() is pool

    def test_filler_is_json_plain(self):
        # The CLI writes documents into its JSON verbatim on this invariant.
        for sentence in filler_sentences():
            assert json.dumps(sentence) == f'"{sentence}"'

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
        assert gen.document.count(PAYLOAD) == 1

    def test_depth_zero_puts_needle_first(self):
        gen = generate_case(make_case(depth_percent=0.0))
        assert gen.needle_sentence_index == 0
        assert gen.document.startswith(needle(PAYLOAD))

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
        planted = needle(PAYLOAD)
        assert gen.document[gen.needle_char_offset : gen.needle_char_offset + len(planted)] == planted

    def test_too_small_target_rejected(self):
        with pytest.raises(ValueError):
            generate_case(make_case(haystack_tokens=10))

    def test_estimate_tokens_default_rate(self):
        assert estimate_tokens("one two three four") == pytest.approx(4 * 1.3)

    def test_invalid_depth_rejected(self):
        with pytest.raises(ValueError):
            make_case(depth_percent=101)

    def test_non_digit_payload_rejected(self):
        with pytest.raises(ValueError):
            make_case(needle_payload="12a4")

    def test_default_needle_is_json_plain(self):
        # niah-gen writes its document, needle included, into its JSON verbatim on this.
        planted = needle("0123456789")
        assert json.dumps(planted) == f'"{planted}"'

    @settings(max_examples=40, deadline=None)
    @given(
        tokens=st.integers(45, 70_000),
        depth=st.floats(0, 100),
        payload=st.text("0123456789", min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_document_is_json_plain_and_holds_its_payload_once(self, tokens, depth, payload, seed):
        # cli._render writes the document verbatim, and the stubs answer the payload, on this.
        doc = generate_case(NiahCase(tokens, depth, payload, seed)).document
        assert json.dumps(doc)[1:-1] == doc
        assert doc.count(payload) == 1

    @pytest.mark.parametrize("payload", ["²³", "٣٤", "１２"])
    def test_non_ascii_digit_payload_rejected(self, payload):
        # str.isdigit accepts these, but no [0-9] run could ever find them.
        assert payload.isdigit()
        with pytest.raises(ValueError, match="ASCII digits"):
            make_case(needle_payload=payload)


class TestGenerateGolden:
    """Documents recorded from the one-draw-per-sentence generator: any change
    to the draw stream, the sum order or the token estimate shows up here."""

    # The always-None column held a tokenizer, which generate_case no longer
    # takes; it stays so that each recorded case keeps its test id.
    @pytest.mark.parametrize(
        "tokens, depth, seed, _none, digest, index, offset, estimate",
        [
            (40, 0.0, 0, None,
             "55d08af06c7d5eb460d4d48f981d2afb678f7557bc63c448d25a7704494cecec", 0, 0, 39.0),
            (2000, 50.0, 7, None,
             "2a12923bbb28dcadb0d3d2a6d141558b0ec1856f67b1b2acec8296e408237b09", 58, 4195, 1987.7),
            (8192, 25.0, 3, None,
             "5087083520abd966f96170ec4bb4fa4e8fe6f8f3399fa8dbf412c55930fb5fe3",
             120, 8797, 8180.900000000001),
            (65536, 100.0, 11, None,
             "a715039c6a90c2777c2086fc897eb33d830ab110f3193ad0787e4fa6a0fd6a39",
             3872, 282082, 65529.100000000006),
            (524288, 37.5, 1, None,
             "ed038dd1eaf955c222fb7a5fa7d344cfe3e38e3ab34ebcae057eadf60b19c484",
             11637, 847705, 524274.4),
        ],
    )
    def test_matches_recorded_document(self, tokens, depth, seed, _none, digest, index, offset, estimate):
        case = NiahCase(
            haystack_tokens=tokens, depth_percent=depth, needle_payload="4096512", seed=seed
        )
        gen = generate_case(case)
        assert hashlib.sha256(gen.document.encode("utf-8")).hexdigest() == digest
        assert gen.needle_sentence_index == index
        assert gen.needle_char_offset == offset
        assert gen.estimated_tokens == estimate  # bit-exact, not approximate


def fields(gen):
    """A generated case's document and recorded fields, as reference_generate_case returns them."""
    return {
        "document": gen.document,
        "needle_sentence_index": gen.needle_sentence_index,
        "needle_char_offset": gen.needle_char_offset,
        "estimated_tokens": gen.estimated_tokens,
    }


def reference_generate_case(case: NiahCase):
    """generate_case before the cached filler tables: per-call costs, a per-pick
    list, the needle spliced in by slicing, and the offset summed over strings.

    Kept as the reference that the cached form must reproduce field for field;
    it joins its own document, so it does not go through GeneratedCase.
    """
    planted = needle(case.needle_payload)
    needle_cost = estimate_tokens(planted)
    question_cost = estimate_tokens(niah.DEFAULT_QUESTION)
    if case.haystack_tokens < needle_cost + question_cost:
        raise ValueError("cannot hold needle plus question")

    pool = filler_sentences()
    costs = np.array([estimate_tokens(s) for s in pool])
    mean_cost = costs[costs > 0].mean()
    budget = case.haystack_tokens - needle_cost

    rng = np.random.default_rng(case.seed)
    picks = []
    total = 0.0
    while True:
        block = rng.integers(0, len(pool), size=64 + int((budget - total) / mean_cost))
        running = np.cumsum(np.concatenate(([total], costs[block])))
        over = np.flatnonzero(running[1:] > budget)
        if over.size:
            break
        picks.append(block)
        total = float(running[-1])
    stop = int(over[0])
    picks.append(block[:stop])
    total = float(running[stop])
    spare_pick = block[stop + 1] if stop + 1 < block.size else rng.integers(0, len(pool))
    drawn = np.concatenate(picks)
    chosen = [pool[i] for i in drawn.tolist()]

    spare = pool[int(spare_pick)].rstrip(".").split()
    pad = []
    for word in spare:
        if total >= 0.98 * budget:
            break
        word_cost = estimate_tokens(word)
        if total + word_cost > budget:
            break
        pad.append(word)
        total += word_cost
    if pad:
        chosen.append(" ".join(pad) + ".")

    insert_at = min(len(chosen), round(case.depth_percent / 100.0 * len(chosen)))
    document = " ".join(chosen[:insert_at] + [planted] + chosen[insert_at:])
    offset = sum(map(len, chosen[:insert_at])) + insert_at
    return {
        "document": document,
        "needle_sentence_index": insert_at,
        "needle_char_offset": offset,
        "estimated_tokens": estimate_tokens(document),
    }


class TestGenerateMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(
        tokens=st.integers(45, 600_000),
        depth=st.floats(0, 100) | st.sampled_from([0.0, 100.0]),
        payload=st.text("0123456789", min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fields_equal_the_reference(self, tokens, depth, payload, seed):
        case = NiahCase(haystack_tokens=tokens, depth_percent=depth, needle_payload=payload, seed=seed)
        try:
            expected = reference_generate_case(case)
        except ValueError:  # too small for needle plus question
            with pytest.raises(ValueError, match="cannot hold needle"):
                generate_case(case)
            return
        assert fields(generate_case(case)) == expected

    @pytest.mark.parametrize("seed", [13, 38])
    def test_second_draw_block_matches_the_reference(self, seed):
        # These seeds' first block of draws stays within the budget, so a second block is drawn.
        case = NiahCase(haystack_tokens=524_288, depth_percent=50.0, needle_payload="4096512", seed=seed)
        costs = np.array([estimate_tokens(s) for s in filler_sentences()])
        budget = case.haystack_tokens - estimate_tokens(needle(case.needle_payload))
        first = np.random.default_rng(seed).integers(0, costs.size, size=64 + int(budget / costs[costs > 0].mean()))
        assert np.cumsum(costs[first])[-1] <= budget
        assert fields(generate_case(case)) == reference_generate_case(case)


class TestText:
    @pytest.mark.parametrize(
        "sentences",
        [("Only one.",), ("First one.", "Last one."), ("First one.", "Middle one.", "Last one.")],
        ids=["one", "two", "three"],
    )
    def test_head_and_tail_glue_onto_the_ends(self, sentences):
        # One sentence is both first and last, so it gets the head and then the tail.
        gen = niah.GeneratedCase(sentences, 0, 0, 0.0)
        assert gen.document == " ".join(sentences)
        assert gen.text() == gen.document
        assert gen.text(head='{"a": "', tail='"}') == '{"a": "' + gen.document + '"}'
        assert gen.text(tail="?") == gen.document + "?" and gen.text(head="!") == "!" + gen.document

    @pytest.mark.parametrize("tokens, depth", [(40, 0.0), (2000, 50.0), (8192, 100.0)])
    def test_generated_sentences_hold_the_needle_and_join_to_the_document(self, tokens, depth):
        # 40 tokens is the smallest recorded case: three sentences, the needle first.
        gen = generate_case(make_case(haystack_tokens=tokens, depth_percent=depth))
        assert gen.sentences[gen.needle_sentence_index] == needle(PAYLOAD)
        assert gen.document.index(needle(PAYLOAD)) == gen.needle_char_offset
        assert gen.text("head ", " tail") == "head " + gen.document + " tail"
        assert build_prompt(gen) == gen.document + "\n\n" + niah.DEFAULT_QUESTION

    def test_prompt_is_the_only_copy_of_the_haystack(self):
        # generate_case keeps sentences and build_prompt joins them once, so a
        # 512K-token prompt is never preceded by a joined document (2.0x).
        case = NiahCase(haystack_tokens=524_288, depth_percent=37.5, needle_payload="4096512", seed=1)
        generate_case(make_case())  # the filler tables are read once per process
        tracemalloc.start()
        try:
            prompt = build_prompt(generate_case(case))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * len(prompt)


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

    def test_rejects_non_ascii_digit_expected(self):
        # Before the check, this returned EMPTY: [0-9]+ never matches the payload.
        with pytest.raises(ValueError, match="ASCII digits"):
            score("²³", "²³")


class TestStubs:
    @given(st.text(alphabet=st.sampled_from([*"0123456789", "٣", "５", "²", *"abXYZ", " "])))
    def test_first_digit_run_is_the_regex_search(self, text):
        found, want = niah._first_digit_run(text), niah._DIGIT_RUN.search(text)
        if want is None:
            assert found is None
        else:
            assert (found.span(), found.group(0)) == (want.span(), want.group(0))

    @pytest.mark.parametrize("depth", [0.0, 50.0, 100.0])
    def test_each_client_finds_the_payload(self, depth):
        gen = generate_case(make_case(depth_percent=depth))
        prompt = build_prompt(gen)
        found = niah._first_digit_run(prompt)
        start = gen.needle_char_offset + niah.DEFAULT_NEEDLE_TEMPLATE.index("{payload}")
        assert (found.start(), found.group(0)) == (start, PAYLOAD)
        assert score(PAYLOAD, EchoStub().complete(prompt)).verdict is Verdict.EXACT
        assert score(PAYLOAD, DropLastDigitStub().complete(prompt)).verdict is Verdict.TRUNCATED
        assert FixtureClient({PAYLOAD: "recorded"}).complete(prompt) == "recorded"

    def test_echo_stub_finds_needle(self):
        gen = generate_case(make_case())
        answer = EchoStub().complete(build_prompt(gen))
        assert score(PAYLOAD, answer).verdict is Verdict.EXACT

    def test_drop_last_digit_stub(self):
        gen = generate_case(make_case())
        answer = DropLastDigitStub().complete(build_prompt(gen))
        assert score(PAYLOAD, answer).verdict is Verdict.TRUNCATED


class TestHaystackBound:
    def test_case_beyond_the_bound_is_rejected(self):
        make_case(haystack_tokens=MAX_HAYSTACK_TOKENS)
        with pytest.raises(ValueError, match=f"MAX_HAYSTACK_TOKENS={MAX_HAYSTACK_TOKENS}"):
            make_case(haystack_tokens=MAX_HAYSTACK_TOKENS + 1)

    def test_grid_rejects_the_length_before_running_any_cell(self):
        class NeverCalled:
            def complete(self, prompt, max_tokens=64, temperature=0.0):
                raise AssertionError("a grid cell ran")

        with pytest.raises(ValueError, match="MAX_HAYSTACK_TOKENS"):
            run_grid([600, MAX_HAYSTACK_TOKENS + 1], [50], 1, NeverCalled())


class TestGrid:
    def test_echo_grid_is_all_exact(self):
        result = run_grid([600, 900], [0, 50, 100], 2, EchoStub(), base_seed=7)
        for cell in result.cells:
            assert cell.rate("exact") == 1.0

    def test_drop_last_grid_is_all_truncated(self):
        result = run_grid([600], [0, 100], 2, DropLastDigitStub(), base_seed=7)
        for cell in result.cells:
            assert cell.rate("truncated") == 1.0

    def test_grids_at_the_papers_length(self):
        # 512K tokens, needle first and last: the clients scan the whole prompt.
        echo = run_grid([524_288], [0, 100], 1, EchoStub())
        assert all(cell.rate("exact") == 1.0 for cell in echo.cells)
        drop = run_grid([524_288], [0, 100], 1, DropLastDigitStub())
        assert all(cell.rate("truncated") == 1.0 for cell in drop.cells)

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
        assert a.cells == b.cells

    def test_pool_submits_a_bounded_window_ahead(self, monkeypatch):
        # Each submitted task draws its payload first, so the draws count the tasks
        # submitted; the first one fails, and no task beyond the window is built.
        calls = []
        original = niah._payload_for
        monkeypatch.setattr(niah, "_payload_for", lambda rng: calls.append(1) or original(rng))
        with pytest.raises(ValueError, match="cannot hold needle"):
            run_grid([8], [0], 1000, EchoStub(), max_concurrency=2)
        assert 1 <= len(calls) <= 4

    def test_flaky_client_retries_and_succeeds(self, monkeypatch):
        monkeypatch.setattr(niah, "_BACKOFF_S", 0.0)

        class Flaky:
            def __init__(self):
                self.calls = 0

            def complete(self, prompt, max_tokens=64, temperature=0.0):
                self.calls += 1
                if self.calls % 3 != 0:  # fail twice, succeed on the third
                    raise ClientError("transient")
                return EchoStub().complete(prompt)

        result = run_grid([600], [50], 1, Flaky(), base_seed=5)
        assert result.cells[0].rate("exact") == 1.0

    def test_dead_client_marks_error_cells_without_aborting(self, monkeypatch):
        monkeypatch.setattr(niah, "_BACKOFF_S", 0.0)
        calls = []

        class Dead:
            def complete(self, prompt, max_tokens=64, temperature=0.0):
                calls.append(1)
                raise ClientError("unreachable")

        result = run_grid([600], [0, 100], 2, Dead(), base_seed=5)
        for cell in result.cells:
            assert cell.counts["error"] == 2
        assert all("failed after 3 attempts" in record["error"] for record in result.details)
        assert len(calls) == 2 * 2 * 3

    def test_fixture_client_without_a_recorded_answer_raises_client_error(self):
        prompt = build_prompt(generate_case(make_case()))
        with pytest.raises(ClientError, match="no recorded response"):
            FixtureClient({"1234567": "recorded"}).complete(prompt)
        with pytest.raises(ClientError, match="no recorded response"):
            FixtureClient({}).complete("a prompt with no digits")

    def test_csv_matrix_shape(self):
        result = run_grid([600, 900], [0, 50, 100], 1, EchoStub(), base_seed=1)
        lines = grid_csv(result).strip().splitlines()
        assert lines[0] == "haystack_tokens,depth_0,depth_50,depth_100"
        assert len(lines) == 3
        assert lines[1].startswith("600,") and lines[1].endswith("1.000000,1.000000,1.000000")

    def test_first_case_is_checked_before_later_tasks_are_built(self, monkeypatch):
        calls = []
        original = niah._payload_for
        monkeypatch.setattr(niah, "_payload_for", lambda rng: calls.append(1) or original(rng))
        with pytest.raises(ValueError, match="cannot hold needle"):
            run_grid([8], [0], 1000, EchoStub())
        assert len(calls) == 1

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            run_grid([600], [0], 0, EchoStub())

    @pytest.mark.parametrize("concurrency", [0, -1, MAX_CONCURRENCY + 1])
    def test_rejects_concurrency_outside_the_bound_before_the_pool(self, monkeypatch, concurrency):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was made")

        monkeypatch.setattr(niah, "ThreadPoolExecutor", no_pool)
        with pytest.raises(ValueError, match="MAX_CONCURRENCY"):
            run_grid([600], [0], 1, EchoStub(), max_concurrency=concurrency)

    def test_rate_rejects_an_unknown_kind(self):
        result = run_grid([600], [0], 1, EchoStub())
        assert [result.cells[0].rate(kind) for kind in niah.TALLY_KINDS] == [1.0, 0.0, 0.0, 0.0, 0.0]
        with pytest.raises(ValueError, match="unknown rate kind 'bogus'"):
            grid_csv(result, metric="bogus")

    @pytest.mark.parametrize("lengths, depths", [([600, 600], [0]), ([600], [50, 50.0])])
    def test_rejects_repeated_lengths_or_depths(self, lengths, depths):
        with pytest.raises(ValueError, match="must not repeat"):
            run_grid(lengths, depths, 1, EchoStub())

    @pytest.mark.parametrize("lengths, depths", [([], [float("nan")]), ([600], [])])
    def test_rejects_an_empty_axis(self, lengths, depths):
        # An empty axis would skip generate_case, which checks every depth.
        with pytest.raises(ValueError, match="at least one value"):
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
    # serve_forever's default 0.5 s poll would make each shutdown wait up to that long.
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/"
    finally:
        server.shutdown()
        thread.join()
        server.server_close()


class TestHttpClient:
    def test_default_wire_shape(self, endpoint):
        _Endpoint.behavior = "echo"
        client = HttpCompletionClient(endpoint)
        gen = generate_case(make_case())
        answer = client.complete(build_prompt(gen), max_tokens=32)
        assert score(PAYLOAD, answer).verdict is Verdict.EXACT

    def test_grid_over_http(self, endpoint):
        _Endpoint.behavior = "echo"
        client = HttpCompletionClient(endpoint)
        result = run_grid([600], [0, 100], 1, client, base_seed=9)
        assert all(cell.rate("exact") == 1.0 for cell in result.cells)

    def test_cli_grid_over_http(self, endpoint, capsys):
        _Endpoint.behavior = "echo"
        code = dispatch(
            ["--no-timestamp", "niah-grid", "--lengths", "600", "--depths", "0,100", "--endpoint", endpoint]
        )
        doc = json.loads(capsys.readouterr().out)
        schema = resources.files("longctx").joinpath("schemas/niah-grid.json").read_text(encoding="utf-8")
        jsonschema.validate(doc, json.loads(schema))
        assert code == 0 and [cell["exact_rate"] for cell in doc["cells"]] == [1.0, 1.0]

    def test_adapter_maps_nested_response(self, endpoint):
        _Endpoint.behavior = "nested"
        client = HttpCompletionClient(endpoint, shape=ApiShape(text_path="choices.0.text"))
        gen = generate_case(make_case())
        answer = client.complete(build_prompt(gen))
        assert score(PAYLOAD, answer).verdict is Verdict.EXACT

    def test_malformed_response_raises_client_error(self, endpoint):
        _Endpoint.behavior = "malformed"
        client = HttpCompletionClient(endpoint)
        with pytest.raises(ClientError):
            client.complete("hello")

    @pytest.mark.parametrize("payload", [{"text": 3}, {"text": None}, {"text": ["a"]}])
    def test_non_text_response_field_raises_client_error(self, payload):
        with pytest.raises(ClientError, match="'text' is not text"):
            ApiShape().extract_text(payload)

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

    def test_deeply_nested_shape_file_raises_value_error(self, tmp_path):
        # json decodes nesting by recursion; 200,000 levels pass the interpreter's limit.
        path = tmp_path / "shape.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        with pytest.raises(ValueError, match="nests too deeply"):
            ApiShape.from_file(path)

    def test_unreachable_endpoint_raises_client_error(self):
        client = HttpCompletionClient("http://127.0.0.1:9/", timeout=0.2)
        with pytest.raises(ClientError):
            client.complete("hello")
