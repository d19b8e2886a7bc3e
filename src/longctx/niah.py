"""Needle-in-a-haystack corpus generation, scoring, and grid evaluation.

A case plants a digit-string payload inside a long filler document at a
controlled depth and asks a completion endpoint to recall it. Scoring
distinguishes exact recall, truncated recall (a long leading prefix of the
payload, the signature of position-precision faults), wrong answers, and
empty answers.

Every case plants the one needle, DEFAULT_NEEDLE_TEMPLATE around its
ASCII-digit payload, and asks the one question, DEFAULT_QUESTION. Filler
text ships with the package and contains no digits, and filler and needle
are JSON-plain (printable ASCII with no quote or backslash). So every
document holds its payload once and is JSON-plain: any digits a model
returns came from its answer, not the haystack, and ``json.dumps`` writes a
document verbatim. Token counts are whitespace words * 1.3.

Clients are duck-typed: anything with
``complete(prompt, max_tokens, temperature) -> str`` works. An HTTP client
for JSON completion endpoints is included, along with deterministic stubs
for running grids offline.
"""

from __future__ import annotations

import collections
import functools
import json
import re
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources

import numpy as np

__all__ = [
    "TOKENS_PER_WORD",
    "MAX_HAYSTACK_TOKENS",
    "MAX_CONCURRENCY",
    "Verdict",
    "TALLY_KINDS",
    "NiahCase",
    "GeneratedCase",
    "NiahResult",
    "CellRates",
    "GridResult",
    "ClientError",
    "EchoStub",
    "DropLastDigitStub",
    "SilentStub",
    "ApiShape",
    "HttpCompletionClient",
    "estimate_tokens",
    "filler_sentences",
    "generate_case",
    "build_prompt",
    "score",
    "run_grid",
    "grid_csv",
]

TOKENS_PER_WORD = 1.3
# Largest haystack, checked before any draw is sized: 32 times a 512K-token
# context, about 72 MB of document text.
MAX_HAYSTACK_TOKENS = 1 << 24
# Most grid worker threads, checked before the pool is made. Each worker
# holds one document and its prompt, so 16 of them at MAX_HAYSTACK_TOKENS
# is about 2.3 GB.
MAX_CONCURRENCY = 16
# A grid call is tried this many times in all, sleeping 0.5 s, then 1 s, between tries.
_ATTEMPTS = 3
_BACKOFF_S = 0.5

DEFAULT_NEEDLE_TEMPLATE = (
    "The special magic number mentioned in the harbor records is {payload}."
)
DEFAULT_QUESTION = (
    "What is the special magic number mentioned in the harbor records? "
    "Answer with the number only."
)

_DIGIT_RUN = re.compile(r"[0-9]+")


def _first_digit_run(text: str) -> re.Match | None:
    """``_DIGIT_RUN.search(text)``, found by one bounded ``str.find`` per ASCII digit."""
    end = len(text)
    for digit in "0123456789":
        hit = text.find(digit, 0, end)
        if hit >= 0:
            end = hit
    return _DIGIT_RUN.match(text, end)


def _check_haystack_tokens(tokens: int) -> None:
    if tokens > MAX_HAYSTACK_TOKENS:
        raise ValueError(f"haystack_tokens={tokens} is more than MAX_HAYSTACK_TOKENS={MAX_HAYSTACK_TOKENS}")


class Verdict(Enum):
    EXACT = "exact"
    TRUNCATED = "truncated"
    WRONG = "wrong"
    EMPTY = "empty"


# What a grid cell counts: the four verdicts, then trials whose client failed.
TALLY_KINDS = (*(v.value for v in Verdict), "error")


@dataclass(frozen=True)
class NiahCase:
    """Recipe for one haystack: target length, depth, payload, seed."""

    haystack_tokens: int
    depth_percent: float
    needle_payload: str
    seed: int = 0

    def __post_init__(self):
        _check_haystack_tokens(self.haystack_tokens)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.depth_percent <= 100:
            raise ValueError(f"depth_percent must be in [0, 100], got {self.depth_percent}")
        if not (self.needle_payload.isascii() and self.needle_payload.isdigit()):
            raise ValueError("needle_payload must be a nonempty string of ASCII digits")


@dataclass(frozen=True)
class GeneratedCase:
    """One haystack, kept as its sentences so that each text of it is one join.

    ``sentences`` are the drawn filler sentences with the needle at
    ``needle_sentence_index`` and the pad sentence, if any, last. The
    document is those sentences joined by single spaces.
    """

    sentences: tuple[str, ...]
    needle_sentence_index: int
    needle_char_offset: int
    estimated_tokens: float

    @property
    def document(self) -> str:
        return " ".join(self.sentences)

    def text(self, head: str = "", tail: str = "") -> str:
        """``head + document + tail``, built by one join and never by copying the document."""
        parts = list(self.sentences)
        parts[0] = head + parts[0]
        parts[-1] += tail
        return " ".join(parts)


@dataclass(frozen=True)
class NiahResult:
    verdict: Verdict
    matched_prefix_len: int


def estimate_tokens(text: str) -> float:
    """Approximate token count: whitespace words times TOKENS_PER_WORD."""
    return len(text.split()) * TOKENS_PER_WORD


@functools.cache
def filler_sentences() -> tuple[str, ...]:
    """Bundled filler sentences, digit-free and JSON-plain, one per line; read once, immutable."""
    text = resources.files("longctx").joinpath("data/filler.txt").read_text(encoding="utf-8")
    sentences = [line.strip() for line in text.splitlines() if line.strip()]
    return tuple(s for s in sentences if not _DIGIT_RUN.search(s) and json.dumps(s)[1:-1] == s)


@functools.cache
def _filler_tables() -> tuple[np.ndarray, ...]:
    """The pool as an object array, its default token costs, word counts and lengths."""
    pool = filler_sentences()
    words = np.array([len(s.split()) for s in pool])
    return np.array(pool, dtype=object), words * TOKENS_PER_WORD, words, np.array(list(map(len, pool)))


def generate_case(case: NiahCase) -> GeneratedCase:
    """Build the haystack document for a case, deterministically from its seed.

    Filler sentences are drawn with a seeded generator until the document
    reaches the token target (needle included), padding with a partial
    sentence so the total lands within the 2% sizing tolerance. The needle
    goes in at the sentence boundary nearest depth_percent: 0 means first
    sentence, 100 means last. Depth does not influence the filler draw, so
    the same seed yields the same haystack at every depth.

    Picks are drawn in blocks; the generator's stream is the same as one
    draw per sentence, and a sequential cumulative sum from the running
    total reproduces the one-at-a-time float sums bit for bit. The estimate
    is the word count of the parts times TOKENS_PER_WORD, which equals
    splitting the joined document.

    The case holds the sentences, not their join: ``GeneratedCase.text``
    builds the document, a prompt or a JSON stdout around it in one join,
    so a 512K-token haystack exists once as a string, not once per caller.
    """
    needle = DEFAULT_NEEDLE_TEMPLATE.format(payload=case.needle_payload)
    needle_cost = estimate_tokens(needle)
    least = needle_cost + estimate_tokens(DEFAULT_QUESTION)
    if case.haystack_tokens < least:
        raise ValueError(f"haystack_tokens={case.haystack_tokens} cannot hold needle plus question (~{least:.0f} tokens)")

    # Every pool sentence holds a word, so every cost is at least TOKENS_PER_WORD.
    sentences, costs, pool_words, pool_chars = _filler_tables()
    mean_cost = costs.mean()
    budget = case.haystack_tokens - needle_cost

    rng = np.random.default_rng(case.seed)
    picks: list[np.ndarray] = []
    total = 0.0
    while True:
        # Enough draws to reach the budget at the mean cost, plus slack.
        block = rng.integers(0, len(sentences), size=64 + int((budget - total) / mean_cost))
        running = np.cumsum(np.concatenate(([total], costs[block])))
        over = np.flatnonzero(running[1:] > budget)
        if over.size:
            break
        picks.append(block)
        total = float(running[-1])
    stop = int(over[0])
    picks.append(block[:stop])
    total = float(running[stop])
    # The padding sentence is the next draw in the stream.
    spare_pick = block[stop + 1] if stop + 1 < block.size else rng.integers(0, len(sentences))
    drawn = np.concatenate(picks)
    chosen = sentences[drawn].tolist()

    # Pad word by word from the spare sentence until within 2% under budget.
    spare = sentences[int(spare_pick)].rstrip(".").split()
    pad: list[str] = []
    for word in spare:
        if total >= 0.98 * budget:
            break
        if total + TOKENS_PER_WORD > budget:
            break
        pad.append(word)
        total += TOKENS_PER_WORD
    if pad:
        chosen.append(" ".join(pad) + ".")

    insert_at = min(len(chosen), round(case.depth_percent / 100.0 * len(chosen)))
    # One space follows each sentence before the needle, the pad sentence only if the needle is last.
    offset = int(pool_chars[drawn[:insert_at]].sum()) + insert_at
    if insert_at > drawn.size:
        offset += len(chosen[-1])
    chosen.insert(insert_at, needle)
    # str.split is additive over " ".join, so this is len(document.split()).
    words = int(pool_words[drawn].sum()) + len(pad) + len(needle.split())
    return GeneratedCase(
        sentences=tuple(chosen),
        needle_sentence_index=insert_at,
        needle_char_offset=offset,
        estimated_tokens=words * TOKENS_PER_WORD,
    )


def build_prompt(gen: GeneratedCase) -> str:
    return gen.text(tail="\n\n" + DEFAULT_QUESTION)


def score(expected: str, answer: str) -> NiahResult:
    """Classify an answer against the expected digit payload.

    Digit runs are extracted from the answer, so surrounding punctuation
    and whitespace never matter. Verdicts:

      exact      the payload appears as a standalone number
      truncated  a proper prefix covering at least half the payload appears
                 as a standalone number, and the full payload does not
      wrong      digits appear but match neither rule
      empty      the answer contains no digits at all

    A prefix only counts when it is a whole digit run; a longer number that
    merely starts with the payload's digits is a wrong answer, not a
    truncation.
    """
    if not (expected.isascii() and expected.isdigit()):
        raise ValueError("expected must be a nonempty string of ASCII digits")
    runs = _DIGIT_RUN.findall(answer)
    if not runs:
        return NiahResult(Verdict.EMPTY, 0)
    if expected in runs:
        return NiahResult(Verdict.EXACT, len(expected))
    prefixes = [r for r in runs if expected.startswith(r) and r != expected]
    matched = max((len(r) for r in prefixes), default=0)
    if matched * 2 >= len(expected):
        return NiahResult(Verdict.TRUNCATED, matched)
    return NiahResult(Verdict.WRONG, matched)


# ---------------------------------------------------------------------------
# Completion clients


class ClientError(RuntimeError):
    """A completion request failed after exhausting retries."""


class EchoStub:
    """Oracle stub: answers the prompt's first ASCII digit run exactly.

    That run is the payload, which every document holds once and the
    question not at all.
    """

    def complete(self, prompt: str, max_tokens: int = 64, temperature: float = 0.0) -> str:
        match = _first_digit_run(prompt)
        return f"The number is {match.group(0)}." if match else "I could not find it."


class DropLastDigitStub:
    """Adversarial stub reproducing last-digit truncation on recall."""

    def complete(self, prompt: str, max_tokens: int = 64, temperature: float = 0.0) -> str:
        match = _first_digit_run(prompt)
        return f"The number is {match.group(0)[:-1]}." if match else ""


class SilentStub:
    """Returns an empty answer for every prompt."""

    def complete(self, prompt: str, max_tokens: int = 64, temperature: float = 0.0) -> str:
        return ""


@dataclass(frozen=True)
class ApiShape:
    """Field mapping for completion APIs that use different JSON shapes.

    text_path is a dotted path into the response, with integer components
    indexing into lists (e.g. "choices.0.text").
    """

    prompt_field: str = "prompt"
    max_tokens_field: str = "max_tokens"
    temperature_field: str = "temperature"
    text_path: str = "text"
    extra_body: dict = field(default_factory=dict)

    @classmethod
    def from_file(cls, path) -> "ApiShape":
        """Read a shape from JSON; ValueError on unknown keys or wrongly typed values."""
        with open(path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except RecursionError as exc:
                raise ValueError(f"API shape {path} nests too deeply to decode: {exc}") from None
        if not isinstance(doc, dict):
            raise ValueError(f"API shape {path} must be a JSON object")
        defaults = vars(cls())
        unknown = sorted(set(doc) - set(defaults))
        if unknown:
            raise ValueError(f"API shape {path} has unknown keys {unknown}; known: {sorted(defaults)}")
        for key, value in doc.items():
            if not isinstance(value, type(defaults[key])):
                kind = "an object" if isinstance(defaults[key], dict) else "a string"
                raise ValueError(f"API shape {path}: {key} must be {kind}, got {value!r}")
        return cls(**doc)

    def extract_text(self, payload) -> str:
        node = payload
        for part in self.text_path.split("."):
            node = node[int(part)] if part.isdigit() else node[part]
        if not isinstance(node, str):
            raise ClientError(f"response field {self.text_path!r} is not text")
        return node


class HttpCompletionClient:
    """POSTs prompts to a JSON completion endpoint.

    Default wire shape: request {"prompt", "max_tokens", "temperature"},
    response {"text"}; other shapes via an ApiShape adapter.
    """

    def __init__(self, url: str, shape: ApiShape | None = None, timeout: float = 60.0):
        self.url = url
        self.shape = shape or ApiShape()
        self.timeout = timeout

    def complete(self, prompt: str, max_tokens: int = 64, temperature: float = 0.0) -> str:
        import urllib.error  # here, not at module level: only this method uses it, and it costs every CLI start
        import urllib.request

        body = dict(self.shape.extra_body)
        body[self.shape.prompt_field] = prompt
        body[self.shape.max_tokens_field] = max_tokens
        body[self.shape.temperature_field] = temperature
        request = urllib.request.Request(
            self.url,
            data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                payload = json.loads(resp.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, json.JSONDecodeError) as exc:
            raise ClientError(f"completion request failed: {exc}") from exc
        try:
            return self.shape.extract_text(payload)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ClientError(f"malformed completion response: {exc}") from exc


# ---------------------------------------------------------------------------
# Grid execution


@dataclass(frozen=True)
class CellRates:
    haystack_tokens: int
    depth_percent: float
    trials: int
    counts: dict[str, int]

    def rate(self, kind: str) -> float:
        if kind not in TALLY_KINDS:
            raise ValueError(f"unknown rate kind {kind!r}, expected one of {', '.join(TALLY_KINDS)}")
        return self.counts.get(kind, 0) / self.trials


@dataclass(frozen=True)
class GridResult:
    lengths: tuple[int, ...]
    depths: tuple[float, ...]
    trials: int
    cells: tuple[CellRates, ...]
    details: tuple[dict, ...]


def _payload_for(rng: np.random.Generator) -> str:
    """A 7-digit payload with no leading zero."""
    first = str(rng.integers(1, 10))
    rest = "".join(str(rng.integers(0, 10)) for _ in range(6))
    return first + rest


def _call_with_retries(client, prompt, max_tokens):
    for attempt in range(_ATTEMPTS):
        try:
            return client.complete(prompt, max_tokens=max_tokens, temperature=0.0)
        except Exception as exc:  # noqa: BLE001 - any client failure is retryable
            if attempt == _ATTEMPTS - 1:
                raise ClientError(f"failed after {_ATTEMPTS} attempts: {exc}") from exc
            time.sleep(_BACKOFF_S * 2**attempt)


def _windowed_map(pool, fn, items, window: int):
    """pool.map in item order, but submitting at most `window` items ahead rather than all."""
    pending = collections.deque()
    try:
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) >= window:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def run_grid(
    lengths,
    depths,
    trials: int,
    client,
    *,
    base_seed: int = 0,
    max_tokens: int = 64,
    max_concurrency: int = 1,
) -> GridResult:
    """Run every (length, depth, trial) cell and tally verdict rates.

    Payloads and case seeds derive from (base_seed, length index, depth
    index, trial), so reruns are reproducible and independent of execution
    order. A trial whose client fails all _ATTEMPTS tries is recorded under
    the "error" count for its cell; the grid always completes.
    """
    lengths = tuple(int(x) for x in lengths)
    depths = tuple(float(x) for x in depths)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if max_tokens < 1:
        raise ValueError(f"max_tokens must be >= 1, got {max_tokens}")
    if not 1 <= max_concurrency <= MAX_CONCURRENCY:
        raise ValueError(f"max_concurrency={max_concurrency} is not in [1, MAX_CONCURRENCY={MAX_CONCURRENCY}]")
    if base_seed < 0:
        raise ValueError(f"base_seed must be >= 0, got {base_seed}")
    if not lengths or not depths:
        raise ValueError("lengths and depths must each hold at least one value")
    _check_haystack_tokens(max(lengths))
    # grid_csv keys cells by (length, depth), so a repeated value would hide a column or row.
    for name, values in (("lengths", lengths), ("depths", depths)):
        if len(set(values)) != len(values):
            raise ValueError(f"{name} must not repeat a value, got {list(values)}")

    def run_one(task):
        """(cell index, tally kind, detail record) of one trial."""
        li, di, trial = task
        rng = np.random.default_rng([base_seed, li, di, trial])
        case = NiahCase(
            haystack_tokens=lengths[li],
            depth_percent=depths[di],
            needle_payload=_payload_for(rng),
            seed=int(rng.integers(0, 2**31)),
        )
        gen = generate_case(case)
        cell = li * len(depths) + di
        record = {
            "haystack_tokens": lengths[li],
            "depth_percent": depths[di],
            "trial": trial,
            "expected": case.needle_payload,
        }
        try:
            answer = _call_with_retries(client, build_prompt(gen), max_tokens)
        except ClientError as exc:
            return cell, "error", {**record, "error": str(exc)}
        result = score(case.needle_payload, answer)
        kind = result.verdict.value
        record.update(verdict=kind, matched_prefix_len=result.matched_prefix_len, answer=answer)
        return cell, kind, record

    # Both maps yield outcomes in task order, which is (li, di, trial) order.
    # A generator: itertools.product would first make range(trials) a tuple.
    tasks = ((li, di, t) for li in range(len(lengths)) for di in range(len(depths)) for t in range(trials))
    tallies = [dict.fromkeys(TALLY_KINDS, 0) for _ in range(len(lengths) * len(depths))]
    details = []
    with ThreadPoolExecutor(max_workers=max_concurrency) if max_concurrency > 1 else nullcontext() as pool:
        outcomes = map(run_one, tasks) if pool is None else _windowed_map(pool, run_one, tasks, 2 * max_concurrency)
        for cell, kind, record in outcomes:
            tallies[cell][kind] += 1
            details.append(record)

    cells = tuple(
        CellRates(haystack_tokens=length, depth_percent=depth, trials=trials, counts=counts)
        for (length, depth), counts in zip(((x, y) for x in lengths for y in depths), tallies)
    )
    return GridResult(
        lengths=lengths, depths=depths, trials=trials, cells=cells, details=tuple(details)
    )


def grid_csv(result: GridResult, metric: str = "exact") -> str:
    """Rates as a CSV matrix: one row per length, one column per depth."""
    # :g names 0, 50 and 100 plainly; repr keeps distinct depths that :g would round apart.
    labels = (f"{d:g}" if float(f"{d:g}") == d else repr(d) for d in result.depths)
    header = "haystack_tokens," + ",".join(f"depth_{label}" for label in labels)
    by_key = {(c.haystack_tokens, c.depth_percent): c for c in result.cells}
    lines = [header]
    for length in result.lengths:
        row = [str(length)]
        for depth in result.depths:
            row.append(f"{by_key[(length, depth)].rate(metric):.6f}")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
