"""Needle-in-a-haystack corpus generation, scoring, and grid evaluation.

A case plants a digit-string payload inside a long filler document at a
controlled depth and asks a completion endpoint to recall it. Scoring
distinguishes exact recall, truncated recall (a long leading prefix of the
payload, the signature of position-precision faults), wrong answers, and
empty answers.

Filler text ships with the package and contains no digits, so the payload
occurs exactly once in every generated document and any digits a model
returns came from its answer, not the haystack. Token counts use a
whitespace-word * 1.3 approximation by default; pass a tokenizer callable
(text -> token count) to size documents against a real vocabulary.

Clients are duck-typed: anything with
``complete(prompt, max_tokens, temperature) -> str`` works. An HTTP client
for JSON completion endpoints is included, along with deterministic stubs
for testing grids offline.
"""

from __future__ import annotations

import json
import re
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources

import numpy as np

__all__ = [
    "TOKENS_PER_WORD",
    "Verdict",
    "NiahCase",
    "GeneratedCase",
    "NiahResult",
    "CellRates",
    "GridResult",
    "ClientError",
    "EchoStub",
    "DropLastDigitStub",
    "SilentStub",
    "FixtureClient",
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

DEFAULT_NEEDLE_TEMPLATE = (
    "The special magic number mentioned in the harbor records is {payload}."
)
DEFAULT_QUESTION = (
    "What is the special magic number mentioned in the harbor records? "
    "Answer with the number only."
)

_DIGIT_RUN = re.compile(r"[0-9]+")


class Verdict(Enum):
    EXACT = "exact"
    TRUNCATED = "truncated"
    WRONG = "wrong"
    EMPTY = "empty"


@dataclass(frozen=True)
class NiahCase:
    """Recipe for one haystack: target length, depth, payload, templates, seed."""

    haystack_tokens: int
    depth_percent: float
    needle_payload: str
    needle_template: str = DEFAULT_NEEDLE_TEMPLATE
    question: str = DEFAULT_QUESTION
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.depth_percent <= 100:
            raise ValueError(f"depth_percent must be in [0, 100], got {self.depth_percent}")
        if not self.needle_payload or not self.needle_payload.isdigit():
            raise ValueError("needle_payload must be a nonempty digit string")
        if "{payload}" not in self.needle_template:
            raise ValueError("needle_template must contain a {payload} placeholder")


@dataclass(frozen=True)
class GeneratedCase:
    case: NiahCase
    document: str
    question: str
    expected: str
    needle_sentence_index: int
    needle_char_offset: int
    estimated_tokens: float


@dataclass(frozen=True)
class NiahResult:
    verdict: Verdict
    matched_prefix_len: int
    expected: str
    answer: str
    case: NiahCase | None = None


def estimate_tokens(text: str, tokenizer=None) -> float:
    """Approximate token count; tokenizer is a callable text -> int."""
    if tokenizer is not None:
        return float(tokenizer(text))
    return len(text.split()) * TOKENS_PER_WORD


def filler_sentences() -> list[str]:
    """Bundled digit-free filler sentences, one per line."""
    text = resources.files("longctx").joinpath("data/filler.txt").read_text(encoding="utf-8")
    sentences = [line.strip() for line in text.splitlines() if line.strip()]
    return [s for s in sentences if not _DIGIT_RUN.search(s)]


def generate_case(case: NiahCase, tokenizer=None) -> GeneratedCase:
    """Build the haystack document for a case, deterministically from its seed.

    Filler sentences are drawn with a seeded generator until the document
    reaches the token target (needle included), padding with a partial
    sentence so the total lands within the 2% sizing tolerance. The needle
    goes in at the sentence boundary nearest depth_percent: 0 means first
    sentence, 100 means last. Depth does not influence the filler draw, so
    the same seed yields the same haystack at every depth.
    """
    needle = case.needle_template.format(payload=case.needle_payload)
    needle_cost = estimate_tokens(needle, tokenizer)
    question_cost = estimate_tokens(case.question, tokenizer)
    if case.haystack_tokens < needle_cost + question_cost:
        raise ValueError(
            f"haystack_tokens={case.haystack_tokens} cannot hold needle plus question "
            f"(~{needle_cost + question_cost:.0f} tokens)"
        )

    pool = filler_sentences()
    costs = [estimate_tokens(s, tokenizer) for s in pool]
    budget = case.haystack_tokens - needle_cost

    rng = np.random.default_rng(case.seed)
    chosen: list[str] = []
    total = 0.0
    while True:
        pick = int(rng.integers(0, len(pool)))
        if total + costs[pick] > budget:
            break
        chosen.append(pool[pick])
        total += costs[pick]

    # Pad word by word from one more draw until within 2% under budget.
    spare = pool[int(rng.integers(0, len(pool)))].rstrip(".").split()
    pad: list[str] = []
    for word in spare:
        if total >= 0.98 * budget:
            break
        word_cost = estimate_tokens(word, tokenizer)
        if total + word_cost > budget:
            break
        pad.append(word)
        total += word_cost
    if pad:
        chosen.append(" ".join(pad) + ".")

    insert_at = min(len(chosen), round(case.depth_percent / 100.0 * len(chosen)))
    parts = chosen[:insert_at] + [needle] + chosen[insert_at:]
    document = " ".join(parts)
    offset = len(" ".join(chosen[:insert_at]))
    if insert_at > 0:
        offset += 1  # separating space before the needle sentence
    return GeneratedCase(
        case=case,
        document=document,
        question=case.question,
        expected=case.needle_payload,
        needle_sentence_index=insert_at,
        needle_char_offset=offset,
        estimated_tokens=estimate_tokens(document, tokenizer),
    )


def build_prompt(gen: GeneratedCase) -> str:
    return f"{gen.document}\n\n{gen.question}"


def score(expected: str, answer: str, case: NiahCase | None = None) -> NiahResult:
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
    if not expected or not expected.isdigit():
        raise ValueError("expected must be a nonempty digit string")
    runs = _DIGIT_RUN.findall(answer)
    if not runs:
        return NiahResult(Verdict.EMPTY, 0, expected, answer, case)
    if expected in runs:
        return NiahResult(Verdict.EXACT, len(expected), expected, answer, case)
    prefixes = [r for r in runs if expected.startswith(r) and r != expected]
    matched = max((len(r) for r in prefixes), default=0)
    if matched * 2 >= len(expected):
        return NiahResult(Verdict.TRUNCATED, matched, expected, answer, case)
    return NiahResult(Verdict.WRONG, matched, expected, answer, case)


# ---------------------------------------------------------------------------
# Completion clients


class ClientError(RuntimeError):
    """A completion request failed after exhausting retries."""


class EchoStub:
    """Oracle stub: finds the payload in the prompt and answers it exactly."""

    def complete(self, prompt: str, max_tokens: int = 64, temperature: float = 0.0) -> str:
        match = _DIGIT_RUN.search(prompt)
        return f"The number is {match.group(0)}." if match else "I could not find it."


class DropLastDigitStub:
    """Adversarial stub reproducing last-digit truncation on recall."""

    def complete(self, prompt: str, max_tokens: int = 64, temperature: float = 0.0) -> str:
        match = _DIGIT_RUN.search(prompt)
        return f"The number is {match.group(0)[:-1]}." if match else ""


class SilentStub:
    """Returns an empty answer for every prompt."""

    def complete(self, prompt: str, max_tokens: int = 64, temperature: float = 0.0) -> str:
        return ""


class FixtureClient:
    """Replays recorded answers keyed by the payload found in each prompt."""

    def __init__(self, responses: dict[str, str]):
        self.responses = dict(responses)

    @classmethod
    def from_file(cls, path) -> "FixtureClient":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return cls(doc["responses"])

    def complete(self, prompt: str, max_tokens: int = 64, temperature: float = 0.0) -> str:
        match = _DIGIT_RUN.search(prompt)
        if match is None or match.group(0) not in self.responses:
            raise ClientError("no recorded response for this prompt")
        return self.responses[match.group(0)]


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
            doc = json.load(fh)
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
        return self.counts.get(kind, 0) / self.trials


@dataclass(frozen=True)
class GridResult:
    lengths: tuple[int, ...]
    depths: tuple[float, ...]
    trials: int
    cells: tuple[CellRates, ...]
    details: tuple[dict, ...]


def _payload_for(rng: np.random.Generator, digits: int = 7) -> str:
    first = str(rng.integers(1, 10))
    rest = "".join(str(rng.integers(0, 10)) for _ in range(digits - 1))
    return first + rest


def _call_with_retries(client, prompt, max_tokens, attempts, backoff):
    for attempt in range(attempts):
        try:
            return client.complete(prompt, max_tokens=max_tokens, temperature=0.0)
        except Exception as exc:  # noqa: BLE001 - any client failure is retryable
            if attempt == attempts - 1:
                raise ClientError(f"failed after {attempts} attempts: {exc}") from exc
            time.sleep(backoff * 2**attempt)


def run_grid(
    lengths,
    depths,
    trials: int,
    client,
    *,
    base_seed: int = 0,
    max_tokens: int = 64,
    attempts: int = 3,
    backoff: float = 0.5,
    max_concurrency: int = 1,
    tokenizer=None,
) -> GridResult:
    """Run every (length, depth, trial) cell and tally verdict rates.

    Payloads and case seeds derive from (base_seed, length index, depth
    index, trial), so reruns are reproducible and independent of execution
    order. A trial whose client fails all attempts is recorded under the
    "error" count for its cell; the grid always completes.
    """
    lengths = tuple(int(x) for x in lengths)
    depths = tuple(float(x) for x in depths)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    # grid_csv keys cells by (length, depth), so a repeated value would hide a column or row.
    for name, values in (("lengths", lengths), ("depths", depths)):
        if len(set(values)) != len(values):
            raise ValueError(f"{name} must not repeat a value, got {list(values)}")

    tasks = []
    for li, length in enumerate(lengths):
        for di, depth in enumerate(depths):
            for trial in range(trials):
                seq = np.random.SeedSequence([base_seed, li, di, trial])
                rng = np.random.default_rng(seq)
                case = NiahCase(
                    haystack_tokens=length,
                    depth_percent=depth,
                    needle_payload=_payload_for(rng),
                    seed=int(rng.integers(0, 2**31)),
                )
                tasks.append((li, di, trial, case))

    def run_one(task):
        li, di, trial, case = task
        gen = generate_case(case, tokenizer)
        try:
            answer = _call_with_retries(
                client, build_prompt(gen), max_tokens, attempts, backoff
            )
        except ClientError as exc:
            return (li, di, trial, case, None, str(exc))
        return (li, di, trial, case, score(gen.expected, answer, case), None)

    if max_concurrency > 1:
        with ThreadPoolExecutor(max_workers=max_concurrency) as pool:
            outcomes = list(pool.map(run_one, tasks))
    else:
        outcomes = [run_one(t) for t in tasks]

    tallies: dict[tuple[int, int], dict[str, int]] = {
        (li, di): {v.value: 0 for v in Verdict} | {"error": 0}
        for li in range(len(lengths))
        for di in range(len(depths))
    }
    details = []
    for li, di, trial, case, result, error in sorted(outcomes, key=lambda o: o[:3]):
        record = {
            "haystack_tokens": lengths[li],
            "depth_percent": depths[di],
            "trial": trial,
            "expected": case.needle_payload,
        }
        if error is not None:
            tallies[(li, di)]["error"] += 1
            record["error"] = error
        else:
            tallies[(li, di)][result.verdict.value] += 1
            record["verdict"] = result.verdict.value
            record["matched_prefix_len"] = result.matched_prefix_len
            record["answer"] = result.answer
        details.append(record)

    cells = tuple(
        CellRates(
            haystack_tokens=lengths[li],
            depth_percent=depths[di],
            trials=trials,
            counts=tallies[(li, di)],
        )
        for li in range(len(lengths))
        for di in range(len(depths))
    )
    return GridResult(
        lengths=lengths, depths=depths, trials=trials, cells=cells, details=tuple(details)
    )


def grid_csv(result: GridResult, metric: str = "exact") -> str:
    """Rates as a CSV matrix: one row per length, one column per depth."""
    header = "haystack_tokens," + ",".join(f"depth_{d:g}" for d in result.depths)
    by_key = {(c.haystack_tokens, c.depth_percent): c for c in result.cells}
    lines = [header]
    for length in result.lengths:
        row = [str(length)]
        for depth in result.depths:
            row.append(f"{by_key[(length, depth)].rate(metric):.6f}")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
