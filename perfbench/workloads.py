"""Seeded inputs, the op each input drives, and the check on its output.

A workload is one cycle of ops. The cost-setting shape of every op in the
cycle (sequence length, devices, chunk sizes, CLI sizes) is fixed, so a
cycle costs the same on every seed; the seed draws everything else
(document layout, Q/K/V values, payloads, budgets, theta candidates, which
bad argv is sent) and the order of the cycle. The timed loop runs whole
cycles, so every run measures the same mix.

Ops reach the package only through module attributes (``cli.dispatch``,
``ringsim.ring_attention``), so the tracer can swap them for wrappers.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import jsonschema
import numpy as np

import reference
from longctx import cli, ringsim, rope, softnum

ROOT = Path(__file__).resolve().parent.parent
SCHEMA_DIR = ROOT / "src" / "longctx" / "schemas"
GOLDEN_MANIFEST = ROOT / "tests" / "data" / "megabeam_manifest.json"

RING_REL_TOL = 1e-6  # acceptance bound of ring vs oracle
CENSUS_ANCHOR = (524_288, 1665)
MEMPLAN_ANCHOR = ((8, 524_288, 1024, 2048), 34_359_738_368)
GOLDEN_RATIO = (math.sqrt(5) - 1) / 2


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


@dataclass
class Op:
    """One call into the package plus the check of what it returned."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], dict | None]  # raises CheckFailed; may return observations
    ring: tuple | None = None  # (segment_ids, devices, q_chunk, kv_chunk, head_dim) for ring counts


def _frac(x: float) -> float:
    return x - math.floor(x)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _cut_segments(rng: np.random.Generator, seq_len: int, documents: int) -> np.ndarray:
    cuts = np.sort(rng.choice(np.arange(1, seq_len), size=documents - 1, replace=False))
    lengths = np.diff(np.concatenate([[0], cuts, [seq_len]]))
    return np.repeat(np.arange(documents), lengths)


# ---------------------------------------------------------------------------
# ring_sweep and ring_long: ring_attention then exact_attention, 1e-6 check


def _ring_op(rng, seq_len, head_dim, segment_ids, devices, q_chunk, kv_chunk) -> Op:
    problem = ringsim.AttentionProblem(
        q=rng.standard_normal((seq_len, head_dim)),
        k=rng.standard_normal((seq_len, head_dim)),
        v=rng.standard_normal((seq_len, head_dim)),
        segment_ids=segment_ids,
    )
    mesh = ringsim.RingMesh(device_count=devices, query_chunk=q_chunk, kv_chunk=kv_chunk)

    def run():
        out, trace = ringsim.ring_attention(problem, mesh)
        return out, trace, ringsim.exact_attention(problem)

    def check(result):
        out, trace, reference_out = result
        rel = float(np.max(np.abs(out - reference_out)) / np.max(np.abs(reference_out)))
        _expect(rel <= RING_REL_TOL, f"ring vs oracle relative error {rel:.3e} > {RING_REL_TOL}")
        _expect(trace.transfers == devices * (devices - 1), f"{trace.transfers} transfers != P*(P-1)")
        return {"rel_err": rel}

    return Op(f"ring:S={seq_len}", run, check, ring=(segment_ids, devices, q_chunk, kv_chunk, head_dim))


def _criterion3_shapes() -> list[tuple]:
    """Every (S, P, q_chunk, kv_chunk) of the acceptance sweep with its probability.

    S is uniform over ten lengths, P uniform over the divisors of S, and
    each chunk size uniform over the divisors of S/P. Sorted by block count,
    the ring's per-op cost.
    """
    shapes = []
    for S in (8, 16, 24, 32, 48, 64, 96, 128, 192, 256):
        for P in _divisors(S):
            chunks = _divisors(S // P)
            p = Fraction(1, 10 * len(_divisors(S)) * len(chunks) ** 2)
            shapes += [((S // q) * (S // kv), S, P, q, kv, p) for q in chunks for kv in chunks]
    return sorted(shapes)


RING_SWEEP_OPS = 56


def ring_sweep(seed: int, workdir: Path) -> list[Op]:
    """Acceptance criterion 3's distribution, by stratified sampling.

    Op k takes the shape at quantile (k + 0.5)/N of the block-count-sorted
    distribution, so a cycle holds the distribution's heavy tail (about 2%
    of ops are S=256 with 1-token chunks, 65,536 blocks) in the same share
    on every seed. The document count uses a second, fixed stratification;
    head_dim, the cut points and Q/K/V come from the seed.
    """
    rng = np.random.default_rng([seed, 1])
    shapes = _criterion3_shapes()
    cdf = np.cumsum([float(s[-1]) for s in shapes])
    ops = []
    for k in range(RING_SWEEP_OPS):
        _, S, P, q_chunk, kv_chunk, _ = shapes[int(np.searchsorted(cdf, (k + 0.5) / RING_SWEEP_OPS))]
        max_docs = max(2, S // 8)
        documents = 1 + int(_frac((k + 1) * GOLDEN_RATIO) * max_docs)
        head_dim = int(rng.integers(2, 33))
        segments = _cut_segments(rng, S, documents)
        ops.append(_ring_op(rng, S, head_dim, segments, P, q_chunk, kv_chunk))
    return [ops[i] for i in rng.permutation(len(ops))]


# (seq_len, ops per cycle); about a third of the time each, S=4096 sets peak memory
RING_LONG_MIX = ((1024, 18), (2048, 6), (4096, 2))


def ring_long(seed: int, workdir: Path) -> list[Op]:
    """Large blocks: S in {1024, 2048, 4096}, P in {4, 8}, chunks >= 64, d in {64, 128}.

    Shapes and document counts (1 to S/256) follow a fixed spread over the
    allowed values; cut points and Q/K/V come from the seed.
    """
    rng = np.random.default_rng([seed, 2])
    ops = []
    for S, count in RING_LONG_MIX:
        for j in range(count):
            P = (4, 8)[j % 2]
            head_dim = (64, 128)[(j // 2) % 2]
            chunks = [c for c in _divisors(S // P) if c >= 64]
            q_chunk = chunks[int(_frac(0.3 + j * GOLDEN_RATIO) * len(chunks))]
            kv_chunk = chunks[int(_frac(0.7 + j * GOLDEN_RATIO**2) * len(chunks))]
            documents = 1 + int(_frac(0.5 + j * GOLDEN_RATIO) * (S // 256))
            segments = _cut_segments(rng, S, documents)
            ops.append(_ring_op(rng, S, head_dim, segments, P, q_chunk, kv_chunk))
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# toolkit_mix: cli.dispatch in-process, plus the rope precision probe


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def dispatch(argv: list[str]) -> CliResult:
    """Run one argv in-process. Usage errors exit through SystemExit(2)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.dispatch(argv)
        except SystemExit as exc:
            code = exc.code
    return CliResult(code, out.getvalue(), err.getvalue())


class _Schemas:
    def __init__(self):
        self._validators = {
            path.stem: jsonschema.Draft202012Validator(json.loads(path.read_text()))
            for path in SCHEMA_DIR.glob("*.json")
        }

    def load(self, name: str, text: str) -> dict:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"{name}: output is not JSON: {exc}") from None
        error = jsonschema.exceptions.best_match(self._validators[name].iter_errors(doc))
        if error is not None:
            raise CheckFailed(f"{name}: schema violation: {error.message}")
        return doc


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _payload(rng) -> str:
    digits = int(rng.integers(5, 10))
    return str(int(rng.integers(1, 10))) + "".join(str(d) for d in rng.integers(0, 10, digits - 1))


class _Toolkit:
    """Builds the seeded argv for each toolkit slot, with its check."""

    def __init__(self, rng, workdir: Path):
        self.rng = rng
        self.workdir = workdir
        self.schemas = _Schemas()
        self.golden = GOLDEN_MANIFEST.read_text(encoding="utf-8")
        self.good_manifest = workdir / "manifest.json"
        self.good_manifest.write_text(self.golden, encoding="utf-8")
        # The two inputs that escape dispatch as TypeError: a list-free manifest
        # and an API shape with an unknown key.
        self.bad_manifest = workdir / "phases-not-a-list.json"
        self.bad_manifest.write_text(json.dumps({"schema": 1, "base_model": "x", "phases": 7}))
        self.bad_shape = workdir / "unknown-key-shape.json"
        self.bad_shape.write_text(json.dumps({"text_path": "text", "bogus_key": 1}))

    def op(self, kind: str, argv: list[str], check: Callable[[CliResult], None], code=0) -> Op:
        argv = ["--no-timestamp", *argv]

        def run():
            return dispatch(argv)

        def full_check(result: CliResult):
            _expect(result.code == code, f"{argv}: exit {result.code}, expected {code}: {result.stderr[-300:]}")
            check(result)

        return Op(f"cli:{kind}", run, full_check)

    # -- successful subcommands ------------------------------------------

    def census(self, limit: int) -> Op:
        expected = reference.census_count(limit)
        if limit == CENSUS_ANCHOR[0]:
            _expect(expected == CENSUS_ANCHOR[1], "census anchor disagrees with the reference")

        def check(r):
            doc = self.schemas.load("census", r.stdout)
            _expect(doc["distinct"] == expected, f"census {limit}: {doc['distinct']} != {expected}")

        return self.op("census", ["census", "--limit", str(limit)], check)

    def rope_plan(self) -> Op:
        context_len = int(self.rng.integers(16_384, 1_048_577))
        bound = reference.theta_lower_bound(context_len)
        factors = sorted(self.rng.uniform(0.3, 6.0, size=int(self.rng.integers(2, 5))))
        candidates = [float(round(bound * f)) for f in factors]
        head_dim = int(self.rng.choice([64, 128]))
        recommended, classes = reference.theta_plan(context_len, candidates, head_dim)

        def check(r):
            doc = self.schemas.load("rope-plan", r.stdout)
            _expect(math.isclose(doc["lower_bound"], bound, rel_tol=1e-12), "rope-plan bound")
            _expect(doc["recommended"] == recommended, f"rope-plan recommended {doc['recommended']}")
            got = [c["classification"] for c in doc["candidates"]]
            _expect(got == classes, f"rope-plan classes {got} != {classes}")

        argv = ["rope-plan", "--context-len", str(context_len), "--head-dim", str(head_dim)]
        return self.op("rope-plan", argv + ["--candidates", ",".join(f"{c:.0f}" for c in candidates)], check)

    def rope_report(self) -> Op:
        theta = float(round(self.rng.uniform(1e4, 1e8)))
        head_dim = int(self.rng.choice([64, 128]))
        max_position = int(self.rng.integers(4096, 1 << 21))
        wavelengths = reference.wavelengths(theta, head_dim)

        def check(r):
            lines = r.stdout.splitlines()
            _expect(lines[0] == "pair_index,inv_freq,wavelength,complete", "rope-report header")
            _expect(len(lines) == head_dim // 2 + 1, f"rope-report has {len(lines) - 1} rows")
            for i, line in enumerate(lines[1:]):
                index, _, wavelength, complete = line.split(",")
                _expect(int(index) == i, "rope-report pair index")
                _expect(math.isclose(float(wavelength), wavelengths[i], rel_tol=1e-12), "wavelength")
                if not math.isclose(wavelengths[i], max_position, rel_tol=1e-9):
                    _expect((complete == "true") == (wavelengths[i] <= max_position), "complete flag")

        argv = ["rope-report", "--theta-base", f"{theta:.0f}", "--head-dim", str(head_dim)]
        return self.op("rope-report", argv + ["--max-position", str(max_position)], check)

    def ringsim(self, seq_len: int, devices: int, q_chunk: int, kv_chunk: int, packed: bool) -> Op:
        """Packed documents via --segments, or one document via ringsim.random_problem."""
        documents = int(self.rng.integers(1, seq_len // 8 + 1)) if packed else 1
        segments = _cut_segments(self.rng, seq_len, documents)
        head_dim = int(self.rng.choice([8, 16, 32]))
        argv = [
            "ringsim", "--seq-len", str(seq_len), "--devices", str(devices),
            "--q-chunk", str(q_chunk), "--kv-chunk", str(kv_chunk),
            "--head-dim", str(head_dim), "--seed", str(int(self.rng.integers(0, 2**31))),
        ]  # fmt: skip
        if packed:
            argv += ["--segments", ",".join(str(n) for n in np.bincount(segments))]

        def check(r):
            doc = self.schemas.load("ringsim", r.stdout)
            # The CLI reports the absolute error; outputs are averages of
            # standard-normal rows, so this is at least as strict as 1e-6 relative.
            _expect(doc["max_abs_error_vs_oracle"] <= RING_REL_TOL, "ringsim error vs oracle")
            _expect(doc["transfers"] == devices * (devices - 1), "ringsim transfers != P*(P-1)")
            _expect(len(doc["schedule"]) == devices * devices, "ringsim schedule length")

        op = self.op("ringsim", argv, check)
        op.ring = (segments, devices, q_chunk, kv_chunk, head_dim)
        return op

    def memplan(self, anchor: bool = False) -> Op:
        if anchor:
            (devices, seq_len, q_chunk, kv_chunk), expected = MEMPLAN_ANCHOR
        else:
            devices = int(self.rng.choice([1, 2, 4, 8, 16]))
            seq_len = devices * (1 << int(self.rng.integers(12, 20)))
            q_chunk, kv_chunk = (int(self.rng.choice(_pow2_divisors(seq_len // devices))) for _ in "qk")
            expected = reference.lookup_table_bytes(devices, seq_len, q_chunk, kv_chunk)
        budget = int(expected * self.rng.uniform(0.5, 2.0))
        extra = int(self.rng.integers(0, 1 << 30))

        def check(r):
            doc = self.schemas.load("memplan", r.stdout)
            _expect(doc["lookup_table_bytes"] == expected, f"memplan bytes {doc['lookup_table_bytes']}")
            _expect(doc["total_bytes"] == expected + extra, "memplan total")
            _expect(doc["fits"] == (expected + extra <= budget), "memplan fits")

        argv = [
            "memplan", "--devices", str(devices), "--seq-len", str(seq_len),
            "--q-chunk", str(q_chunk), "--kv-chunk", str(kv_chunk),
            "--budget", str(budget), "--extra-term", f"activations={extra}",
        ]  # fmt: skip
        return self.op("memplan", argv, check)

    def memplan_search(self, devices: int, seq_len: int, power_of_two: bool) -> Op:
        """The search scans chunk sizes up to S/P, so its cost is set by S/P, not the seed."""
        per_device = seq_len // devices
        min_q = int(self.rng.choice([1, 64, 512, 1024]))
        min_kv = int(self.rng.choice([1, 64, 512, 2048]))
        q_ref = max(min_q, 1024)
        budget = reference.lookup_table_bytes(devices, seq_len, q_ref, per_device) * int(
            self.rng.integers(1, 64)
        )
        expected = reference.chunk_plan_search(
            devices, seq_len, budget, min_q, min_kv, power_of_two=power_of_two
        )

        def check(r):
            doc = self.schemas.load("memplan-search", r.stdout)
            plan = doc["plan"]
            got = None if plan is None else (plan["q_chunk"], plan["kv_chunk"])
            _expect(got == expected, f"memplan-search {got} != {expected}")
            if plan is not None:
                nbytes = reference.lookup_table_bytes(devices, seq_len, *got)
                _expect(plan["lookup_table_bytes"] == nbytes, "memplan-search plan bytes")

        argv = [
            "memplan-search", "--devices", str(devices), "--seq-len", str(seq_len),
            "--budget", str(budget), "--min-q-chunk", str(min_q), "--min-kv-chunk", str(min_kv),
        ] + (["--power-of-two"] if power_of_two else [])  # fmt: skip
        return self.op("memplan-search", argv, check)

    def niah_gen(self, tokens: int) -> Op:
        payload = _payload(self.rng)
        depth = round(float(self.rng.uniform(0, 100)), 2)
        needle_start = "The special magic number"

        def check(r):
            doc = self.schemas.load("niah-gen", r.stdout)
            document = doc["document"]
            _expect(document.count(payload) == 1, "niah-gen payload does not occur exactly once")
            _expect(document[doc["needle_char_offset"] :].startswith(needle_start), "needle offset")
            _expect(abs(doc["estimated_tokens"] - tokens) <= 0.02 * tokens, "niah-gen size off by > 2%")

        argv = [
            "niah-gen", "--haystack-tokens", str(tokens), "--depth", str(depth),
            "--payload", payload, "--seed", str(int(self.rng.integers(0, 2**31))),
        ]  # fmt: skip
        return self.op("niah-gen", argv, check)

    def niah_score(self, verdict: str) -> Op:
        expected = _payload(self.rng)
        answer = {
            "exact": f"The number is {expected}.",
            "truncated": f"I recall {expected[:-1]}",
            "wrong": f"It was {(int(expected[0]) % 9) + 1}{expected[1:]}!",
            "empty": "I could not find it.",
        }[verdict]

        def check(r):
            doc = self.schemas.load("niah-score", r.stdout)
            _expect(doc["verdict"] == verdict, f"niah-score {doc['verdict']} != {verdict}")

        return self.op("niah-score", ["niah-score", "--expected", expected, "--answer", answer], check)

    def niah_grid(self, lengths: tuple[int, ...], depth_count: int) -> Op:
        depths = sorted(self.rng.choice(101, size=depth_count, replace=False).tolist())

        def check(r):
            doc = self.schemas.load("niah-grid", r.stdout)
            _expect(len(doc["cells"]) == len(lengths) * depth_count, "niah-grid cell count")
            _expect(all(c["exact_rate"] == 1.0 for c in doc["cells"]), "echo stub missed a needle")

        argv = [
            "niah-grid", "--lengths", ",".join(map(str, lengths)),
            "--depths", ",".join(map(str, depths)), "--stub", "echo",
            "--seed", str(int(self.rng.integers(0, 2**31))),
        ]  # fmt: skip
        return self.op("niah-grid", argv, check)

    def recipe(self, action: str, from_file: bool = False) -> Op:
        def check(r):
            if action == "validate":
                doc = self.schemas.load("recipe-validate", r.stdout)
                _expect(doc["ok"] is True and doc["violations"] == [], "built-in recipe invalid")
            else:
                self.schemas.load("recipe-manifest", r.stdout)
                _expect(r.stdout == self.golden, f"recipe {action} differs from the golden manifest")

        argv = ["recipe", action] + (["--file", str(self.good_manifest)] if from_file else [])
        return self.op("recipe", argv, check)

    # -- bad argv -----------------------------------------------------------

    def domain_error(self) -> Op:
        """A bad value: exit 1 with a schema-valid JSON error on stderr."""
        argv = [
            ["census", "--limit", "0"],
            ["memplan", "--devices", "8", "--seq-len", "524288", "--q-chunk", "1000", "--kv-chunk", "2048"],
            ["memplan-search", "--devices", "3", "--seq-len", "1000", "--budget", "1000"],
            ["niah-gen", "--haystack-tokens", "2000", "--depth", "150", "--payload", "12345"],
            ["rope-plan", "--context-len", "4096", "--candidates", "1e6,abc"],
            ["ringsim", "--seq-len", "0", "--devices", "1", "--q-chunk", "1", "--kv-chunk", "1"],
            ["recipe", "show", "--file", str(self.workdir / "missing.json")],
        ][int(self.rng.integers(0, 7))]
        return self.op("error", argv, self._error_json, code=1)

    def usage_error(self) -> Op:
        """An argv argparse rejects: exit 2."""
        argv = [
            ["census"],
            ["memplan-search", "--devices", "x", "--seq-len", "8", "--budget", "1"],
            ["no-such-command"],
            ["recipe", "frobnicate"],
            ["niah-grid", "--lengths", "600", "--depths", "50", "--stub", "oracle"],
        ][int(self.rng.integers(0, 5))]

        def check(r):
            _expect(r.stdout == "" and "usage:" in r.stderr, "usage error without usage text")

        return self.op("error", argv, check, code=2)

    def unknown_shape_key(self) -> Op:
        # The shape file is read before any client exists, so no request is sent.
        argv = [
            "niah-grid", "--lengths", "600", "--depths", "50",
            "--endpoint", "http://127.0.0.1:9/complete", "--api-shape", str(self.bad_shape),
        ]  # fmt: skip
        return self.op("error", argv, self._error_json, code=1)

    def phases_not_a_list(self) -> Op:
        return self.op("error", ["recipe", "show", "--file", str(self.bad_manifest)], self._error_json, code=1)

    def _error_json(self, r: CliResult) -> None:
        _expect(r.stdout == "", "error path wrote to stdout")
        self.schemas.load("error", r.stderr)

    # -- library op -----------------------------------------------------------

    def precision_probe(self) -> Op:
        """relative_score shift invariance in both precision modes (demos/position_precision.py)."""
        theta = 75e6
        q, k = self.rng.standard_normal(128), self.rng.standard_normal(128)
        m, n, shift = (int(x) for x in self.rng.integers(1 << 17, 1 << 20, size=3))
        configs = {
            mode: rope.RopeConfig(theta_base=theta, head_dim=128, max_position=1 << 21, precision=mode)
            for mode in softnum.PrecisionMode
        }
        tol = 1e-8 * float(np.linalg.norm(q) * np.linalg.norm(k))

        def run():
            return {
                mode: (
                    rope.relative_score(q, k, m, n, cfg),
                    rope.relative_score(q, k, m + shift, n + shift, cfg),
                )
                for mode, cfg in configs.items()
            }

        def check(scores):
            for mode, (a, b) in scores.items():
                pos = (lambda x: x) if mode is softnum.PrecisionMode.FULL32 else reference.round16
                for got, (i, j) in ((a, (m, n)), (b, (m + shift, n + shift))):
                    want = reference.rope_score(q, k, pos(float(i)), pos(float(j)), theta)
                    _expect(abs(got - want) <= tol, f"{mode.value} score {got} != {want}")

        return Op("probe", run, check)


def _pow2_divisors(n: int) -> list[int]:
    return [1 << e for e in range(n.bit_length()) if n % (1 << e) == 0]


def toolkit_mix(seed: int, workdir: Path) -> list[Op]:
    """All ten subcommands at up to the ROADMAP sizes, the precision probe, bad argv.

    The slot counts keep each subcommand at or under about a third of the
    cycle's time: memplan-search at 1 x 2**24 and census at 2**24 are the
    heaviest single ops, 512K-token niah-gen the most frequent heavy one.
    Most ops are cheap, so the median op sits on the CLI's fixed cost.
    """
    rng = np.random.default_rng([seed, 3])
    t = _Toolkit(rng, workdir)
    jitter = lambda: int(rng.integers(0, 4096))  # noqa: E731
    ops = [
        t.census(CENSUS_ANCHOR[0]),
        t.census((1 << 20) + jitter()),
        t.census((1 << 22) + jitter()),
        *(t.census((1 << 24) - jitter()) for _ in range(3)),
        t.memplan_search(8, 524_288, power_of_two=True),
        t.memplan_search(8, 524_288, power_of_two=True),
        t.memplan_search(1, 1 << 20, power_of_two=False),
        t.memplan_search(1, 1 << 24, power_of_two=False),
        *(t.niah_gen(524_288) for _ in range(15)),
        *(t.niah_gen(65_536) for _ in range(4)),
        *(t.niah_gen(2_000) for _ in range(4)),
        *(t.niah_grid((2000, 16000), 3) for _ in range(10)),
        *(
            t.ringsim(*shape, packed=packed)
            for shape in [(128, 4, 4, 8), (256, 4, 8, 8), (192, 2, 8, 12), (256, 8, 4, 16)]
            for packed in (True, False)
        ),
        *(t.rope_plan() for _ in range(4)),
        *(t.rope_report() for _ in range(4)),
        t.memplan(anchor=True),
        *(t.memplan() for _ in range(5)),
        *(t.niah_score(v) for v in ("exact", "truncated", "wrong", "empty", "exact", "truncated")),
        t.recipe("show"), t.recipe("emit"), t.recipe("emit"), t.recipe("validate"), t.recipe("validate"),
        t.recipe("show", from_file=True), t.recipe("validate", from_file=True),
        *(t.precision_probe() for _ in range(6)),
        t.domain_error(), t.domain_error(),
        t.usage_error(), t.usage_error(),
        t.unknown_shape_key(),
        t.phases_not_a_list(),
    ]  # fmt: skip
    return [ops[i] for i in rng.permutation(len(ops))]


WORKLOADS = {"ring_sweep": ring_sweep, "ring_long": ring_long, "toolkit_mix": toolkit_mix}
