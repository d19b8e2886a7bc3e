"""Phased long-context training plans as validated, machine-checkable manifests.

A manifest is an ordered list of phases, each with a token budget, a
sequence-length layout (exact lengths or a length band, with sequence
counts and/or token subtotals), an optional source-mix map, and the RoPE
theta base in force. The built-in megabeam_recipe() encodes the published
MegaBeam-Mistral-7B context-extension plan: four training stages, with the
second split into the two corrective steps it actually consisted of.

The validator recomputes token accounting independently (counts x lengths
against declared subtotals, subtotal sums against phase budgets) and
checks mix normalization and the theta progression. Manifests serialize to
a canonical JSON form that round-trips exactly.

Reading JSON back is two steps. parse_manifest checks only shape and
types (a missing key, a non-list phases, a string budget) and raises
ManifestError for those; validate then lists every broken invariant as a
Violation. load_manifest does both and raises if any violation is found.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from decimal import Decimal

__all__ = [
    "SCHEMA_VERSION",
    "SequenceSpec",
    "PhasePlan",
    "RecipeManifest",
    "Violation",
    "ManifestError",
    "megabeam_recipe",
    "validate",
    "emit_manifest",
    "parse_manifest",
    "load_manifest",
]

SCHEMA_VERSION = 1

# Budgets within this fraction of the declared value count as matching;
# published token counts are rounded, so exact equality is the wrong test.
DEFAULT_SUBTOTAL_TOLERANCE = 0.05


class ManifestError(ValueError):
    """Raised when manifest text cannot be parsed or breaks invariants."""


@dataclass(frozen=True)
class SequenceSpec:
    """One sequence-length entry: an exact length or a band [seq_len, seq_len_max].

    Carries a sequence count, a token subtotal, or both. With both present
    the validator cross-checks count * seq_len against the subtotal.
    """

    seq_len: int
    seq_len_max: int | None = None
    sequence_count: int | None = None
    token_subtotal: int | None = None

    def tokens(self) -> int | None:
        if self.token_subtotal is not None:
            return self.token_subtotal
        if self.sequence_count is not None and self.seq_len_max is None:
            return self.sequence_count * self.seq_len
        return None


@dataclass(frozen=True)
class PhasePlan:
    """One training phase: budget, sequence layout, mix, theta, purpose."""

    index: int
    phase_id: str
    purpose: str
    token_budget: int
    rope_theta: float
    sequence_spec: tuple[SequenceSpec, ...] = ()
    mix: dict[str, float] = field(default_factory=dict)
    checkpoint: str | None = None
    subtotal_tolerance: float = DEFAULT_SUBTOTAL_TOLERANCE


@dataclass(frozen=True)
class RecipeManifest:
    """Ordered phases plus the base model and free-form convention notes."""

    base_model: str
    phases: tuple[PhasePlan, ...]
    notes: tuple[str, ...] = ()


def megabeam_recipe() -> RecipeManifest:
    """The MegaBeam-Mistral-7B context-extension plan as a manifest.

    Phases 1, 2a, 2b and 3 are continual pretraining (1.84B tokens all
    told); phase 4 is a small long-context SFT pass. Sequence lengths are
    decimal thousands (300K = 300,000 tokens).
    """
    phases = (
        PhasePlan(
            index=1,
            phase_id="1",
            purpose=(
                "progressive long-context continual pretraining on organically "
                "long documents"
            ),
            token_budget=1_200_000_000,
            rope_theta=25_000_000.0,
            sequence_spec=(
                SequenceSpec(seq_len=300_000, token_subtotal=640_000_000),
                SequenceSpec(seq_len=600_000, token_subtotal=560_000_000),
            ),
            mix={
                "source_code": 0.70,
                "research_papers": 0.10,
                "web_content": 0.15,
                "books": 0.05,
            },
            checkpoint="MegaBeam-Mistral-7B-300K",
        ),
        PhasePlan(
            index=2,
            phase_id="2a",
            purpose=(
                "theta base raised from 25M to 75M; extra long-sequence training "
                "to push effective context past 300K"
            ),
            token_budget=180_000_000,
            rope_theta=75_000_000.0,
            sequence_spec=(SequenceSpec(seq_len=600_000, token_subtotal=180_000_000),),
        ),
        PhasePlan(
            index=3,
            phase_id="2b",
            purpose=(
                "shorter-sequence training under the new theta base to repair "
                "recall at sequence endpoints"
            ),
            token_budget=260_000_000,
            rope_theta=75_000_000.0,
            sequence_spec=(
                SequenceSpec(seq_len=32_000, seq_len_max=80_000, token_subtotal=260_000_000),
            ),
        ),
        PhasePlan(
            index=4,
            phase_id="3",
            purpose=(
                "balanced re-pretraining across context windows after the "
                "position-precision fix"
            ),
            token_budget=200_000_000,
            rope_theta=75_000_000.0,
            sequence_spec=(
                SequenceSpec(seq_len=80_000, sequence_count=1_200, token_subtotal=96_000_000),
                SequenceSpec(seq_len=256_000, sequence_count=300, token_subtotal=77_000_000),
                SequenceSpec(seq_len=512_000, sequence_count=30, token_subtotal=15_000_000),
            ),
            # Published budget (0.2B) rounds the 188M subtotal sum up; widen
            # the tolerance so the declared figures validate as stated.
            subtotal_tolerance=0.08,
        ),
        PhasePlan(
            index=5,
            phase_id="4",
            purpose=(
                "long-context supervised fine-tuning on synthetic documents "
                "built to exercise long-range retrieval"
            ),
            token_budget=22_000_000,
            rope_theta=75_000_000.0,
            sequence_spec=(
                SequenceSpec(seq_len=64_000, seq_len_max=512_000, token_subtotal=22_000_000),
            ),
            checkpoint="MegaBeam-Mistral-7B-512K",
        ),
    )
    return RecipeManifest(
        base_model="Mistral-7B-Instruct-v0.2",
        phases=phases,
        notes=(
            "sequence lengths are decimal thousands: 300K means 300,000 tokens",
            "phase 3 keeps its published 0.2B budget; the entry subtotals sum "
            "to 188M, covered by that phase's 8% tolerance",
        ),
    )


@dataclass(frozen=True)
class Violation:
    phase_id: str | None
    field: str
    expected: str
    actual: str
    message: str

    def __str__(self):
        where = f"phase {self.phase_id}" if self.phase_id else "manifest"
        return f"{where}: {self.field}: {self.message} (expected {self.expected}, got {self.actual})"


def _off_by_more_than(tolerance: float, actual: int, declared: int) -> bool:
    # Exact at any integer size. The tolerance is the decimal it prints as (0.08, not its
    # binary neighbour), so a count exactly at the tolerance still matches.
    num, den = Decimal(repr(tolerance)).as_integer_ratio()
    return abs(actual - declared) * den > num * declared


def validate(manifest: RecipeManifest) -> list[Violation]:
    """Check every manifest invariant; empty list means the manifest is sound."""
    out: list[Violation] = []

    if not manifest.phases:
        out.append(Violation(None, "phases", ">= 1 phase", "0", "a manifest needs at least one phase"))

    indices = [p.index for p in manifest.phases]
    if any(b <= a for a, b in zip(indices, indices[1:])):
        out.append(
            Violation(
                phase_id=None,
                field="phases.index",
                expected="strictly increasing",
                actual=str(indices),
                message="phase order must be strictly increasing",
            )
        )

    thetas = [p.rope_theta for p in manifest.phases]
    if any(b < a for a, b in zip(thetas, thetas[1:])):
        out.append(
            Violation(
                phase_id=None,
                field="phases.rope_theta",
                expected="non-decreasing",
                actual=str(thetas),
                message="theta base must never decrease across phases",
            )
        )

    for p in manifest.phases:
        if p.token_budget <= 0:
            out.append(
                Violation(p.phase_id, "token_budget", "> 0", str(p.token_budget), "budget must be positive")
            )
        if p.rope_theta <= 1:
            out.append(
                Violation(p.phase_id, "rope_theta", "> 1", str(p.rope_theta), "theta base must exceed 1")
            )

        if p.mix:
            total = sum(p.mix.values())
            if abs(total - 1.0) > 1e-9:
                out.append(
                    Violation(p.phase_id, "mix", "sum 1.0", f"sum {total!r}", "mix fractions must sum to 1")
                )
            for name, frac in p.mix.items():
                if frac < 0:
                    out.append(
                        Violation(p.phase_id, f"mix.{name}", ">= 0", str(frac), "mix fraction negative")
                    )

        phase_tokens = 0
        for j, entry in enumerate(p.sequence_spec):
            label = f"sequence_spec[{j}]"
            if entry.seq_len < 1:
                out.append(Violation(p.phase_id, label, "seq_len >= 1", str(entry.seq_len), "bad length"))
            if entry.seq_len_max is not None and entry.seq_len_max < entry.seq_len:
                out.append(
                    Violation(
                        p.phase_id, label, "seq_len_max >= seq_len", str(entry.seq_len_max), "bad band"
                    )
                )
            tokens = entry.tokens()
            if tokens is None:
                out.append(
                    Violation(
                        p.phase_id,
                        label,
                        "sequence_count or token_subtotal",
                        "neither derivable",
                        "entry carries no token accounting",
                    )
                )
                continue
            # Independent recount: with both count and subtotal declared,
            # count * seq_len must agree with the subtotal.
            if (
                entry.sequence_count is not None
                and entry.token_subtotal is not None
                and entry.seq_len_max is None
            ):
                recount = entry.sequence_count * entry.seq_len
                if _off_by_more_than(p.subtotal_tolerance, recount, entry.token_subtotal):
                    out.append(
                        Violation(
                            p.phase_id,
                            label,
                            f"count*len ~ {entry.token_subtotal}",
                            str(recount),
                            "subtotal disagrees with count * length",
                        )
                    )
            phase_tokens += tokens

        if p.sequence_spec and _off_by_more_than(p.subtotal_tolerance, phase_tokens, p.token_budget):
            out.append(
                Violation(
                    p.phase_id,
                    "token_budget",
                    f"~ {p.token_budget} (tol {p.subtotal_tolerance:.0%})",
                    str(phase_tokens),
                    "sequence_spec subtotals do not sum to the budget",
                )
            )

    return out


def _int_if_integral(x: float):
    return int(x) if float(x).is_integer() else x


def _phase_to_json(p: PhasePlan) -> dict:
    return {
        "index": p.index,
        "phase_id": p.phase_id,
        "purpose": p.purpose,
        "token_budget": p.token_budget,
        "rope_theta": _int_if_integral(p.rope_theta),
        "subtotal_tolerance": p.subtotal_tolerance,
        "mix": {name: p.mix[name] for name in sorted(p.mix)},
        "checkpoint": p.checkpoint,
        "sequence_spec": [asdict(e) for e in p.sequence_spec],
    }


def emit_manifest(manifest: RecipeManifest) -> str:
    """Canonical JSON text: fixed key order, integer token counts, LF-terminated."""
    doc = {
        "schema": SCHEMA_VERSION,
        "base_model": manifest.base_model,
        "notes": list(manifest.notes),
        "phases": [_phase_to_json(p) for p in manifest.phases],
    }
    return json.dumps(doc, indent=2, ensure_ascii=True) + "\n"


def _require(doc: dict, key: str, ctx: str):
    if key not in doc:
        raise ManifestError(f"{ctx}: missing required key {key!r}")
    return doc[key]


def _as_list(value, ctx: str) -> list:
    if not isinstance(value, list):
        raise ManifestError(f"{ctx} must be a JSON list, got {type(value).__name__}")
    return value


def _as_object(value, ctx: str) -> dict:
    if not isinstance(value, dict):
        raise ManifestError(f"{ctx} must be a JSON object, got {type(value).__name__}")
    return value


def _as_int(value, ctx: str) -> int:
    """A JSON integer; like JSON Schema, an integral number such as 1.2e9 counts."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ManifestError(f"{ctx} must be a JSON integer, got {value!r}")
    return value


def _as_str(value, ctx: str) -> str:
    if not isinstance(value, str):
        raise ManifestError(f"{ctx} must be a JSON string, got {value!r}")
    return value


def _as_number(value, ctx: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ManifestError(f"{ctx} must be a JSON number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ManifestError(f"{ctx} is beyond the float64 range") from None
    # json.loads reads NaN, Infinity and 1e400 as non-finite floats, which emit cannot write back as JSON.
    if not math.isfinite(number):
        raise ManifestError(f"{ctx} must be a finite JSON number, got {value!r}")
    return number


def _optional(doc: dict, key: str, ctx: str, read=_as_int):
    return None if doc.get(key) is None else read(doc[key], f"{ctx}.{key}")


def _sequence_spec(edoc: dict, ctx: str) -> SequenceSpec:
    return SequenceSpec(
        seq_len=_as_int(_require(edoc, "seq_len", ctx), f"{ctx}.seq_len"),
        seq_len_max=_optional(edoc, "seq_len_max", ctx),
        sequence_count=_optional(edoc, "sequence_count", ctx),
        token_subtotal=_optional(edoc, "token_subtotal", ctx),
    )


def parse_manifest(text: str) -> RecipeManifest:
    """Parse manifest JSON, raising ManifestError for shape and type errors only.

    Invariants are left to validate(), so a manifest that breaks them
    still parses and its violations can be listed.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep to decode
        raise ManifestError(f"not valid JSON: {exc}") from exc
    _as_object(doc, "manifest")

    schema = _require(doc, "schema", "manifest")
    if isinstance(schema, bool) or schema != SCHEMA_VERSION:
        raise ManifestError(f"unsupported schema version {schema!r}, expected {SCHEMA_VERSION}")

    phases = []
    for i, pdoc in enumerate(_as_list(_require(doc, "phases", "manifest"), "manifest.phases")):
        ctx = f"phases[{i}]"
        pdoc = _as_object(pdoc, ctx)
        spec_ctx = f"{ctx}.sequence_spec"
        edocs = _as_list(_require(pdoc, "sequence_spec", ctx), spec_ctx)
        entries = tuple(
            _sequence_spec(_as_object(e, f"{spec_ctx}[{j}]"), f"{spec_ctx}[{j}]")
            for j, e in enumerate(edocs)
        )
        mix = _as_object(pdoc.get("mix", {}), f"{ctx}.mix")
        phases.append(
            PhasePlan(
                index=_as_int(_require(pdoc, "index", ctx), f"{ctx}.index"),
                phase_id=_as_str(_require(pdoc, "phase_id", ctx), f"{ctx}.phase_id"),
                purpose=_as_str(_require(pdoc, "purpose", ctx), f"{ctx}.purpose"),
                token_budget=_as_int(_require(pdoc, "token_budget", ctx), f"{ctx}.token_budget"),
                rope_theta=_as_number(_require(pdoc, "rope_theta", ctx), f"{ctx}.rope_theta"),
                sequence_spec=entries,
                mix={k: _as_number(v, f"{ctx}.mix.{k}") for k, v in mix.items()},
                checkpoint=_optional(pdoc, "checkpoint", ctx, _as_str),
                subtotal_tolerance=_as_number(
                    pdoc.get("subtotal_tolerance", DEFAULT_SUBTOTAL_TOLERANCE),
                    f"{ctx}.subtotal_tolerance",
                ),
            )
        )

    notes = _as_list(doc.get("notes", []), "manifest.notes")
    return RecipeManifest(
        base_model=_as_str(_require(doc, "base_model", "manifest"), "manifest.base_model"),
        phases=tuple(phases),
        notes=tuple(_as_str(n, f"manifest.notes[{i}]") for i, n in enumerate(notes)),
    )


def load_manifest(text: str) -> RecipeManifest:
    """Parse canonical JSON back into a manifest, enforcing all invariants."""
    manifest = parse_manifest(text)
    problems = validate(manifest)
    if problems:
        raise ManifestError(
            "manifest breaks invariants: " + "; ".join(str(v) for v in problems)
        )
    return manifest
