"""Manifest constants, validation, and canonical serialization."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from longctx.recipe import (
    ManifestError,
    PhasePlan,
    RecipeManifest,
    SequenceSpec,
    emit_manifest,
    load_manifest,
    megabeam_recipe,
    validate,
)

GOLDEN = Path(__file__).parent / "data" / "megabeam_manifest.json"


class TestBuiltinPlan:
    def test_validates_clean(self):
        assert validate(megabeam_recipe()) == []

    def test_pretraining_total_within_two_billion(self):
        manifest = megabeam_recipe()
        pretraining = [p for p in manifest.phases if p.phase_id != "4"]
        total = sum(p.token_budget for p in pretraining)
        assert total == 1_840_000_000
        assert total <= 2_000_000_000

    def test_phase_one_split(self):
        phase = megabeam_recipe().phases[0]
        assert phase.token_budget == 1_200_000_000
        subtotals = [e.token_subtotal for e in phase.sequence_spec]
        assert subtotals == [640_000_000, 560_000_000]
        assert sum(subtotals) == phase.token_budget

    def test_phase_one_mix(self):
        mix = megabeam_recipe().phases[0].mix
        assert mix["source_code"] == 0.70
        assert mix["research_papers"] == 0.10
        assert mix["web_content"] == 0.15
        assert mix["books"] == 0.05
        assert sum(mix.values()) == pytest.approx(1.0, abs=1e-12)

    def test_phase_three_counts_and_subtotals(self):
        phase = next(p for p in megabeam_recipe().phases if p.phase_id == "3")
        spec = {(e.seq_len, e.sequence_count): e.token_subtotal for e in phase.sequence_spec}
        assert spec == {
            (80_000, 1_200): 96_000_000,
            (256_000, 300): 77_000_000,
            (512_000, 30): 15_000_000,
        }
        subtotal_sum = sum(e.token_subtotal for e in phase.sequence_spec)
        assert subtotal_sum == 188_000_000
        assert abs(subtotal_sum - phase.token_budget) <= phase.subtotal_tolerance * phase.token_budget

    def test_theta_progression(self):
        thetas = [p.rope_theta for p in megabeam_recipe().phases]
        assert thetas[0] == 25_000_000
        assert thetas[-1] == 75_000_000
        assert all(b >= a for a, b in zip(thetas, thetas[1:]))

    def test_checkpoints(self):
        manifest = megabeam_recipe()
        assert manifest.base_model == "Mistral-7B-Instruct-v0.2"
        names = [p.checkpoint for p in manifest.phases if p.checkpoint]
        assert names == ["MegaBeam-Mistral-7B-300K", "MegaBeam-Mistral-7B-512K"]


class TestValidator:
    def test_broken_mix_named(self):
        manifest = megabeam_recipe()
        bad_phase = replace(manifest.phases[0], mix={"source_code": 0.9})
        bad = replace(manifest, phases=(bad_phase,) + manifest.phases[1:])
        problems = validate(bad)
        assert len(problems) == 1
        assert problems[0].field == "mix"
        assert problems[0].phase_id == "1"

    def test_decreasing_theta_flagged(self):
        manifest = megabeam_recipe()
        bad_phase = replace(manifest.phases[2], rope_theta=10_000_000.0)
        bad = replace(
            manifest, phases=manifest.phases[:2] + (bad_phase,) + manifest.phases[3:]
        )
        problems = validate(bad)
        assert any(v.field == "phases.rope_theta" for v in problems)

    def test_out_of_order_phases_flagged(self):
        manifest = megabeam_recipe()
        bad = replace(manifest, phases=(manifest.phases[1], manifest.phases[0]))
        problems = validate(bad)
        assert any(v.field == "phases.index" for v in problems)

    def test_subtotal_budget_disagreement_flagged(self):
        phase = PhasePlan(
            index=1, phase_id="1", purpose="x", token_budget=1_000_000,
            rope_theta=10_000.0,
            sequence_spec=(SequenceSpec(seq_len=1_000, token_subtotal=500_000),),
        )
        problems = validate(RecipeManifest(base_model="m", phases=(phase,)))
        assert any(v.field == "token_budget" for v in problems)

    def test_count_times_length_recount(self):
        phase = PhasePlan(
            index=1, phase_id="1", purpose="x", token_budget=1_000_000,
            rope_theta=10_000.0,
            sequence_spec=(
                SequenceSpec(seq_len=1_000, sequence_count=1_000, token_subtotal=2_000_000),
            ),
        )
        problems = validate(RecipeManifest(base_model="m", phases=(phase,)))
        assert any("count * length" in v.message for v in problems)

    def test_entry_without_accounting_flagged(self):
        phase = PhasePlan(
            index=1, phase_id="1", purpose="x", token_budget=1_000_000,
            rope_theta=10_000.0,
            sequence_spec=(SequenceSpec(seq_len=1_000),),
        )
        problems = validate(RecipeManifest(base_model="m", phases=(phase,)))
        assert any("no token accounting" in v.message for v in problems)


class TestSerialization:
    def test_golden_manifest_is_byte_stable(self):
        assert emit_manifest(megabeam_recipe()) == GOLDEN.read_text(encoding="utf-8")

    def test_emit_is_deterministic(self):
        assert emit_manifest(megabeam_recipe()) == emit_manifest(megabeam_recipe())

    def test_round_trip_identity(self):
        manifest = megabeam_recipe()
        assert load_manifest(emit_manifest(manifest)) == manifest

    def test_round_trip_of_a_custom_manifest(self):
        manifest = RecipeManifest(
            base_model="toy",
            phases=(
                PhasePlan(
                    index=1, phase_id="1", purpose="warmup", token_budget=10_000,
                    rope_theta=5_000.5,
                    sequence_spec=(SequenceSpec(seq_len=100, sequence_count=100),),
                    mix={"web": 1.0},
                ),
            ),
            notes=("toy plan",),
        )
        assert load_manifest(emit_manifest(manifest)) == manifest

    def test_token_counts_serialize_as_integers(self):
        doc = json.loads(emit_manifest(megabeam_recipe()))
        phase = doc["phases"][0]
        assert isinstance(phase["token_budget"], int)
        assert isinstance(phase["rope_theta"], int)
        assert isinstance(phase["sequence_spec"][0]["token_subtotal"], int)

    def test_load_empty_object_fails(self):
        with pytest.raises(ManifestError):
            load_manifest("{}")

    def test_load_malformed_json_fails(self):
        with pytest.raises(ManifestError, match="not valid JSON"):
            load_manifest("{nope")

    def test_load_wrong_schema_version_fails(self):
        doc = json.loads(emit_manifest(megabeam_recipe()))
        doc["schema"] = 99
        with pytest.raises(ManifestError, match="schema"):
            load_manifest(json.dumps(doc))

    @pytest.mark.parametrize(
        "path, value, match",
        [
            ((), 7, "manifest.phases must be a JSON list"),
            ((0,), "phase", r"phases\[0\] must be a JSON object"),
            ((0, "sequence_spec"), {}, r"phases\[0\].sequence_spec must be a JSON list"),
            ((0, "sequence_spec", 0), 3, r"phases\[0\].sequence_spec\[0\] must be a JSON object"),
            ((0, "mix"), [], r"phases\[0\].mix must be a JSON object"),
        ],
    )
    def test_load_wrongly_typed_structure_fails(self, path, value, match):
        doc = json.loads(emit_manifest(megabeam_recipe()))
        *parents, last = ("phases", *path)
        node = doc
        for key in parents:
            node = node[key]
        node[last] = value
        with pytest.raises(ManifestError, match=match):
            load_manifest(json.dumps(doc))

    def test_load_enforces_invariants(self):
        doc = json.loads(emit_manifest(megabeam_recipe()))
        doc["phases"][0]["mix"] = {"source_code": 0.5}
        with pytest.raises(ManifestError, match="mix"):
            load_manifest(json.dumps(doc))
