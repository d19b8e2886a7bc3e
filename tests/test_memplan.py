"""Lookup-table byte model and chunk-plan search."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from longctx.memplan import (
    MAX_SEARCH_SEQ_LEN,
    ChunkPlan,
    SearchConstraints,
    lookup_table_bytes,
    memory_report,
    search_chunk_plan,
)

GIB = 2**30


def reference_plan():
    return ChunkPlan(devices=8, seq_len=524_288, q_chunk=1024, kv_chunk=2048)


def doubled_plan():
    return ChunkPlan(devices=8, seq_len=524_288, q_chunk=2048, kv_chunk=4096)


class TestPlanValidation:
    def test_derived_counts(self):
        plan = reference_plan()
        assert plan.per_device == 65_536
        assert plan.num_q_chunks == 64
        assert plan.num_kv_chunks == 32

    def test_rejects_bad_divisibility(self):
        with pytest.raises(ValueError):
            ChunkPlan(devices=3, seq_len=524_288, q_chunk=1024, kv_chunk=2048)
        with pytest.raises(ValueError):
            ChunkPlan(devices=8, seq_len=524_288, q_chunk=1000, kv_chunk=2048)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ChunkPlan(devices=0, seq_len=8, q_chunk=1, kv_chunk=1)


class TestLookupTableBytes:
    def test_32_gib_reference_configuration(self):
        assert lookup_table_bytes(reference_plan()) == 34_359_738_368

    def test_doubling_both_chunks_quarters_the_table(self):
        assert lookup_table_bytes(doubled_plan()) == 8_589_934_592
        assert lookup_table_bytes(reference_plan()) == 4 * lookup_table_bytes(doubled_plan())

    def test_degenerate_single_element(self):
        assert lookup_table_bytes(ChunkPlan(devices=1, seq_len=1, q_chunk=1, kv_chunk=1)) == 4

    def test_closed_form_via_exact_arithmetic(self):
        # Independent recomputation: bytes = 4 * S**3 / (P * cq * ckv).
        for plan in (reference_plan(), doubled_plan(),
                     ChunkPlan(devices=4, seq_len=65_536, q_chunk=256, kv_chunk=512)):
            want = Fraction(4 * plan.seq_len**3, plan.devices * plan.q_chunk * plan.kv_chunk)
            assert want.denominator == 1
            assert lookup_table_bytes(plan) == want.numerator

    @given(
        st.integers(0, 4), st.integers(0, 4),
        st.sampled_from([1, 2, 4, 8]), st.integers(10, 22),
    )
    def test_quarter_per_doubling_property(self, iq, ikv, devices, log_s):
        seq_len = 2**log_s
        per_device = seq_len // devices
        q_chunk, kv_chunk = 2**iq, 2**ikv
        if per_device % (2 * q_chunk) or per_device % (2 * kv_chunk):
            return
        small = ChunkPlan(devices, seq_len, q_chunk, kv_chunk)
        big = ChunkPlan(devices, seq_len, 2 * q_chunk, 2 * kv_chunk)
        assert lookup_table_bytes(small) == 4 * lookup_table_bytes(big)

    def test_monotone_in_chunk_sizes(self):
        base = lookup_table_bytes(ChunkPlan(2, 1024, 16, 16))
        assert lookup_table_bytes(ChunkPlan(2, 1024, 32, 16)) <= base
        assert lookup_table_bytes(ChunkPlan(2, 1024, 16, 32)) <= base


class TestMemoryReport:
    def test_budget_verdict(self):
        report = memory_report(reference_plan(), budget_bytes=16 * GIB)
        assert not report.fits
        report = memory_report(doubled_plan(), budget_bytes=16 * GIB)
        assert report.fits

    def test_extra_terms_are_additive(self):
        report = memory_report(doubled_plan(), extra_terms={"activations": 3 * GIB})
        assert report.total_bytes == report.lookup_table_bytes + 3 * GIB

    @pytest.mark.parametrize("budget", [0, -1])
    def test_rejects_nonpositive_budget(self, budget):
        with pytest.raises(ValueError, match="budget_bytes must be positive"):
            memory_report(doubled_plan(), budget_bytes=budget)

    def test_rejects_negative_term(self):
        with pytest.raises(ValueError, match="non-negative"):
            memory_report(doubled_plan(), extra_terms={"activations": GIB, "a": -5})

    @pytest.mark.parametrize("name", ["", " ", "\t", " a", "a "])
    def test_rejects_blank_or_padded_term_names(self, name):
        with pytest.raises(ValueError, match="non-blank with no surrounding whitespace"):
            memory_report(doubled_plan(), extra_terms={name: 5})

    @pytest.mark.parametrize("nbytes", [1.5, 1e3, True, "5"])
    def test_rejects_non_integer_terms(self, nbytes):
        with pytest.raises(ValueError, match="'a' must be an integer byte count"):
            memory_report(doubled_plan(), extra_terms={"a": nbytes})

    def test_rejects_the_table_name_as_a_term(self):
        with pytest.raises(ValueError, match="reserved"):
            memory_report(doubled_plan(), extra_terms={"lookup_table": 5})

    def test_breakdown_sums_to_total(self):
        report = memory_report(doubled_plan(), extra_terms={"activations": 3 * GIB, "zero": 0})
        assert report.breakdown == {
            "lookup_table": report.lookup_table_bytes, "activations": 3 * GIB, "zero": 0,
        }
        assert sum(report.breakdown.values()) == report.total_bytes


def brute_force_first_fit(devices, seq_len, budget, constraints):
    """First fitting (q_chunk, kv_chunk) over every divisor pair, in ascending order."""
    per_device = seq_len // devices
    c = constraints

    def allowed(size, lo, hi):
        return (
            per_device % size == 0
            and size >= lo
            and (hi is None or size <= hi)
            and not (c.power_of_two and size & (size - 1))
        )

    for cq in range(1, per_device + 1):
        if not allowed(cq, c.min_q_chunk, c.max_q_chunk):
            continue
        for ckv in range(1, per_device + 1):
            if not allowed(ckv, c.min_kv_chunk, c.max_kv_chunk):
                continue
            if lookup_table_bytes(ChunkPlan(devices, seq_len, cq, ckv)) <= budget:
                return (cq, ckv)
    return None


class TestSearch:
    def exhaustive_best(self, devices, seq_len, budget, constraints):
        per_device = seq_len // devices
        feasible = []
        for cq in range(1, per_device + 1):
            if per_device % cq:
                continue
            if cq < constraints.min_q_chunk:
                continue
            if constraints.power_of_two and cq & (cq - 1):
                continue
            for ckv in range(1, per_device + 1):
                if per_device % ckv:
                    continue
                if ckv < constraints.min_kv_chunk:
                    continue
                if constraints.power_of_two and ckv & (ckv - 1):
                    continue
                plan = ChunkPlan(devices, seq_len, cq, ckv)
                if lookup_table_bytes(plan) <= budget:
                    feasible.append((cq, ckv))
        return min(feasible) if feasible else None

    def test_16_gib_budget_with_chunk_floors(self):
        constraints = SearchConstraints(min_q_chunk=1024, min_kv_chunk=2048, power_of_two=True)
        plan = search_chunk_plan(8, 524_288, 16 * GIB, constraints)
        assert (plan.q_chunk, plan.kv_chunk) == self.exhaustive_best(
            8, 524_288, 16 * GIB, constraints
        )
        assert lookup_table_bytes(plan) <= 16 * GIB

    def test_64_gib_budget_admits_the_reference_plan(self):
        constraints = SearchConstraints(min_q_chunk=1024, min_kv_chunk=2048, power_of_two=True)
        plan = search_chunk_plan(8, 524_288, 64 * GIB, constraints)
        assert (plan.q_chunk, plan.kv_chunk) == (1024, 2048)
        assert (plan.q_chunk, plan.kv_chunk) == self.exhaustive_best(
            8, 524_288, 64 * GIB, constraints
        )

    def test_hopeless_budget_returns_none(self):
        assert search_chunk_plan(8, 524_288, 1) is None

    def test_seq_len_bound(self):
        assert search_chunk_plan(1, MAX_SEARCH_SEQ_LEN, 1) is None
        with pytest.raises(ValueError, match="MAX_SEARCH_SEQ_LEN"):
            search_chunk_plan(1, MAX_SEARCH_SEQ_LEN + 1, 1)

    def test_result_is_minimal_at_small_scale(self):
        for budget in (4_000, 40_000, 400_000):
            constraints = SearchConstraints()
            got = search_chunk_plan(4, 1024, budget, constraints)
            want = self.exhaustive_best(4, 1024, budget, constraints)
            if want is None:
                assert got is None
            else:
                assert (got.q_chunk, got.kv_chunk) == want

    def test_max_chunk_constraint_respected(self):
        constraints = SearchConstraints(max_q_chunk=8, max_kv_chunk=8)
        plan = search_chunk_plan(4, 1024, 10**12, constraints)
        assert plan.q_chunk <= 8 and plan.kv_chunk <= 8

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            search_chunk_plan(8, 1024, 0)

    @pytest.mark.parametrize(
        "devices, seq_len, constraints",
        [
            (0, 1024, SearchConstraints()),
            (-2, 1024, SearchConstraints()),
            (2, -1024, SearchConstraints()),
            (2, 1024, SearchConstraints(min_q_chunk=0)),
            (2, 1024, SearchConstraints(min_kv_chunk=-4)),
        ],
    )
    def test_rejects_nonpositive_sizes(self, devices, seq_len, constraints):
        with pytest.raises(ValueError, match="positive"):
            search_chunk_plan(devices, seq_len, 10**9, constraints)

    @pytest.mark.parametrize(
        "constraints, field",
        [
            (SearchConstraints(max_q_chunk=0), "max_q_chunk"),
            (SearchConstraints(min_q_chunk=64, max_q_chunk=32), "max_q_chunk"),
            (SearchConstraints(max_kv_chunk=-1), "max_kv_chunk"),
            (SearchConstraints(min_kv_chunk=8, max_kv_chunk=4), "max_kv_chunk"),
        ],
    )
    def test_rejects_a_maximum_below_its_minimum(self, constraints, field):
        # Such bounds admit no chunk, so the search would report no plan whatever the budget.
        with pytest.raises(ValueError, match=f"{field} must be at least"):
            search_chunk_plan(2, 1024, 10**12, constraints)

    @given(
        per_device=st.integers(1, 5040),
        devices=st.integers(1, 8),
        budget_position=st.floats(-0.05, 1.05),
        bounds=st.tuples(
            st.integers(1, 5041), st.integers(1, 5041),
            st.none() | st.integers(1, 5040), st.none() | st.integers(1, 5040),
        ),
        power_of_two=st.booleans(),
    )
    def test_equals_brute_force_first_fit(
        self, per_device, devices, budget_position, bounds, power_of_two
    ):
        seq_len = devices * per_device
        constraints = SearchConstraints(*bounds, power_of_two=power_of_two)
        min_q, min_kv, max_q, max_kv = bounds
        if (max_q is not None and max_q < min_q) or (max_kv is not None and max_kv < min_kv):
            with pytest.raises(ValueError, match="must be at least min_"):
                search_chunk_plan(devices, seq_len, 1, constraints)
            return
        # Budgets spread log-uniformly over the table sizes this mesh can reach.
        smallest = lookup_table_bytes(ChunkPlan(devices, seq_len, per_device, per_device))
        largest = lookup_table_bytes(ChunkPlan(devices, seq_len, 1, 1))
        budget = max(1, round(smallest * (largest / smallest) ** budget_position))
        got = search_chunk_plan(devices, seq_len, budget, constraints)
        want = brute_force_first_fit(devices, seq_len, budget, constraints)
        assert (None if got is None else (got.q_chunk, got.kv_chunk)) == want

