"""Batched physics kernels: bit-identity, routing, caching, and wiring.

The batched fast path (`repro.powerflow.batch.DcKernel` + the runner's
chunk-level dispatch) promises *bit-identical* results to the scalar
per-scenario loop — these tests assert equality with ``==``, never
``allclose``: multi-RHS solves against per-row solves, vectorized
injection replay against realize-and-compile, whole batched studies
against scalar studies across chunk sizes and execution paths, and the
graceful degradation for mixed or topology-changing chunks.
"""

import dataclasses

import numpy as np
import pytest

from repro.grid.cases import load_case
from repro.contingency.lodf import compute_factors, compute_ptdf
from repro.contingency.screening import screen_dc, screen_dc_many
from repro.instrumentation.metrics import MetricsRegistry, set_metrics
from repro.powerflow import DcKernel, dc_injections, solve_dc, topology_digest
from repro.scenarios import (
    ANALYSES,
    BatchStudyRunner,
    BranchOutage,
    GaussianLoadNoise,
    GeneratorOutage,
    PerBusLoadScale,
    RenewableInjection,
    Scenario,
    UniformLoadScale,
    ZonalLoadScale,
    monte_carlo_ensemble,
)
from repro.scenarios.runner import StudyConfig, _WorkerState
from repro.service import StudyExecutor


@pytest.fixture
def fresh_metrics():
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    yield registry
    set_metrics(previous)


def _zero_times(study):
    """Per-record dicts with timing removed (solve_time_s is wall clock,
    the only field the batched path cannot reproduce bit-identically)."""
    out = []
    for r in study.results:
        d = dataclasses.asdict(r)
        d["solve_time_s"] = 0.0
        out.append(d)
    return out


# ----------------------------------------------------------------------
# kernel: solve_one / solve_many / ptdf
# ----------------------------------------------------------------------


class TestDcKernel:
    def test_solve_dc_same_with_and_without_kernel(self, case30):
        plain = solve_dc(case30)
        keyed = solve_dc(case30, kernel=DcKernel.from_network(case30))
        assert np.array_equal(plain.va_deg, keyed.va_deg)
        assert np.array_equal(plain.p_from_mw, keyed.p_from_mw)
        assert np.array_equal(plain.loading_percent, keyed.loading_percent)
        assert np.array_equal(plain.gen_p_mw, keyed.gen_p_mw)

    @pytest.mark.parametrize("case_name", ["ieee14", "ieee57", "ieee118"])
    def test_solve_many_rows_bit_identical_to_solve_one(self, case_name):
        net = load_case(case_name)
        kernel = DcKernel.from_network(net)
        base = dc_injections(net.compile())
        rng = np.random.default_rng(0)
        stack = base[np.newaxis, :] * rng.uniform(0.7, 1.3, (16, 1))
        batch = kernel.solve_many(stack)
        for i in range(stack.shape[0]):
            one = kernel.solve_one(stack[i])
            assert np.array_equal(batch.theta[i], one.theta)
            assert np.array_equal(batch.p_flow[i], one.p_flow)
            assert np.array_equal(
                batch.loading_percent[i], one.loading_percent
            )

    def test_solve_many_accepts_single_vector(self, case14):
        kernel = DcKernel.from_network(case14)
        p = dc_injections(case14.compile())
        batch = kernel.solve_many(p)
        assert batch.n_scenarios == 1
        assert np.array_equal(batch.p_flow[0], kernel.solve_one(p).p_flow)

    def test_ptdf_matches_compute_ptdf(self, case30):
        arr = case30.compile()
        kernel = DcKernel(arr)
        assert np.array_equal(compute_ptdf(arr), kernel.ptdf())
        # compute_ptdf with a kernel reuses its (cached) matrix.
        assert compute_ptdf(arr, kernel=kernel) is kernel.ptdf()

    def test_ptdf_row_matches_full_matrix(self, case57):
        arr = case57.compile()
        full = DcKernel(arr).ptdf()
        single = DcKernel(arr)  # fresh kernel: row solve, no dense matrix
        for row in (0, 7, arr.n_branch - 1):
            assert np.array_equal(single.ptdf_row(row), full[row])
        with pytest.raises(IndexError):
            single.ptdf_row(arr.n_branch)

    def test_compute_factors_with_shared_kernel_identical(self, case30):
        kernel = DcKernel.from_network(case30)
        a = compute_factors(case30)
        b = compute_factors(case30, kernel=kernel)
        assert np.array_equal(a.ptdf, b.ptdf)
        assert np.array_equal(a.lodf, b.lodf)
        assert np.array_equal(a.islanding_outages, b.islanding_outages)

    def test_topology_digest_ignores_loads(self, case14):
        before = topology_digest(case14.compile())
        scaled = Scenario("s", (UniformLoadScale(1.2),)).realize(case14)
        assert topology_digest(scaled.compile()) == before
        outaged = Scenario("o", (BranchOutage(3),)).realize(case14)
        assert topology_digest(outaged.compile()) != before

    def test_batch_accounting(self, case14):
        kernel = DcKernel.from_network(case14)
        p = dc_injections(case14.compile())
        kernel.solve_one(p)
        assert (kernel.n_batch_solves, kernel.n_batch_rows) == (0, 0)
        kernel.solve_many(np.tile(p, (5, 1)))
        assert (kernel.n_batch_solves, kernel.n_batch_rows) == (1, 5)


# ----------------------------------------------------------------------
# injection vectors: vectorized replay == realize + compile
# ----------------------------------------------------------------------


class TestInjectionVector:
    @pytest.mark.parametrize(
        "perts",
        [
            (UniformLoadScale(1.17),),
            (PerBusLoadScale(((2, 1.4), (4, 0.6))),),
            (GaussianLoadNoise(sigma=0.08, seed=42),),
            (ZonalLoadScale((1.2, 0.9, 1.05)),),
            (RenewableInjection(bus=5, p_mw=40.0),),
            # Order matters: the renewable appends a load row *before*
            # the noise draw, so the noise must see one extra row.
            (RenewableInjection(bus=3, p_mw=25.0), GaussianLoadNoise(0.05, 7)),
            (GaussianLoadNoise(0.05, 7), RenewableInjection(bus=3, p_mw=25.0)),
            (UniformLoadScale(0.93), ZonalLoadScale((1.1, 1.0))),
        ],
    )
    def test_bit_identical_to_realized_network(self, case14, perts):
        scn = Scenario("s", perts)
        assert scn.injection_only
        direct = scn.injection_vector(case14)
        realized = dc_injections(scn.realize(case14).compile())
        assert np.array_equal(direct, realized)

    def test_topology_changers_not_injection_only(self):
        assert not Scenario("s", (BranchOutage(0),)).injection_only
        assert not Scenario("s", (GeneratorOutage(0),)).injection_only
        assert not Scenario(
            "s", (UniformLoadScale(1.1), BranchOutage(0))
        ).injection_only
        assert Scenario("base").injection_only

    def test_validation_errors_match_realize(self, case14):
        for perts in [
            (UniformLoadScale(-0.5),),
            (PerBusLoadScale(((99, 1.1),)),),
            (GaussianLoadNoise(sigma=-1.0, seed=0),),
            (RenewableInjection(bus=2, p_mw=-5.0),),
        ]:
            scn = Scenario("bad", perts)
            with pytest.raises(Exception) as via_realize:
                scn.realize(case14)
            with pytest.raises(Exception) as via_vector:
                scn.injection_vector(case14)
            assert str(via_vector.value) == str(via_realize.value)


# ----------------------------------------------------------------------
# the dc study kind, batched == scalar
# ----------------------------------------------------------------------


class TestDcStudy:
    def test_dc_listed_everywhere(self):
        assert "dc" in ANALYSES

    def test_nlu_maps_dc_but_not_dcopf(self):
        from repro.llm.nlu import classify

        p = classify("run a dc monte carlo study on ieee14")
        assert p.entities["study_analysis"] == "dc"
        p = classify("run a dcopf monte carlo study on ieee14")
        assert p.entities["study_analysis"] == "dcopf"

    @pytest.mark.parametrize("chunk_size", [1, 3, 8])
    def test_batched_equals_scalar_across_chunk_sizes(self, case14, chunk_size):
        scns = monte_carlo_ensemble(n=8, sigma=0.06, seed=21)
        batched = BatchStudyRunner(
            analysis="dc", chunk_size=chunk_size
        ).run(case14, scns)
        scalar = BatchStudyRunner(
            analysis="dc", chunk_size=chunk_size, batch_kernels=False
        ).run(case14, scns)
        assert _zero_times(batched) == _zero_times(scalar)
        assert batched.aggregate().to_dict() == scalar.aggregate().to_dict()

    def test_mixed_chunk_preserves_order_and_values(self, case14):
        """Injection-only and outage scenarios interleaved in one chunk."""
        scns = [
            Scenario("a", (UniformLoadScale(1.1),)),
            Scenario("b", (BranchOutage(2),)),
            Scenario("c", (GaussianLoadNoise(0.05, 3),)),
            Scenario("d", (BranchOutage(5), UniformLoadScale(1.05))),
            Scenario("e", (RenewableInjection(bus=4, p_mw=20.0),)),
        ]
        batched = BatchStudyRunner(analysis="dc", chunk_size=5).run(case14, scns)
        scalar = BatchStudyRunner(
            analysis="dc", chunk_size=5, batch_kernels=False
        ).run(case14, scns)
        assert [r.name for r in batched.results] == list("abcde")
        assert _zero_times(batched) == _zero_times(scalar)

    def test_error_scenarios_get_scalar_identical_records(self, case14):
        scns = [
            Scenario("ok", (UniformLoadScale(1.05),)),
            Scenario("bad", (UniformLoadScale(-2.0),)),
            Scenario("ok2", (UniformLoadScale(0.95),)),
        ]
        batched = BatchStudyRunner(analysis="dc", chunk_size=3).run(case14, scns)
        scalar = BatchStudyRunner(
            analysis="dc", chunk_size=3, batch_kernels=False
        ).run(case14, scns)
        assert _zero_times(batched) == _zero_times(scalar)
        bad = batched.results[1]
        assert not bad.converged
        assert "load scale factor must be >= 0" in bad.error

    def test_serial_pool_and_executor_identical(self, case14):
        scns = monte_carlo_ensemble(n=8, sigma=0.05, seed=11)
        serial = BatchStudyRunner(analysis="dc", n_jobs=1).run(case14, scns)
        pooled = BatchStudyRunner(analysis="dc", n_jobs=2).run(case14, scns)
        with StudyExecutor(max_workers=2) as executor:
            streamed = BatchStudyRunner(analysis="dc", executor=executor).run(
                case14, scns, keep_results=False
            )
        assert serial.aggregate().to_dict() == pooled.aggregate().to_dict()
        assert serial.aggregate().to_dict() == streamed.aggregate().to_dict()

    def test_dc_study_spec_hash_ignores_batch_toggle(self, case14):
        from repro.service.store import spec_hash

        scns = list(monte_carlo_ensemble(n=2, sigma=0.05, seed=1))
        on = spec_hash(StudyConfig(analysis="dc", batch_kernels=True), scns)
        off = spec_hash(StudyConfig(analysis="dc", batch_kernels=False), scns)
        assert on == off


# ----------------------------------------------------------------------
# batched screening
# ----------------------------------------------------------------------


class TestBatchedScreening:
    def test_screen_dc_many_bit_identical_to_screen_dc(self, case14):
        scns = list(monte_carlo_ensemble(n=6, sigma=0.08, seed=5))
        kernel = DcKernel.from_network(case14)
        factors = compute_factors(case14, kernel=kernel)
        stack = np.vstack([s.injection_vector(case14) for s in scns])
        many = screen_dc_many(kernel, factors, stack)
        assert len(many) == len(scns)
        for scn, est in zip(scns, many):
            solo = screen_dc(scn.realize(case14))
            assert np.array_equal(
                est.est_max_loading_percent, solo.est_max_loading_percent
            )
            assert np.array_equal(est.est_severity, solo.est_severity)
            assert np.array_equal(
                est.est_overload_count, solo.est_overload_count
            )
            assert est.top(5) == solo.top(5)

    def test_screening_study_batched_equals_scalar(self, case14):
        scns = monte_carlo_ensemble(n=4, sigma=0.05, seed=8)
        batched = BatchStudyRunner(
            analysis="screening", ac_budget=4, chunk_size=4
        ).run(case14, scns)
        scalar = BatchStudyRunner(
            analysis="screening", ac_budget=4, chunk_size=4,
            batch_kernels=False,
        ).run(case14, scns)
        assert _zero_times(batched) == _zero_times(scalar)


# ----------------------------------------------------------------------
# worker-state caches and counters
# ----------------------------------------------------------------------


class TestWorkerState:
    def test_kernel_cache_hit_for_injection_only_ensemble(self, case14):
        state = _WorkerState(case14, StudyConfig(analysis="dc"))
        for scn in monte_carlo_ensemble(n=4, sigma=0.05, seed=2):
            state.run_scenario(scn)
        assert len(state.dc_kernels) == 1

    def test_factors_cache_capped(self, case14):
        state = _WorkerState(case14, StudyConfig(analysis="screening"))
        state.factors.cap = 3
        for bid in range(5):
            net = Scenario("o", (BranchOutage(bid),)).realize(case14)
            state.factors_for(net)
        assert len(state.factors) <= 3

    def test_kernel_cache_capped(self, case14):
        state = _WorkerState(case14, StudyConfig(analysis="dc"))
        state.dc_kernels.cap = 2
        for bid in range(4):
            net = Scenario("o", (BranchOutage(bid),)).realize(case14)
            state.kernel_for(net)
        assert len(state.dc_kernels) <= 2

    def test_dropped_state_freed_without_cycle_collector(self, case14):
        """A worker state (network copy, kernels, factors) is freed as soon
        as it is dropped, not left for the cyclic garbage collector."""
        import gc
        import weakref

        state = _WorkerState(case14, StudyConfig(analysis="screening"))
        state.factors_for(case14)
        ref = weakref.ref(state)
        gc.disable()
        try:
            del state
            assert ref() is None
        finally:
            gc.enable()

    def test_batch_counters_and_scenario_parity(self, case14, fresh_metrics):
        scns = list(monte_carlo_ensemble(n=6, sigma=0.05, seed=4))
        state = _WorkerState(case14, StudyConfig(analysis="dc"))
        results = state.run_chunk(scns)
        assert len(results) == 6
        assert fresh_metrics.counter("gridmind_batch_solves_total").total() == 1.0
        assert fresh_metrics.counter("gridmind_batch_rows_total").total() == 6.0
        # Metric parity: the batch path bills every scenario exactly once.
        assert (
            fresh_metrics.counter("gridmind_scenarios_total").total() == 6.0
        )

    def test_scalar_fallback_emits_no_batch_counters(self, case14, fresh_metrics):
        scns = [Scenario(f"o{b}", (BranchOutage(b),)) for b in range(3)]
        state = _WorkerState(case14, StudyConfig(analysis="dc"))
        state.run_chunk(scns)
        assert fresh_metrics.counter("gridmind_batch_solves_total").total() == 0.0

    def test_batch_kernels_off_forces_scalar(self, case14, fresh_metrics):
        scns = list(monte_carlo_ensemble(n=4, sigma=0.05, seed=4))
        state = _WorkerState(
            case14, StudyConfig(analysis="dc", batch_kernels=False)
        )
        state.run_chunk(scns)
        assert fresh_metrics.counter("gridmind_batch_solves_total").total() == 0.0
        assert fresh_metrics.counter("gridmind_scenarios_total").total() == 4.0


# ----------------------------------------------------------------------
# sensitivity wiring: one row through the shared kernel
# ----------------------------------------------------------------------


class TestFlowSensitivities:
    def test_single_row_matches_full_ptdf(self, case30):
        from repro.opf.sensitivity import flow_sensitivities

        arr = case30.compile()
        full = compute_ptdf(arr)
        for i, bid in enumerate(arr.branch_ids[:3]):
            assert np.array_equal(flow_sensitivities(case30, int(bid)), full[i])

    def test_unknown_branch_rejected(self, case30):
        from repro.opf.sensitivity import flow_sensitivities

        with pytest.raises(KeyError):
            flow_sensitivities(case30, 10_000)
