"""Schedule-perturbation fuzzer and tie-break machinery: clean scenarios
must be record-identical across seeded same-timestamp permutations, the
injected faults must diverge, and the work-stealing audit must certify
replay determinism."""

import pytest

from repro.desim import Engine, Timeout, ambient_tiebreak_seed, tiebreak_scope
from repro.sanitize.fuzz import (
    DEFAULT_SEEDS,
    FuzzOutcome,
    fuzz_findings,
    fuzz_pass,
    fuzz_scenario,
)
from repro.sanitize.scenarios import clean_scenarios, injected_scenarios
from repro.sanitize.steal_audit import StealOrderAuditor, audit_work_stealing

pytestmark = pytest.mark.sanitize


class TestTiebreakScope:
    def test_engine_inherits_ambient_seed(self):
        assert ambient_tiebreak_seed() is None
        with tiebreak_scope(7):
            assert ambient_tiebreak_seed() == 7
            assert Engine()._tiebreak_rng is not None
        assert ambient_tiebreak_seed() is None
        assert Engine()._tiebreak_rng is None

    def test_explicit_seed_beats_ambient(self):
        with tiebreak_scope(7):
            eng = Engine(tiebreak_seed=None)
        # Constructed inside the scope: ambient applies unless overridden
        # with a real seed; None defers to the scope.
        assert eng._tiebreak_rng is not None

    def test_perturbation_preserves_causality(self):
        # Events at *different* times must still run in time order no
        # matter the seed.
        order = []

        def proc(tag, delay):
            yield Timeout(delay)
            order.append(tag)

        with tiebreak_scope(3):
            eng = Engine()
            eng.process(proc("late", 2.0))
            eng.process(proc("early", 1.0))
            eng.run()
        assert order == ["early", "late"]


class TestCleanScenarios:
    def test_default_seed_count_meets_acceptance_bar(self):
        assert len(DEFAULT_SEEDS) >= 5

    @pytest.mark.parametrize(
        "scenario", clean_scenarios(), ids=lambda s: s.name
    )
    def test_record_identical_across_default_seeds(self, scenario):
        outcome = fuzz_scenario(scenario, DEFAULT_SEEDS)
        assert outcome.identical, (
            f"{scenario.name} diverged at seeds {outcome.divergent_seeds}"
        )
        assert outcome.n_seeds == len(DEFAULT_SEEDS)

    def test_fuzz_pass_is_clean_end_to_end(self):
        findings, outcomes = fuzz_pass(seeds=(1, 2))
        assert findings == []
        assert {o.scenario for o in outcomes} == {
            s.name for s in clean_scenarios()
        }


class TestInjectedScenarios:
    @pytest.mark.parametrize(
        "scenario", injected_scenarios(), ids=lambda s: s.name
    )
    def test_injected_fault_diverges(self, scenario):
        outcome = fuzz_scenario(scenario, DEFAULT_SEEDS)
        assert not outcome.identical, (
            f"injected fault {scenario.name} survived every permutation"
        )

    def test_divergence_becomes_error_finding(self):
        outcomes = [
            fuzz_scenario(s, DEFAULT_SEEDS) for s in injected_scenarios()
        ]
        findings = fuzz_findings(outcomes)
        assert len(findings) == len(outcomes)
        for f in findings:
            assert f.rule == "RACE101"
            assert f.severity.value == "error"
            assert f.fixit

    def test_same_seed_same_divergence(self):
        # The fuzzer itself is deterministic: one seed always produces
        # the same (possibly wrong) record.
        scenario = injected_scenarios()[0]
        assert scenario.run(11) == scenario.run(11)


class TestFuzzOutcome:
    def test_to_dict_roundtrip_fields(self):
        o = FuzzOutcome("s", 5, (2, 4))
        assert not o.identical
        assert o.to_dict() == {
            "scenario": "s",
            "n_seeds": 5,
            "identical": False,
            "divergent_seeds": [2, 4],
        }


class TestStealAudit:
    def test_replay_is_deterministic_and_error_free(self):
        findings, stats = audit_work_stealing()
        assert stats["replay_identical"]
        assert not [f for f in findings if f.severity.value == "error"]
        assert stats["n_decisions"] > 0

    def test_arbitrated_ties_counted(self):
        auditor = StealOrderAuditor()
        auditor.on_pop(1.0, 0, 10)
        auditor.on_steal(1.0, 1, 0, 11)  # two workers, same time
        auditor.on_pop(2.0, 2, 12)  # lone decision: not a tie
        assert auditor.arbitrated_ties() == 1

    def test_ties_surface_as_info_not_error(self):
        findings, stats = audit_work_stealing()
        if stats["n_arbitrated_ties"]:
            infos = [f for f in findings if f.rule == "RACE103"]
            assert infos and infos[0].severity.value == "info"
