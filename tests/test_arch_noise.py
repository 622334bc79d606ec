"""Exactness of the batched noise draws against numpy's own seeding.

:func:`repro.arch.noise.pcg64_states` reimplements numpy's
``SeedSequence([seed, run_index])`` -> ``PCG64`` seeding; these tests pin
it state-for-state to numpy, pin every batched observation bit-for-bit
to the scalar per-draw expression the simulator's stream contract was
defined by, and pin that concurrent calls share no generator.
"""

import random
import sys
import threading

import numpy as np
import pytest

from repro.arch.machines import get_machine
from repro.arch.noise import (
    NOISE_MODELS,
    encode_parts,
    get_noise_model,
    pcg64_states,
    sample_seed,
    sample_seeds_encoded,
)
from repro.core.envspace import EnvSpace
from repro.errors import ReproError
from repro.runtime.executor import apply_measurement_noise, measurement_noise
from repro.workloads.base import get_workload

EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)
#: Indices past 2**32 take two entropy words; seeds past 2**64 push the
#: entropy beyond SeedSequence's four-word pool.
WIDE_RUN_INDICES = (2**32, 2**40 + 3)
WIDE_SEEDS = (2**64, 2**96 + 5)


def numpy_state(seed, run_index):
    state = np.random.PCG64(np.random.SeedSequence([seed, run_index])).state
    return state["state"]["state"], state["state"]["inc"]


def scalar_observation(model, true_runtime, run_index, seed):
    """The per-draw expression the noise stream contract was defined by."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, run_index]))
    jitter = float(np.exp(model.sigma * rng.standard_normal()))
    return true_runtime * model.drift_factor(run_index) * jitter


def random_seeds(n, bits, salt):
    rnd = random.Random(salt)
    return [rnd.getrandbits(bits) for _ in range(n)]


def grid_pairs(seeds, run_indices):
    pairs = [(s, r) for s in seeds for r in run_indices]
    return [s for s, _ in pairs], [r for _, r in pairs]


class TestPcg64States:
    @pytest.mark.parametrize("bits", [32, 64])
    def test_random_seeds_match_numpy(self, bits):
        seeds, runs = grid_pairs(random_seeds(5000, bits, bits), range(5))
        expected = [numpy_state(s, r) for s, r in zip(seeds, runs)]
        assert pcg64_states(seeds, runs) == expected

    def test_edge_seeds_and_wide_entropy_match_numpy(self):
        seeds, runs = grid_pairs(
            EDGE_SEEDS + WIDE_SEEDS, tuple(range(5)) + WIDE_RUN_INDICES
        )
        expected = [numpy_state(s, r) for s, r in zip(seeds, runs)]
        assert pcg64_states(seeds, runs) == expected

    def test_mixed_entropy_widths_in_one_batch(self):
        # Rows of different word counts share one vectorized pass.
        seeds = [0, 2**64 - 1, 2**96 + 5, 7, 2**32]
        runs = [2**40 + 3, 0, 1, 2**32, 4]
        expected = [numpy_state(s, r) for s, r in zip(seeds, runs)]
        assert pcg64_states(seeds, runs) == expected

    def test_repeated_seeds_across_entropy_widths(self):
        # Each distinct seed and run index is split into words once and
        # gathered back per pair: a seed repeating at non-adjacent
        # positions, next to sub-2**32 and wide seeds and run indices,
        # must still seed its own pair.
        seeds = [5, 2**64, 2**96 + 5, 5, 7, 2**64, 0, 5, 2**32 - 1, 7]
        runs = [0, 2**32, 1, 2**40 + 3, 0, 3, 2**32, 1, 0, 2**40 + 3]
        expected = [numpy_state(s, r) for s, r in zip(seeds, runs)]
        assert pcg64_states(seeds, runs) == expected
        assert pcg64_states(seeds[::-1], runs[::-1]) == expected[::-1]

    def test_empty_batch(self):
        assert pcg64_states([], []) == []

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pcg64_states([1, 2], [0])

    @pytest.mark.parametrize("seeds, runs, bad", [
        ([-1], [0], -1),
        ([3, 2**96 + 5], [0, -(2**70)], -(2**70)),
    ])
    def test_negative_input_names_the_value(self, seeds, runs, bad):
        # SeedSequence's own error, not int.to_bytes' OverflowError.
        with pytest.raises(ValueError, match=f"must be >= 0, got {bad}$"):
            pcg64_states(seeds, runs)


class TestApplyMany:
    MODELS = sorted(NOISE_MODELS) + ["riscv"]

    @pytest.mark.parametrize("arch", MODELS)
    def test_bit_identical_to_scalar_draws(self, arch):
        model = get_noise_model(arch)
        seeds, runs = grid_pairs(
            random_seeds(300, 64, arch) + list(EDGE_SEEDS),
            tuple(range(5)) + WIDE_RUN_INDICES,
        )
        trues = [0.01 + 1e-4 * i for i in range(len(seeds))]
        expected = [scalar_observation(model, t, r, s)
                    for t, r, s in zip(trues, runs, seeds)]
        assert model.apply_many(trues, runs, seeds) == expected

    @pytest.mark.parametrize("arch", MODELS)
    def test_apply_is_a_single_draw(self, arch):
        model = get_noise_model(arch)
        for seed in EDGE_SEEDS:
            for run_index in (0, 3, 2**32):
                assert model.apply(0.25, run_index, seed) == (
                    scalar_observation(model, 0.25, run_index, seed)
                )

    def test_each_call_owns_its_generator(self, monkeypatch):
        # A generator shared across calls would be shared across the
        # daemon's sweep threads.
        made = []
        pcg64 = np.random.PCG64

        def spy(seed):
            made.append(pcg64(seed))
            return made[-1]

        monkeypatch.setattr(np.random, "PCG64", spy)
        model = get_noise_model("milan")
        model.apply_many([1.0, 1.0], [0, 1], [5, 5])
        model.apply(1.0, 0, 5)
        assert len(made) == 2 and made[0] is not made[1]

    def test_inputs_validated(self):
        model = get_noise_model("milan")
        with pytest.raises(ReproError):
            model.apply_many([1.0, 0.0], [0, 0], [1, 1])
        with pytest.raises(ReproError):
            model.apply_many([1.0], [-1], [1])
        with pytest.raises(ReproError):
            model.apply_many([1.0], [0], [-1])

    def test_nan_runtime_rejected(self):
        # nan <= 0 is False, so a per-element "<= 0" check let it through.
        model = get_noise_model("milan")
        with pytest.raises(ReproError, match="nan"):
            model.apply_many([float("nan")], [0], [1])
        with pytest.raises(ReproError, match="nan"):
            model.apply_many(np.array([0.5, np.nan]), [0, 1], [1, 1])


class TestBatchedJitter:
    """``apply_many`` takes one ``np.exp`` over the batch's scaled
    deviates; the contract is the per-draw ``float(np.exp(...))``."""

    @pytest.mark.parametrize("arch", TestApplyMany.MODELS)
    def test_batch_exp_equals_per_element_exp(self, arch):
        sigma = get_noise_model(arch).sigma
        rng = np.random.default_rng(TestApplyMany.MODELS.index(arch))
        scaled = sigma * rng.standard_normal(100_000)
        per_element = [float(np.exp(x)) for x in scaled.tolist()]
        assert np.exp(scaled).tolist() == per_element
        # Short batches end in partial vector lanes.
        for k in range(1, 33):
            assert np.exp(scaled[:k]).tolist() == per_element[:k]


@pytest.fixture(scope="module")
def milan_small():
    machine = get_machine("milan")
    configs = EnvSpace().grid(machine, "small", seed=0)
    return machine, get_workload("cg").program("A"), configs


class TestMeasurementNoise:
    def test_prefix_copied_seeds_equal_sample_seed(self, milan_small):
        machine, program, configs = milan_small
        for seed in (0, 7):
            expected = [
                sample_seed(machine.name, program.name, c.key(), seed)
                for c in configs
            ]
            assert sample_seeds_encoded(
                (machine.name, program.name),
                [encode_parts((c.key(), seed)) for c in configs],
            ) == expected

    def test_equals_scalar_contract(self, milan_small):
        machine, program, configs = milan_small
        model = get_noise_model(machine.name)
        trues = [0.5 + 1e-3 * i for i in range(len(configs))]
        got = measurement_noise(
            machine, program, configs, trues, range(3), seed=7
        )
        for config, true, observed in zip(configs, trues, got):
            obs_seed = sample_seed(
                machine.name, program.name, config.key(), 7
            )
            assert observed == tuple(
                scalar_observation(model, true, r, obs_seed) for r in range(3)
            )
            assert observed[1] == apply_measurement_noise(
                machine, program, config, true, run_index=1, seed=7
            )

    def test_zero_repetitions(self, milan_small):
        machine, program, configs = milan_small
        assert measurement_noise(
            machine, program, configs[:3], [1.0] * 3, range(0)
        ) == [(), (), ()]

    def test_concurrent_calls_share_no_generator(self, milan_small):
        machine, program, configs = milan_small
        trues = [0.5 + 1e-3 * i for i in range(len(configs))]
        # Overlapping slices: every thread draws some streams another
        # thread draws too, all at once.
        slices = [slice(i * 10, i * 10 + len(configs) // 2) for i in range(4)]
        serial = [
            measurement_noise(machine, program, configs[s], trues[s], range(3))
            for s in slices
        ]
        barrier = threading.Barrier(len(slices), timeout=30)
        results = [None] * len(slices)

        def work(k):
            barrier.wait()
            s = slices[k]
            results[k] = [
                measurement_noise(
                    machine, program, configs[s], trues[s], range(3)
                )
                for _ in range(5)
            ]

        threads = [threading.Thread(target=work, args=(k,))
                   for k in range(len(slices))]
        # Switch threads often so interleaved draws would show.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for k, runs in enumerate(results):
            assert runs == [serial[k]] * 5
