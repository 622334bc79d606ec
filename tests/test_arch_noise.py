"""Exactness of the batched noise draws against numpy's own seeding.

:func:`repro.arch.noise.pcg64_states` reimplements numpy's
``SeedSequence([seed, run_index])`` -> ``PCG64`` seeding, and
:func:`repro.arch.noise.first_standard_normals` PCG64's first output and
the ziggurat's one-word step; these tests pin both to numpy, pin every
batched observation bit-for-bit to the scalar per-draw expression the
simulator's stream contract was defined by, and pin that concurrent
calls share no generator.
"""

import importlib.util
import random
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.arch.machines import ALL_MACHINES, get_machine
from repro.arch.noise import (
    NoiseModel,
    encode_parts,
    first_standard_normals,
    pcg64_states,
    sample_seed,
    sample_seeds_encoded,
)
from repro.arch.ziggurat import KI, WI
from repro.core.envspace import EnvSpace
from repro.errors import ReproError
from repro.runtime.executor import apply_measurement_noise, measurement_noise
from repro.workloads.base import get_workload

EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)
#: Indices past 2**32 take two entropy words; seeds past 2**64 push the
#: entropy beyond SeedSequence's four-word pool.
WIDE_RUN_INDICES = (2**32, 2**40 + 3)
WIDE_SEEDS = (2**64, 2**96 + 5)


#: PCG64's 128-bit LCG multiplier.
PCG_MULT = (2549297995355413924 << 64) | 4865540595714422341
MASK64 = (1 << 64) - 1


def numpy_state(seed, run_index):
    state = np.random.PCG64(np.random.SeedSequence([seed, run_index])).state
    return state["state"]["state"], state["state"]["inc"]


def pcg64_at(state, inc):
    bit_generator = np.random.PCG64(0)
    bit_generator.state = {"bit_generator": "PCG64",
                           "state": {"state": state, "inc": inc},
                           "has_uint32": 0, "uinteger": 0}
    return bit_generator


def numpy_first_draw(state, inc):
    """numpy's first ``standard_normal()`` at ``(state, inc)``, and
    whether it took one raw output (the one-word fast path)."""
    bit_generator = pcg64_at(state, inc)
    z = np.random.Generator(bit_generator).standard_normal()
    one_step = pcg64_at(state, inc).advance(1)
    return z, bit_generator.state == one_step.state


def limbs(pairs):
    """``(state, inc)`` ints as the four uint64 limb arrays."""
    def column(values, shift):
        return np.array([(v >> shift) & MASK64 for v in values],
                        dtype=np.uint64)

    states, incs = [s for s, _ in pairs], [i for _, i in pairs]
    return (column(states, 0), column(states, 64),
            column(incs, 0), column(incs, 64))


def state_with_first_output(r):
    """A ``(state, inc)`` whose first raw output is ``r``: with
    ``inc = 1`` it steps to state ``r``, whose XSL-RR output is ``r``."""
    return ((r - 1) * pow(PCG_MULT, -1, 1 << 128)) % (1 << 128), 1


def raw_output(idx, rabs, negative=False):
    return idx | (int(negative) << 8) | (rabs << 9)


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


#: The study machines' calibrated models, plus a one-entry drift tuple
#: under a name no machine has.
NOISE_BY_NAME = {name: ALL_MACHINES[name].noise
                 for name in ("a64fx", "milan", "skylake")}
NOISE_BY_NAME["riscv"] = NoiseModel(sigma=0.01, drift=(1.0,))


class TestApplyMany:
    MODELS = sorted(NOISE_BY_NAME)

    @pytest.mark.parametrize("arch", MODELS)
    def test_bit_identical_to_scalar_draws(self, arch):
        model = NOISE_BY_NAME[arch]
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
        model = NOISE_BY_NAME[arch]
        for seed in EDGE_SEEDS:
            for run_index in (0, 3, 2**32):
                assert model.apply(0.25, run_index, seed) == (
                    scalar_observation(model, 0.25, run_index, seed)
                )

    def test_each_call_owns_its_generator(self, monkeypatch):
        # A generator shared across calls would be shared across the
        # daemon's sweep threads.  Only draws off the one-word fast path
        # load a generator, so these seeds are picked to need one.
        fallback = [s for s in range(2000)
                    if not numpy_first_draw(*numpy_state(s, 0))[1]][:2]
        assert len(fallback) == 2
        made = []
        pcg64 = np.random.PCG64

        def spy(seed):
            made.append(pcg64(seed))
            return made[-1]

        monkeypatch.setattr(np.random, "PCG64", spy)
        model = NOISE_BY_NAME["milan"]
        model.apply_many([1.0, 1.0], [0, 0], fallback)
        model.apply(1.0, 0, fallback[0])
        assert len(made) == 2 and made[0] is not made[1]

    def test_an_all_fast_call_builds_no_generator(self, monkeypatch):
        fast = [s for s in range(50)
                if numpy_first_draw(*numpy_state(s, 0))[1]]
        assert len(fast) > 40
        made = []
        monkeypatch.setattr(np.random, "PCG64",
                            lambda seed: made.append(seed))
        model = NOISE_BY_NAME["milan"]
        assert model.apply_many([1.0] * len(fast), [0] * len(fast), fast) \
            == [scalar_observation(model, 1.0, 0, s) for s in fast]
        assert made == []

    def test_inputs_validated(self):
        model = NOISE_BY_NAME["milan"]
        with pytest.raises(ReproError):
            model.apply_many([1.0, 0.0], [0, 0], [1, 1])
        with pytest.raises(ReproError):
            model.apply_many([1.0], [-1], [1])
        with pytest.raises(ReproError):
            model.apply_many([1.0], [0], [-1])

    def test_nan_runtime_rejected(self):
        # nan <= 0 is False, so a per-element "<= 0" check let it through.
        model = NOISE_BY_NAME["milan"]
        with pytest.raises(ReproError, match="nan"):
            model.apply_many([float("nan")], [0], [1])
        with pytest.raises(ReproError, match="nan"):
            model.apply_many(np.array([0.5, np.nan]), [0, 1], [1, 1])


class TestFirstStandardNormals:
    """The numpy first draw against numpy's own ``standard_normal()``."""

    def test_a_million_draws_equal_the_scalar_contract(self):
        models = TestApplyMany.MODELS
        per_model = 10**6 // len(models) + 1
        run_indices = tuple(range(5)) + WIDE_RUN_INDICES
        for arch in models:
            model = NOISE_BY_NAME[arch]
            seeds, runs = grid_pairs(
                random_seeds(per_model // len(run_indices), 64, arch)
                + list(EDGE_SEEDS + WIDE_SEEDS),
                run_indices,
            )
            got = model.apply_many([1.0] * len(seeds), runs, seeds)
            assert got == [scalar_observation(model, 1.0, r, s)
                           for r, s in zip(runs, seeds)], arch

    def test_random_states_match_numpy(self):
        rnd = random.Random(11)
        pairs = [(rnd.getrandbits(128), rnd.getrandbits(128) | 1)
                 for _ in range(20_000)]
        expected = [numpy_first_draw(s, i)[0] for s, i in pairs]
        assert first_standard_normals(*limbs(pairs)).tolist() == expected

    @pytest.mark.parametrize("idx, rabs, negative", [
        (1, 1, False),              # strip 1: ki[1] == 0 rejects all
        (1, 2**52 - 1, True),
        (0, 2**52 - 1, False),      # strip 0's tail
        (0, KI[0], True),
        (2, 2**52 - 1, False),      # wedge rejections
        (128, KI[128], True),
        (255, 2**52 - 1, True),
    ])
    def test_rejected_first_outputs_match_numpy(self, idx, rabs, negative):
        pair = state_with_first_output(raw_output(idx, rabs, negative))
        z, fast = numpy_first_draw(*pair)
        assert not fast
        assert first_standard_normals(*limbs([pair])).tolist() == [z]

    @pytest.mark.parametrize("idx", [0, 2, 77, 255])
    def test_accepted_first_outputs_match_numpy(self, idx):
        pairs = [state_with_first_output(raw_output(idx, rabs, negative))
                 for rabs in (0, 1, KI[idx] - 1)
                 for negative in (False, True)]
        drawn = [numpy_first_draw(*pair) for pair in pairs]
        assert all(fast for _, fast in drawn)
        got = first_standard_normals(*limbs(pairs)).tolist()
        assert [np.float64(z).tobytes() for z in got] == \
            [np.float64(z).tobytes() for z, _ in drawn]   # -0.0 too

    def test_committed_tables_equal_numpys(self):
        path = Path(__file__).resolve().parents[1] / "tools" / \
            "ziggurat_tables.py"
        spec = importlib.util.spec_from_file_location("ziggurat_tables",
                                                      path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        ki, wi = tool.probe_tables()
        assert ki == list(KI)
        assert [w.hex() for w in wi] == [w.hex() for w in WI]


class TestBatchedJitter:
    """``apply_many`` takes one ``np.exp`` over the batch's scaled
    deviates; the contract is the per-draw ``float(np.exp(...))``."""

    @pytest.mark.parametrize("arch", TestApplyMany.MODELS)
    def test_batch_exp_equals_per_element_exp(self, arch):
        sigma = NOISE_BY_NAME[arch].sigma
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
        model = machine.noise
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

    def test_one_true_runtime_per_config(self, milan_small):
        machine, program, configs = milan_small
        with pytest.raises(ValueError, match="3 configs but 1 true"):
            measurement_noise(machine, program, configs[:3], [1.0], [0])

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
