"""Table-driven CAM read-out and digitise: bit-identity and call contracts.

The noise-free sense-amp read-out and the cosine digitise are evaluated
once on the ``k + 1`` possible Hamming counts and gathered.  These tests
pin every consumer against the elementwise formulas they replace:

* read-out: ``ClockedSelfReferencedSenseAmp.read_many``, one reading per
  count;
* digitise: ``cosine_unit(pi * counts / k)`` on the whole count matrix;
* logits: ``||q|| * ||p|| * cos``, in that multiplication order.

The contract tests count calls, so a refactor cannot move digitise or the
CAM search out of reach of a wrapper on ``cosine_unit`` / ``cam``.
"""

import numpy as np
import pytest

from repro.bitops import pack_bits, packed_hamming_matrix
from repro.cam.array import CamArray
from repro.cam.sense_amplifier import ClockedSelfReferencedSenseAmp
from repro.core import accelerator
from repro.core.accelerator import DeepCAMSimulator
from repro.core.config import DeepCAMConfig
from repro.core.context import ContextGenerator
from repro.core.geometric import ApproximateDotProduct
from repro.core.minifloat import MINIFLOAT8
from repro.core.postprocess import PostProcessor
from repro.hw.cosine_unit import CosineUnit, digitise
from repro.nn.models.lenet import build_lenet5
from repro.serve.engine import CamPipelineEngine
from repro.shard.engine import ShardedEngine

HASH_LENGTHS = (1, 63, 64, 65, 256, 768, 1024)


def elementwise_cosines(cosine_unit, counts, k):
    thetas = np.pi * counts / k
    return np.asarray(cosine_unit(thetas.ravel())).reshape(thetas.shape)


def elementwise_readout(amp, counts):
    flat = np.asarray(counts).ravel()
    return np.array([reading.hamming_distance for reading in amp.read_many(flat)],
                    dtype=np.int64).reshape(np.shape(counts))


def same_bytes(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    return (actual.dtype == expected.dtype and actual.shape == expected.shape
            and actual.tobytes() == expected.tobytes())


class CountingCosine:
    """A plain callable around a cosine unit, as a timing wrapper would be."""

    def __init__(self, inner):
        self.inner, self.calls = inner, 0

    def __call__(self, thetas):
        self.calls += 1
        return self.inner(thetas)


class CountingCam:
    """Forwards everything to a CAM port, counting batch searches."""

    def __init__(self, inner):
        self.__dict__.update(inner=inner, searches=0)

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def search_batch_packed(self, packed):
        self.searches += 1
        return self.inner.search_batch_packed(packed)


class TestDigitise:
    @pytest.mark.parametrize("k", HASH_LENGTHS)
    @pytest.mark.parametrize("exact", [False, True])
    def test_matches_elementwise(self, rng, k, exact):
        unit = CosineUnit(use_exact=exact)
        counts = rng.integers(0, k + 1, size=(13, 29))
        counts[0, :2] = (0, k)
        assert same_bytes(digitise(unit, counts, k),
                          elementwise_cosines(unit, counts, k))

    @pytest.mark.parametrize("bad", [-1, 257])
    @pytest.mark.parametrize("size", [4, 400])  # direct and table paths
    def test_out_of_range_count_raises(self, bad, size):
        counts = np.full(size, 5)
        counts[size // 2] = bad
        with pytest.raises(ValueError):
            digitise(CosineUnit(), counts, 256)

    def test_fractional_counts_rejected(self):
        with pytest.raises(TypeError):
            digitise(CosineUnit(), np.array([0.5]), 8)

    @pytest.mark.parametrize("size", [3, 300])  # direct and table paths
    def test_callable_sees_one_call(self, size):
        unit = CountingCosine(CosineUnit())
        digitise(unit, np.arange(size) % 65, 64)
        assert unit.calls == 1

    @pytest.mark.parametrize("k", HASH_LENGTHS)
    def test_postprocess_integer_and_float_paths_agree(self, rng, k):
        processor = PostProcessor(k)
        counts = rng.integers(0, k + 1, size=(5, 7))
        s_norms, q_norms = rng.random(5), rng.random(7)
        expected = np.outer(s_norms, q_norms) * elementwise_cosines(
            processor.cosine_unit, counts.astype(np.float64), k)
        assert same_bytes(processor.dot_products(counts, s_norms, q_norms),
                          expected)
        assert same_bytes(processor.dot_products(counts.astype(float),
                                                 s_norms, q_norms), expected)

    @pytest.mark.parametrize("k", HASH_LENGTHS)
    @pytest.mark.parametrize("exact", [False, True])
    def test_geometric_compute_matrix(self, rng, k, exact):
        engine = ApproximateDotProduct(12, k, seed=3, use_exact_cosine=exact,
                                       quantize_norms=MINIFLOAT8)
        stationary, search = rng.normal(size=(6, 12)), rng.normal(size=(9, 12))
        distances = packed_hamming_matrix(
            pack_bits(engine.hasher.hash_batch(stationary)),
            pack_bits(engine.hasher.hash_batch(search)))
        norms_s = MINIFLOAT8.quantize_array(np.linalg.norm(stationary, axis=1))
        norms_q = MINIFLOAT8.quantize_array(np.linalg.norm(search, axis=1))
        expected = np.outer(norms_s, norms_q) * elementwise_cosines(
            engine.cosine_unit, distances, k)
        assert same_bytes(engine.compute_matrix(stationary, search), expected)


class TestSenseAmpReadout:
    @pytest.mark.parametrize("k", HASH_LENGTHS)
    def test_noise_free_matches_per_count_readings(self, rng, k):
        amp = ClockedSelfReferencedSenseAmp(k)
        counts = rng.integers(0, k + 1, size=500)
        counts[:2] = (0, k)
        assert same_bytes(amp.estimate_distances(counts),
                          elementwise_readout(amp, counts))

    @pytest.mark.parametrize("bad", [-1, 65])
    @pytest.mark.parametrize("sigma", [0.0, 2.0])
    @pytest.mark.parametrize("size", [2, 200])  # direct and table paths
    def test_out_of_range_count_raises(self, bad, sigma, size):
        amp = ClockedSelfReferencedSenseAmp(64, timing_noise_sigma_ps=sigma)
        counts = np.full(size, 3)
        counts[-1] = bad
        with pytest.raises(ValueError):
            amp.estimate_distances(counts)

    def test_noisy_amp_consumes_its_noise_per_element(self, rng):
        amp = ClockedSelfReferencedSenseAmp(256, timing_noise_sigma_ps=4.0, seed=9)
        twin = ClockedSelfReferencedSenseAmp(256, timing_noise_sigma_ps=4.0, seed=9)
        counts = rng.integers(0, 257, size=(40, 30))
        assert same_bytes(amp.estimate_distances(counts),
                          elementwise_readout(twin, counts).ravel())
        # Both generators stand at the same point afterwards.
        assert same_bytes(amp.estimate_distances(counts),
                          elementwise_readout(twin, counts).ravel())


def build_engine(k, exact=False, quantize=None, sense_amp=None, classes=23,
                 dim=16, sharded=False):
    prototypes = np.random.default_rng(k).standard_normal((classes, dim))
    kwargs = dict(hash_length=k, seed=k + 1, use_exact_cosine=exact,
                  quantize_norms=quantize, sense_amp=sense_amp)
    if sharded:
        return ShardedEngine(prototypes, num_shards=3, **kwargs), prototypes
    return CamPipelineEngine(prototypes, **kwargs), prototypes


def reference_logits(engine, prototypes, prepared, amp):
    stored = pack_bits(engine.hasher.hash_batch(prototypes))
    sensed = elementwise_readout(amp, packed_hamming_matrix(prepared.packed_words,
                                                            stored))
    norms = np.linalg.norm(prototypes, axis=1)
    if engine.norm_format is not None:
        norms = engine.norm_format.quantize_array(norms)
    return (prepared.norms[:, None] * norms[None, :]
            * elementwise_cosines(engine.cosine_unit, sensed, engine.hash_length))


class TestEngineBitIdentity:
    @pytest.mark.parametrize("k", HASH_LENGTHS)
    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("quantize", [None, MINIFLOAT8])
    def test_execute_matches_elementwise(self, rng, k, exact, quantize):
        engine, prototypes = build_engine(k, exact, quantize)
        prepared = engine.prepare(rng.standard_normal((11, 16)))
        expected = reference_logits(engine, prototypes, prepared,
                                    ClockedSelfReferencedSenseAmp(k))
        assert same_bytes(engine.execute(prepared), expected)

    @pytest.mark.parametrize("k", [64, 256])
    def test_sharded_execute_matches_elementwise(self, rng, k):
        engine, prototypes = build_engine(k, sharded=True)
        prepared = engine.prepare(rng.standard_normal((11, 16)))
        expected = reference_logits(engine, prototypes, prepared,
                                    ClockedSelfReferencedSenseAmp(k))
        assert same_bytes(engine.execute(prepared), expected)

    @pytest.mark.parametrize("k", [65, 256])
    def test_noisy_amp_matches_elementwise(self, rng, k):
        amp = ClockedSelfReferencedSenseAmp(k, timing_noise_sigma_ps=3.0, seed=4)
        twin = ClockedSelfReferencedSenseAmp(k, timing_noise_sigma_ps=3.0, seed=4)
        engine, prototypes = build_engine(k, sense_amp=amp)
        for _ in range(2):  # the second batch reads the advanced noise stream
            prepared = engine.prepare(rng.standard_normal((7, 16)))
            assert same_bytes(engine.execute(prepared),
                              reference_logits(engine, prototypes, prepared, twin))

    @pytest.mark.parametrize("k", HASH_LENGTHS)
    @pytest.mark.parametrize("sigma", [0.0, 3.0])
    def test_topk_packed_matches_sorted_readout(self, rng, k, sigma):
        array = CamArray(rows=40, word_bits=k, sense_amp=ClockedSelfReferencedSenseAmp(
            k, timing_noise_sigma_ps=sigma, seed=2))
        twin = ClockedSelfReferencedSenseAmp(k, timing_noise_sigma_ps=sigma, seed=2)
        array.write_rows(rng.integers(0, 2, size=(33, k), dtype=np.uint8))
        packed = pack_bits(rng.integers(0, 2, size=(9, k), dtype=np.uint8))
        result = array.topk_packed(packed, 5)
        raw = packed_hamming_matrix(packed, array.packed_storage)[:, :33]
        sensed = elementwise_readout(twin, raw)
        order = np.array([np.lexsort((np.arange(33), row))[:5] for row in sensed])
        assert np.array_equal(result.indices, order)
        assert same_bytes(result.distances,
                          np.take_along_axis(sensed, order, axis=1))

    def test_partial_array_keeps_unpopulated_rows_marked(self, rng):
        array = CamArray(rows=10, word_bits=64)
        array.write_rows(rng.integers(0, 2, size=(4, 64), dtype=np.uint8))
        packed = pack_bits(rng.integers(0, 2, size=(3, 64), dtype=np.uint8))
        distances, _energy, _latency = array.search_batch_packed(packed)
        raw = packed_hamming_matrix(packed, array.packed_storage)
        assert np.array_equal(distances[:, :4], raw[:, :4])
        assert np.all(distances[:, 4:] == -1)


def simulator_reference(simulator, weights, activations):
    distances = packed_hamming_matrix(weights.packed_bits, activations.packed_bits)
    return np.outer(weights.norms, activations.norms) * elementwise_cosines(
        simulator.cosine_unit, distances, weights.hash_length)


class TestSimulatorBitIdentity:
    @pytest.mark.parametrize("k", HASH_LENGTHS)
    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("quantize", [False, True])
    def test_approximate_matmul_matches_elementwise(self, rng, k, exact, quantize):
        config = DeepCAMConfig(use_exact_cosine=exact, quantize_norms=quantize)
        simulator = DeepCAMSimulator(config)
        generator = ContextGenerator(input_dim=18, hash_length=k, seed=5,
                                     norm_format=simulator.norm_format)
        weights = generator.activation_contexts_from_patches(rng.normal(size=(7, 18)))
        activations = generator.activation_contexts_from_patches(
            rng.normal(size=(70, 18)))
        products = simulator._approximate_matmul(weights, activations, "layer0")
        assert same_bytes(products,
                          simulator_reference(simulator, weights, activations))


class TestCallContracts:
    @pytest.mark.parametrize("sharded", [False, True])
    def test_execute_calls_cosine_and_search_once_per_batch(self, rng, sharded):
        engine, _ = build_engine(256, sharded=sharded)
        engine.cosine_unit = CountingCosine(engine.cosine_unit)
        engine.cam = CountingCam(engine.cam)
        for batches in (1, 2):
            engine.execute(engine.prepare(rng.standard_normal((9, 16))))
            assert engine.cosine_unit.calls == batches
            assert engine.cam.searches == batches

    def test_each_simulator_layer_digitises_and_searches_once(
            self, rng, monkeypatch):
        model = build_lenet5(width_multiplier=0.5)
        simulator = DeepCAMSimulator(DeepCAMConfig())
        searches = []
        kernel = accelerator.packed_hamming_matrix

        def counting_kernel(a, b):
            searches.append(a.shape)
            return kernel(a, b)

        monkeypatch.setattr(accelerator, "packed_hamming_matrix", counting_kernel)
        simulator.cosine_unit = CountingCosine(simulator.cosine_unit)
        simulator.run(model, rng.standard_normal((2, 1, 32, 32)))
        layers = simulator.stats.dot_product_layers
        assert layers > 0
        assert simulator.cosine_unit.calls == layers
        assert len(searches) == layers
