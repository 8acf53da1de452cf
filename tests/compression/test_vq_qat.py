"""Tests for the vector quantizer and quantization-aware fine-tuning."""

import numpy as np
import pytest

from repro.compression.quantization_aware import quantization_aware_finetune
from repro.compression.vq import DEFAULT_VQ_SPECS, VectorQuantizer
from repro.gaussians.metrics import psnr
from repro.gaussians.rasterizer import TileRasterizer
from tests.conftest import make_camera, make_model


def small_quantizer():
    """Codebook sizes shrunk so training on a small model is meaningful."""
    from repro.compression.codebook import CodebookSpec

    specs = (
        CodebookSpec(name="scale", num_entries=32, vector_dim=3),
        CodebookSpec(name="rotation", num_entries=32, vector_dim=4),
        CodebookSpec(name="dc", num_entries=32, vector_dim=3),
        CodebookSpec(name="sh", num_entries=16, vector_dim=45),
    )
    return VectorQuantizer(specs=specs, kmeans_iterations=6)


def test_default_specs_match_paper():
    by_name = {spec.name: spec for spec in DEFAULT_VQ_SPECS}
    assert by_name["scale"].num_entries == 4096
    assert by_name["rotation"].num_entries == 4096
    assert by_name["dc"].num_entries == 4096
    assert by_name["sh"].num_entries == 512
    assert by_name["sh"].vector_dim == 45


def test_encode_requires_fit(small_model):
    quantizer = VectorQuantizer()
    with pytest.raises(RuntimeError):
        quantizer.encode(small_model)


def test_fit_encode_decode_preserves_first_half(small_model):
    quantizer = small_quantizer().fit(small_model)
    roundtrip = quantizer.roundtrip(small_model)
    np.testing.assert_array_equal(roundtrip.positions, small_model.positions)
    assert len(roundtrip) == len(small_model)
    assert np.all(roundtrip.scales > 0)


@pytest.mark.parametrize("num_gaussians", [20, 200])
def test_fit_encode_hands_off_what_encode_finds(num_gaussians):
    # 20 Gaussians: every codebook has more entries than vectors.
    model = make_model(num_gaussians, seed=num_gaussians)
    quantizer = small_quantizer()
    quantized = quantizer.fit_encode(model)
    encoded = quantizer.encode(model)
    for name, book in quantizer.codebooks.items():
        if book.spec.num_entries < num_gaussians:
            assert quantized.indices[name].tobytes() == encoded.indices[name].tobytes()
    assert quantized.opacities.tobytes() == encoded.opacities.tobytes()
    handed_off = quantizer.decode(quantized, model)
    searched = quantizer.roundtrip(model)
    for name in ("positions", "scales", "rotations", "opacities", "sh_dc", "sh_rest"):
        assert getattr(handed_off, name).tobytes() == getattr(searched, name).tobytes()


def test_streaming_renderer_decodes_the_fit_encoding(small_model, monkeypatch):
    from repro.compression.codebook import Codebook
    from repro.core.config import StreamingConfig
    from repro.core.pipeline import StreamingRenderer

    searches = []
    monkeypatch.setattr(
        Codebook, "encode", lambda self, vectors: searches.append(len(vectors))
    )
    renderer = StreamingRenderer(small_model, StreamingConfig(voxel_size=1.0))
    assert searches == []
    monkeypatch.undo()
    expected = renderer.quantizer.roundtrip(small_model)
    for name in ("positions", "scales", "rotations", "opacities", "sh_dc", "sh_rest"):
        assert (
            getattr(renderer.render_model, name).tobytes()
            == getattr(expected, name).tobytes()
        )


def test_quantized_subset(small_model):
    quantizer = small_quantizer().fit(small_model)
    quantized = quantizer.encode(small_model)
    subset = quantized.subset(np.array([0, 5, 9]))
    assert subset.num_gaussians == 3
    assert len(subset.opacities) == 3


def test_decode_size_mismatch(small_model, tiny_model):
    quantizer = small_quantizer().fit(small_model)
    quantized = quantizer.encode(small_model)
    with pytest.raises(ValueError):
        quantizer.decode(quantized, tiny_model)


def test_compressed_bytes_and_reduction():
    quantizer = VectorQuantizer()
    compressed = quantizer.compressed_bytes_per_gaussian()
    raw = quantizer.raw_bytes_per_gaussian()
    assert raw == 220.0
    assert compressed < raw
    reduction = quantizer.traffic_reduction()
    # The paper reports 92.3 % traffic reduction for the second half.
    assert 0.85 < reduction < 0.99


def test_codebook_storage_fits_on_chip_budget():
    quantizer = VectorQuantizer()
    # The paper's codebook buffer is 250 KB.
    assert quantizer.codebook_storage_bytes() <= 250 * 1024


def test_quantization_keeps_render_quality(small_model):
    camera = make_camera(width=48, height=48)
    rasterizer = TileRasterizer()
    reference = rasterizer.render(small_model, camera).image
    quantizer = small_quantizer().fit(small_model)
    quantized_image = rasterizer.render(quantizer.roundtrip(small_model), camera).image
    assert psnr(reference, quantized_image) > 20.0


def test_qat_reduces_quantization_error(small_model):
    quantizer = small_quantizer().fit(small_model)
    result = quantization_aware_finetune(small_model, quantizer, iterations=4)
    history = result.quantization_error_history
    assert len(history) == 4
    assert history[-1] <= history[0]


def test_qat_leaves_the_callers_quantizer_alone(small_model):
    quantizer = small_quantizer().fit(small_model)
    before = {name: book.centroids.copy() for name, book in quantizer.codebooks.items()}
    result = quantization_aware_finetune(small_model, quantizer, iterations=2)
    for name, book in quantizer.codebooks.items():
        assert book.centroids.tobytes() == before[name].tobytes()
    assert result.quantizer is not quantizer
    refined = result.quantizer.codebooks
    assert any(
        refined[name].centroids.tobytes() != before[name].tobytes() for name in before
    )


def test_qat_improves_or_preserves_render_quality():
    model = make_model(300, scale=0.12, seed=13)
    camera = make_camera(width=40, height=40)
    rasterizer = TileRasterizer()
    ground_truth = rasterizer.render(model, camera).image
    quantizer = small_quantizer().fit(model)
    result = quantization_aware_finetune(
        model,
        quantizer,
        iterations=4,
        camera=camera,
        ground_truth=ground_truth,
        rasterizer=rasterizer,
    )
    assert np.isfinite(result.psnr_before)
    assert result.psnr_after >= result.psnr_before - 0.5


def test_qat_validation(small_model):
    quantizer = small_quantizer().fit(small_model)
    with pytest.raises(ValueError):
        quantization_aware_finetune(small_model, quantizer, iterations=0)
    with pytest.raises(RuntimeError):
        quantization_aware_finetune(small_model, VectorQuantizer(), iterations=1)
