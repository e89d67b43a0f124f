"""The benchmark's span hooks (perfbench/spans.py) still find what they wrap.

spans.Tracer replaces functions at the module attribute their callers look
up. If a rename or an import change moves a call off that attribute, the
per-layer breakdown silently reads 0; these tests catch that early.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from audiomlp.cli import main
from audiomlp.encoder import EncoderConfig, init_weights
from audiomlp.formats import save_weights
from conftest import make_wav, noise_clip, sine_clip

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(spans):
    for module_name, attr, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (
            f"{module_name}.{attr}"
        )


def test_train_and_embed_record_spans(spans, tmp_path, capsys):
    rng = np.random.default_rng(0)
    (tmp_path / "tone.wav").write_bytes(make_wav(sine_clip(440.0)))
    (tmp_path / "hiss.wav").write_bytes(make_wav(noise_clip(rng)))
    manifest = tmp_path / "train.tsv"
    manifest.write_text("tone.wav\t0\nhiss.wav\t1\n")
    weights = tmp_path / "model.kwm1"
    save_weights(weights, init_weights(EncoderConfig(depth=1), seed=0))

    with spans.Tracer() as tracer:
        train_code = main(
            [
                "train", "--manifest", str(manifest), "--output", str(tmp_path / "t.kwm1"),
                "--depth", "1", "--epochs", "1", "--warmup-epochs", "0", "--batch-size", "2",
            ]
        )
        embed_code = main(
            [
                "embed", str(tmp_path / "tone.wav"), "--weights", str(weights),
                "--output", str(tmp_path / "tone.emb1"),
            ]
        )
    assert (train_code, embed_code) == (0, 0)

    names = [span["name"] for span in tracer.spans]
    for expected in ("trainer.forward_batch", "trainer.loss_and_grads", "encoder.extract_timestamps"):
        assert expected in names
    # loss_and_grads must reach forward_batch through the module global
    nested = [
        span for span in tracer.spans
        if span["name"] == "trainer.forward_batch"
        and span["parent"] is not None
        and tracer.spans[span["parent"]]["name"] == "trainer.loss_and_grads"
    ]
    assert nested
    assert not tracer.errors


def test_embed_runs_the_encoder_once_per_micro_batch(spans, tmp_path, capsys):
    wav = tmp_path / "five.wav"
    wav.write_bytes(make_wav(sine_clip(440.0, seconds=5.0)))
    weights = tmp_path / "model.kwm1"
    save_weights(weights, init_weights(EncoderConfig(depth=1), seed=0))
    with spans.Tracer() as tracer:
        code = main(
            ["embed", str(wav), "--weights", str(weights), "--output", str(tmp_path / "five.emb1")]
        )
    assert code == 0
    names = [span["name"] for span in tracer.spans]
    # five segments, in micro-batches of 4 and 1, all through cli's globals
    assert names.count("dsp.mfcc") == 5
    assert names.count("encoder.extract_timestamps") == 2
    assert not tracer.errors
