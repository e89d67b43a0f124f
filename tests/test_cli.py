from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from audiomlp.cli import build_parser, encode_audio, main
from audiomlp.dsp import decode_wav, mfcc, pad_and_segment
from audiomlp.encoder import MAX_DEPTH, EncoderConfig, extract_timestamps, init_weights
from audiomlp.formats import (
    WEIGHTS_MAGIC,
    load_embeddings,
    load_weights,
    save_embeddings,
    save_weights,
    write_tensor_table,
)
from audiomlp.probe import ProbeConfig
from audiomlp.scene import scene_embedding
from audiomlp.trainer import TrainConfig
from conftest import make_wav, noise_clip, sine_clip


@pytest.fixture(scope="module")
def default_weights_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("weights") / "model.kwm1"
    save_weights(path, init_weights(EncoderConfig(), seed=0))
    return path


def last_json(capsys):
    out = capsys.readouterr().out.strip().split("\n")
    return json.loads(out[-1])


class TestEmbed:
    def test_one_second_wav(self, tmp_path, default_weights_file, capsys):
        wav = tmp_path / "a.wav"
        wav.write_bytes(make_wav(sine_clip(440.0)))
        out = tmp_path / "a.emb1"
        code = main(
            ["embed", str(wav), "--weights", str(default_weights_file), "--output", str(out)]
        )
        assert code == 0
        emb = load_embeddings(out)
        assert emb.shape == (1, 1024)
        info = last_json(capsys)
        assert info == {
            "segments": 1,
            "dim": 1024,
            "algorithm": "iterative",
            "depth": 12,
            "output": str(out),
        }

    def test_multi_second_and_resample(self, tmp_path, default_weights_file):
        clip = sine_clip(300.0, rate=22050, seconds=2.4)
        wav = tmp_path / "b.wav"
        wav.write_bytes(make_wav(clip, rate=22050))
        out = tmp_path / "b.emb1"
        assert (
            main(["embed", str(wav), "--weights", str(default_weights_file), "--output", str(out)])
            == 0
        )
        assert load_embeddings(out).shape == (3, 1024)  # 2.4 s pads to 3 s

    def test_csv_format(self, tmp_path, default_weights_file):
        wav = tmp_path / "c.wav"
        wav.write_bytes(make_wav(sine_clip(200.0)))
        out = tmp_path / "c.csv"
        code = main(
            [
                "embed", str(wav), "--weights", str(default_weights_file),
                "--output", str(out), "--format", "csv",
            ]
        )
        assert code == 0
        rows = out.read_text().strip().split("\n")
        assert len(rows) == 1 and len(rows[0].split(",")) == 1024

    def test_algorithm_and_depth_flags(self, tmp_path, default_weights_file, capsys):
        wav = tmp_path / "d.wav"
        wav.write_bytes(make_wav(sine_clip(500.0)))
        out = tmp_path / "d.emb1"
        code = main(
            [
                "embed", str(wav), "--weights", str(default_weights_file),
                "--output", str(out), "--algorithm", "mean", "--depth", "4",
            ]
        )
        assert code == 0
        info = last_json(capsys)
        assert info["algorithm"] == "mean" and info["depth"] == 4

    def test_deterministic_output(self, tmp_path, default_weights_file):
        wav = tmp_path / "e.wav"
        wav.write_bytes(make_wav(noise_clip(np.random.default_rng(0))))
        outs = []
        for name in ("x.emb1", "y.emb1"):
            out = tmp_path / name
            main(["embed", str(wav), "--weights", str(default_weights_file), "--output", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("geometry", [{"n_mfcc": 20}, {"n_frames": 50}])
    def test_weights_of_another_feature_geometry_exit_2(self, tmp_path, capsys, geometry):
        path = tmp_path / "w.kwm1"
        save_weights(path, init_weights(EncoderConfig(depth=1, **geometry), seed=0))
        wav = tmp_path / "a.wav"
        wav.write_bytes(make_wav(sine_clip(440.0)))
        out = tmp_path / "o.emb1"
        assert main(["embed", str(wav), "--weights", str(path), "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "embed computes (40, 98)" in captured.err
        assert not out.exists()
        assert main(["inspect", "--weights", str(path)]) == 0

    def test_missing_audio_exits_3(self, tmp_path, default_weights_file):
        code = main(
            [
                "embed", str(tmp_path / "nope.wav"),
                "--weights", str(default_weights_file),
                "--output", str(tmp_path / "o.emb1"),
            ]
        )
        assert code == 3

    def test_audio_shorter_than_one_output_sample_exits_3(
        self, tmp_path, default_weights_file, capsys
    ):
        blip = tmp_path / "blip.wav"
        blip.write_bytes(make_wav([0.5], rate=44100))  # rounds to 0 samples at 16 kHz
        code = main(
            [
                "embed", str(blip), "--weights", str(default_weights_file),
                "--output", str(tmp_path / "o.emb1"),
            ]
        )
        assert code == 3
        assert "too short" in capsys.readouterr().err

    def test_undecodable_audio_exits_3(self, tmp_path, default_weights_file):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"this is not audio at all, not even close!")
        code = main(
            [
                "embed", str(bad), "--weights", str(default_weights_file),
                "--output", str(tmp_path / "o.emb1"),
            ]
        )
        assert code == 3

    def test_non_finite_audio_exits_3(self, tmp_path, default_weights_file, capsys):
        clip = sine_clip(440.0)
        clip[100] = np.nan
        wav = tmp_path / "nan.wav"
        wav.write_bytes(make_wav(clip, encoding="float32"))
        code = main(
            [
                "embed", str(wav), "--weights", str(default_weights_file),
                "--output", str(tmp_path / "o.emb1"),
            ]
        )
        assert code == 3
        assert "NaN" in capsys.readouterr().err
        assert not (tmp_path / "o.emb1").exists()

    def test_rate_above_the_ceiling_exits_3_and_writes_nothing(
        self, tmp_path, default_weights_file, capsys
    ):
        wav = tmp_path / "fast.wav"
        wav.write_bytes(make_wav(sine_clip(440.0, rate=768_000, seconds=0.1), rate=768_000))
        out = tmp_path / "o.emb1"
        argv = ["embed", str(wav), "--weights", str(default_weights_file), "--output", str(out)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sample rate 768000 Hz is above the 384000 Hz ceiling" in captured.err
        assert not out.exists()

    def test_missing_weights_exits_2(self, tmp_path):
        wav = tmp_path / "a.wav"
        wav.write_bytes(make_wav(sine_clip(440.0)))
        code = main(
            [
                "embed", str(wav), "--weights", str(tmp_path / "no.kwm1"),
                "--output", str(tmp_path / "o.emb1"),
            ]
        )
        assert code == 2

    def test_corrupt_weights_exits_2(self, tmp_path):
        wav = tmp_path / "a.wav"
        wav.write_bytes(make_wav(sine_clip(440.0)))
        junk = tmp_path / "junk.kwm1"
        junk.write_bytes(b"JUNKJUNKJUNKJUNK")
        code = main(
            ["embed", str(wav), "--weights", str(junk), "--output", str(tmp_path / "o.emb1")]
        )
        assert code == 2

    def test_non_finite_weights_exit_2(self, tmp_path, default_weights_file, capsys):
        weights = load_weights(default_weights_file)
        weights.tensors["P0"][3, 5] = np.nan
        bad = tmp_path / "nan.kwm1"
        save_weights(bad, weights)
        wav = tmp_path / "a.wav"
        wav.write_bytes(make_wav(sine_clip(440.0)))
        out = tmp_path / "o.emb1"
        code = main(["embed", str(wav), "--weights", str(bad), "--output", str(out)])
        assert code == 2
        assert "'P0'" in capsys.readouterr().err
        assert not out.exists()
        assert main(["inspect", "--weights", str(bad)]) == 2

    @pytest.mark.parametrize("fmt", ["emb1", "csv"])
    def test_finite_weights_that_overflow_exit_2_and_write_nothing(self, tmp_path, capsys, fmt):
        weights = init_weights(EncoderConfig(depth=2), seed=0)
        weights.tensors["block.0.U"] *= 3e38  # every value is still finite
        huge = tmp_path / "huge.kwm1"
        save_weights(huge, weights)
        wav = tmp_path / "a.wav"
        wav.write_bytes(make_wav(sine_clip(440.0)))
        out = tmp_path / f"o.{fmt}"
        out.write_bytes(b"old contents")
        code = main(
            ["embed", str(wav), "--weights", str(huge), "--output", str(out), "--format", fmt]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "NaN or infinite embeddings" in captured.err
        assert out.read_bytes() == b"old contents"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.wav", "huge.kwm1", f"o.{fmt}"]

    @pytest.mark.parametrize("fmt", ["emb1", "csv"])
    def test_unwritable_output_exits_1(self, tmp_path, default_weights_file, capsys, fmt):
        wav = tmp_path / "a.wav"
        wav.write_bytes(make_wav(sine_clip(440.0)))
        out = tmp_path / "no-such-dir" / f"o.{fmt}"
        code = main(
            [
                "embed", str(wav), "--weights", str(default_weights_file),
                "--output", str(out), "--format", fmt,
            ]
        )
        assert code == 1
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["emb1", "csv"])
    def test_failed_write_keeps_old_output(
        self, tmp_path, default_weights_file, capsys, disk_full, fmt
    ):
        wav = tmp_path / "a.wav"
        wav.write_bytes(make_wav(sine_clip(440.0)))
        out = tmp_path / f"o.{fmt}"
        out.write_bytes(b"old contents")
        code = main(
            [
                "embed", str(wav), "--weights", str(default_weights_file),
                "--output", str(out), "--format", fmt,
            ]
        )
        assert code == 1
        assert f"cannot write {out}" in capsys.readouterr().err
        assert out.read_bytes() == b"old contents"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.wav", f"o.{fmt}"]

    def test_depth_beyond_model_exits_1(self, tmp_path, default_weights_file):
        wav = tmp_path / "a.wav"
        wav.write_bytes(make_wav(sine_clip(440.0)))
        code = main(
            [
                "embed", str(wav), "--weights", str(default_weights_file),
                "--output", str(tmp_path / "o.emb1"), "--depth", "13",
            ]
        )
        assert code == 1

    def test_bad_algorithm_exits_1(self, tmp_path, default_weights_file):
        wav = tmp_path / "a.wav"
        wav.write_bytes(make_wav(sine_clip(440.0)))
        code = main(
            [
                "embed", str(wav), "--weights", str(default_weights_file),
                "--output", str(tmp_path / "o.emb1"), "--algorithm", "fancy",
            ]
        )
        assert code == 1


class TestEncodeAudio:
    @pytest.fixture(scope="class")
    def weights(self):
        return init_weights(EncoderConfig(), seed=1)

    # 1, 4, 5 and 9 segments: one partial micro-batch, one full, one full and
    # one more, two full and one more
    @pytest.mark.parametrize("seconds", [1.0, 4.0, 4.5, 8.2])
    @pytest.mark.parametrize("depth", [0, 5, None])
    def test_rows_equal_one_segment_at_a_time(self, weights, seconds, depth):
        wav = make_wav(noise_clip(np.random.default_rng(3), seconds=seconds))
        segments = pad_and_segment(decode_wav(wav))
        stamps = [extract_timestamps(mfcc(segment), weights, depth) for segment in segments]
        for algorithm in ("mean", "single", "iterative"):
            expected = np.stack([scene_embedding(ts, algorithm) for ts in stamps])
            got = encode_audio(wav, weights, algorithm, depth)
            assert got.shape == (math.ceil(seconds), 1024)
            assert got.tobytes() == expected.tobytes()


def write_tiny_dataset(tmp_path, n_per_class=3):
    rng = np.random.default_rng(7)
    lines = []
    for k in range(n_per_class):
        sine = tmp_path / f"sine{k}.wav"
        sine.write_bytes(make_wav(sine_clip(300.0 + 40.0 * k)))
        lines.append(f"{sine.name}\t0")
        noise = tmp_path / f"noise{k}.wav"
        noise.write_bytes(make_wav(noise_clip(rng)))
        lines.append(f"{noise.name}\t1")
    manifest = tmp_path / "train.tsv"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


TRAIN_FLAGS = [
    "--depth", "1", "--epochs", "4", "--batch-size", "3", "--warmup-epochs", "1",
    "--label-smoothing", "0", "--survival", "1", "--time-masks", "0", "--freq-masks", "0",
]


class TestTrain:
    def test_end_to_end(self, tmp_path, capsys):
        manifest = write_tiny_dataset(tmp_path)
        out = tmp_path / "model.kwm1"
        code = main(["train", "--manifest", str(manifest), "--output", str(out)] + TRAIN_FLAGS)
        assert code == 0
        info = last_json(capsys)
        assert info["examples"] == 6 and info["classes"] == 2
        assert info["steps"] == 8  # 4 epochs x ceil(6/3)
        assert (tmp_path / "model.opt1").exists()
        log = (tmp_path / "model.csv").read_text().strip().split("\n")
        assert log[0] == "step,epoch,lr,loss"
        assert len(log) == 9
        weights = load_weights(out)
        assert weights.config.depth == 1 and weights.config.n_classes == 2

    def test_missing_manifest_exits_4(self, tmp_path):
        code = main(
            ["train", "--manifest", str(tmp_path / "no.tsv"), "--output", str(tmp_path / "m.kwm1")]
        )
        assert code == 4

    def test_malformed_manifest_exits_4(self, tmp_path):
        manifest = tmp_path / "bad.tsv"
        manifest.write_text("missing-label-field\n")
        code = main(
            ["train", "--manifest", str(manifest), "--output", str(tmp_path / "m.kwm1")]
        )
        assert code == 4

    @pytest.mark.parametrize("line", [b"a\0.wav\t1\n", b"\xff.wav\t1\n"])
    def test_undecodable_manifest_exits_4(self, tmp_path, line):
        (tmp_path / "a.wav").write_bytes(make_wav(sine_clip(440.0)))
        manifest = tmp_path / "m.tsv"
        manifest.write_bytes(b"a.wav\t0\n" + line)
        code = main(
            ["train", "--manifest", str(manifest), "--output", str(tmp_path / "m.kwm1")]
        )
        assert code == 4

    def test_single_class_manifest_exits_4(self, tmp_path):
        wav = tmp_path / "a.wav"
        wav.write_bytes(make_wav(sine_clip(440.0)))
        manifest = tmp_path / "one.tsv"
        manifest.write_text(f"{wav.name}\t0\n{wav.name}\t0\n")
        code = main(
            ["train", "--manifest", str(manifest), "--output", str(tmp_path / "m.kwm1")]
        )
        assert code == 4

    def test_label_not_below_entry_count_exits_4_before_decoding(self, tmp_path, capsys):
        manifest = tmp_path / "labels.tsv"
        manifest.write_text("ghost.wav\t0\nother.wav\t1000000000000\n")
        code = main(
            ["train", "--manifest", str(manifest), "--output", str(tmp_path / "m.kwm1")]
        )
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == "" and "largest label 1000000000000" in captured.err
        assert list(tmp_path.glob("m.*")) == []

    @pytest.mark.parametrize("flag, width", [("--time-mask-width", "500"), ("--freq-mask-width", "41")])
    def test_mask_wider_than_the_feature_grid_exits_1_and_writes_nothing(
        self, tmp_path, capsys, flag, width
    ):
        manifest = write_tiny_dataset(tmp_path)
        out = tmp_path / "m.kwm1"
        assert main(["train", "--manifest", str(manifest), "--output", str(out), flag, width]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "mask widths cannot exceed the 40x98 feature grid" in captured.err
        assert list(tmp_path.glob("m.*")) == []

    @pytest.mark.parametrize("flag, count", [("--time-masks", "99"), ("--freq-masks", "41")])
    def test_more_masks_than_the_feature_grid_exits_1_and_writes_nothing(
        self, tmp_path, capsys, flag, count
    ):
        manifest = write_tiny_dataset(tmp_path)
        out = tmp_path / "m.kwm1"
        assert main(["train", "--manifest", str(manifest), "--output", str(out), flag, count]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "takes at most 98 time masks and 40 frequency masks" in captured.err
        assert list(tmp_path.glob("m.*")) == []

    def test_manifest_with_missing_wav_exits_3(self, tmp_path):
        manifest = tmp_path / "m.tsv"
        manifest.write_text("ghost.wav\t0\nother.wav\t1\n")
        code = main(
            ["train", "--manifest", str(manifest), "--output", str(tmp_path / "m.kwm1")]
        )
        assert code == 3

    def test_non_finite_wav_exits_3(self, tmp_path):
        manifest = write_tiny_dataset(tmp_path)
        clip = sine_clip(300.0)
        clip[-1] = np.inf
        (tmp_path / "sine1.wav").write_bytes(make_wav(clip, encoding="float32"))
        out = tmp_path / "m.kwm1"
        code = main(["train", "--manifest", str(manifest), "--output", str(out)] + TRAIN_FLAGS)
        assert code == 3
        assert not out.exists()

    def test_rate_above_the_ceiling_exits_3_and_writes_nothing(self, tmp_path, capsys):
        manifest = write_tiny_dataset(tmp_path)
        clip = sine_clip(300.0, rate=768_000, seconds=0.1)
        (tmp_path / "sine1.wav").write_bytes(make_wav(clip, rate=768_000))
        out = tmp_path / "m.kwm1"
        code = main(["train", "--manifest", str(manifest), "--output", str(out)] + TRAIN_FLAGS)
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sample rate 768000 Hz is above the 384000 Hz ceiling" in captured.err
        assert list(tmp_path.glob("m.*")) == []

    def test_unwritable_output_exits_1_before_training(self, tmp_path, capsys, monkeypatch):
        manifest = write_tiny_dataset(tmp_path)

        def no_training(*args, **kwargs):
            raise AssertionError("train ran although its outputs cannot be written")

        monkeypatch.setattr("audiomlp.cli.train", no_training)
        out = tmp_path / "no-such-dir" / "m.kwm1"
        code = main(["train", "--manifest", str(manifest), "--output", str(out)] + TRAIN_FLAGS)
        assert code == 1
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("suffix", [".opt1", ".csv"])
    def test_output_with_a_sibling_suffix_exits_1(self, tmp_path, capsys, monkeypatch, suffix):
        manifest = write_tiny_dataset(tmp_path)

        def no_training(*args, **kwargs):
            raise AssertionError("train ran although it would overwrite its own output")

        monkeypatch.setattr("audiomlp.cli.train", no_training)
        out = tmp_path / f"m{suffix}"
        code = main(["train", "--manifest", str(manifest), "--output", str(out)] + TRAIN_FLAGS)
        assert code == 1
        assert f"cannot write {out}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "manifest_name, output_name",
        [("data.csv", "data.kwm1"), ("data.opt1", "data.kwm1"), ("data.tsv", "data.tsv")],
    )
    def test_output_path_that_is_the_manifest_exits_1(
        self, tmp_path, capsys, monkeypatch, manifest_name, output_name
    ):
        def no_decoding(*args, **kwargs):
            raise AssertionError("a WAV was decoded although an output is the manifest")

        monkeypatch.setattr("audiomlp.cli._decode_at_model_rate", no_decoding)
        manifest = write_tiny_dataset(tmp_path).rename(tmp_path / manifest_name)
        before = manifest.read_bytes()
        out = tmp_path / output_name
        code = main(["train", "--manifest", str(manifest), "--output", str(out)] + TRAIN_FLAGS)
        assert code == 1
        assert f"error: cannot write {manifest}: it is the manifest" in capsys.readouterr().err
        assert manifest.read_bytes() == before
        assert [p.name for p in tmp_path.glob("data.*")] == [manifest_name]

    def test_negative_seed_exits_1_before_anything_is_written(self, tmp_path, capsys, monkeypatch):
        def no_decoding(*args, **kwargs):
            raise AssertionError("a WAV was decoded although the seed is refused")

        monkeypatch.setattr("audiomlp.cli._decode_at_model_rate", no_decoding)
        manifest = write_tiny_dataset(tmp_path)
        out = tmp_path / "m.kwm1"
        flags = TRAIN_FLAGS + ["--seed", "-1"]
        code = main(["train", "--manifest", str(manifest), "--output", str(out)] + flags)
        assert code == 1
        assert "error: seed must be non-negative" in capsys.readouterr().err
        assert [p for p in tmp_path.iterdir() if p.suffix in (".kwm1", ".opt1", ".csv")] == []

    def _assert_exits_1_before_training(self, tmp_path, capsys, monkeypatch, directory):
        manifest = write_tiny_dataset(tmp_path)

        def no_training(*args, **kwargs):
            raise AssertionError("train ran although its outputs cannot be written")

        monkeypatch.setattr("audiomlp.cli.train", no_training)
        out = tmp_path / "m.kwm1"
        (tmp_path / directory).mkdir()
        code = main(["train", "--manifest", str(manifest), "--output", str(out)] + TRAIN_FLAGS)
        assert code == 1
        assert f"cannot write {tmp_path / directory}" in capsys.readouterr().err
        assert not out.with_suffix(".csv").exists()

    @pytest.mark.parametrize("output", ["m.csv", "no-such-dir/m.kwm1"])
    def test_bad_output_exits_1_before_any_wav_is_decoded(
        self, tmp_path, capsys, monkeypatch, output
    ):
        def no_decoding(*args, **kwargs):
            raise AssertionError("a WAV was decoded although the output is refused")

        monkeypatch.setattr("audiomlp.cli._decode_at_model_rate", no_decoding)
        manifest = tmp_path / "m.tsv"
        manifest.write_text("missing.wav\t0\nother.wav\t1\n")
        out = tmp_path / output
        code = main(["train", "--manifest", str(manifest), "--output", str(out)] + TRAIN_FLAGS)
        assert code == 1
        assert f"cannot write {out}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [manifest]

    def test_log_path_that_is_a_directory_exits_1_before_any_wav_is_decoded(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_decoding(*args, **kwargs):
            raise AssertionError("a WAV was decoded although the log cannot be written")

        monkeypatch.setattr("audiomlp.cli._decode_at_model_rate", no_decoding)
        manifest = write_tiny_dataset(tmp_path)
        (tmp_path / "m.csv").mkdir()
        out = tmp_path / "m.kwm1"
        code = main(["train", "--manifest", str(manifest), "--output", str(out)] + TRAIN_FLAGS)
        assert code == 1
        assert f"cannot write {tmp_path / 'm.csv'}: it is a directory" in capsys.readouterr().err
        assert not out.exists() and not out.with_suffix(".opt1").exists()

    def test_output_that_is_a_directory_exits_1(self, tmp_path, capsys, monkeypatch):
        self._assert_exits_1_before_training(tmp_path, capsys, monkeypatch, "m.kwm1")

    def test_optimizer_path_that_is_a_directory_exits_1(self, tmp_path, capsys, monkeypatch):
        self._assert_exits_1_before_training(tmp_path, capsys, monkeypatch, "m.opt1")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_run_exits_1_and_writes_no_weights(self, tmp_path, capsys):
        manifest = write_tiny_dataset(tmp_path)
        out = tmp_path / "m.kwm1"
        flags = TRAIN_FLAGS + ["--depth", "2", "--peak-lr", "1e6"]
        code = main(["train", "--manifest", str(manifest), "--output", str(out)] + flags)
        assert code == 1
        assert "training diverged at step" in capsys.readouterr().err
        assert not out.exists()
        assert not out.with_suffix(".opt1").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_update_that_leaves_weights_non_finite_exits_1_and_writes_no_weights(
        self, tmp_path, capsys
    ):
        # the one step's loss is finite; its update turns every weight NaN or Inf
        manifest = write_tiny_dataset(tmp_path, n_per_class=2)
        out = tmp_path / "m.kwm1"
        flags = ["--depth", "1", "--epochs", "1", "--warmup-epochs", "0", "--peak-lr", "1e300"]
        code = main(["train", "--manifest", str(manifest), "--output", str(out)] + flags)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "training diverged at step 0 (the update left" in captured.err
        assert not out.exists()
        assert not out.with_suffix(".opt1").exists()

    def test_bad_hyperparameters_exit_1(self, tmp_path):
        manifest = write_tiny_dataset(tmp_path)
        code = main(
            [
                "train", "--manifest", str(manifest), "--output", str(tmp_path / "m.kwm1"),
                "--epochs", "2", "--warmup-epochs", "50",
            ]
        )
        assert code == 1

    @pytest.mark.parametrize("flag", ["--peak-lr", "--weight-decay"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_hyperparameter_exits_1_before_training(
        self, tmp_path, capsys, monkeypatch, flag, value
    ):
        manifest = write_tiny_dataset(tmp_path)

        def no_training(*args, **kwargs):
            raise AssertionError("training must not start")

        monkeypatch.setattr("audiomlp.cli.train", no_training)
        out = tmp_path / "m.kwm1"
        code = main(["train", "--manifest", str(manifest), "--output", str(out), flag, value])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "must be" in captured.err
        assert list(tmp_path.glob("m.*")) == []


class TestProbe:
    def _write_probe_inputs(self, tmp_path, n=40):
        rng = np.random.default_rng(3)
        half = n // 2
        emb = np.concatenate(
            [rng.standard_normal((half, 8)) + 3.0, rng.standard_normal((half, 8)) - 3.0]
        ).astype(np.float32)
        labels = np.array([0] * half + [1] * half)
        emb_path = tmp_path / "e.emb1"
        save_embeddings(emb_path, emb)
        labels_path = tmp_path / "labels.txt"
        labels_path.write_text("\n".join(str(v) for v in labels) + "\n")
        return emb_path, labels_path

    def test_end_to_end_with_metadata_echo(self, tmp_path, capsys):
        emb_path, labels_path = self._write_probe_inputs(tmp_path)
        code = main(
            [
                "probe", "--embeddings", str(emb_path), "--labels", str(labels_path),
                "--task", "toy", "--algorithm", "iterative", "--depth", "12",
            ]
        )
        assert code == 0
        info = last_json(capsys)
        assert info["task"] == "toy"
        assert info["algorithm"] == "iterative"
        assert info["depth"] == 12
        assert info["accuracy"] == 1.0

    def test_metadata_defaults_to_null(self, tmp_path, capsys):
        emb_path, labels_path = self._write_probe_inputs(tmp_path)
        assert main(["probe", "--embeddings", str(emb_path), "--labels", str(labels_path)]) == 0
        info = last_json(capsys)
        assert info["task"] is None and info["algorithm"] is None and info["depth"] is None

    def test_label_count_mismatch_exits_5(self, tmp_path):
        emb_path, labels_path = self._write_probe_inputs(tmp_path)
        labels_path.write_text("0\n1\n0\n")
        assert main(["probe", "--embeddings", str(emb_path), "--labels", str(labels_path)]) == 5

    def test_single_class_exits_5(self, tmp_path):
        emb_path, labels_path = self._write_probe_inputs(tmp_path)
        labels_path.write_text("\n".join("0" for _ in range(40)) + "\n")
        assert main(["probe", "--embeddings", str(emb_path), "--labels", str(labels_path)]) == 5

    def test_missing_embeddings_exits_5(self, tmp_path):
        labels = tmp_path / "l.txt"
        labels.write_text("0\n1\n")
        assert main(["probe", "--embeddings", str(tmp_path / "no.emb1"), "--labels", str(labels)]) == 5

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_embeddings_exit_5(self, tmp_path, capsys, value):
        emb_path, labels_path = self._write_probe_inputs(tmp_path)
        emb = load_embeddings(emb_path)
        emb[7, 2] = value
        save_embeddings(emb_path, emb)
        assert main(["probe", "--embeddings", str(emb_path), "--labels", str(labels_path)]) == 5
        captured = capsys.readouterr()
        assert captured.out == "" and "NaN or infinite" in captured.err

    def test_label_beyond_example_count_exits_5(self, tmp_path, capsys):
        emb_path = tmp_path / "e.emb1"
        save_embeddings(emb_path, np.random.default_rng(4).standard_normal((6, 8)))
        labels_path = tmp_path / "labels.txt"
        labels_path.write_text("0\n1\n1000000000\n0\n1\n0\n")
        assert main(["probe", "--embeddings", str(emb_path), "--labels", str(labels_path)]) == 5
        captured = capsys.readouterr()
        assert captured.out == "" and "largest label 1000000000" in captured.err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "lr, fill", [("nan", None), ("inf", None), ("0.01", 3e38)], ids=["lr-nan", "lr-inf", "3e38"]
    )
    def test_non_finite_fit_exits_5(self, tmp_path, capsys, lr, fill):
        emb = np.random.default_rng(4).standard_normal((6, 8))
        if fill is not None:
            emb[:] = fill
        emb_path = tmp_path / "e.emb1"
        save_embeddings(emb_path, emb)
        labels_path = tmp_path / "labels.txt"
        labels_path.write_text("0\n1\n0\n1\n0\n1\n")
        argv = ["probe", "--embeddings", str(emb_path), "--labels", str(labels_path), "--lr", lr]
        assert main(argv) == 5
        captured = capsys.readouterr()
        assert captured.out == "" and "finite" in captured.err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_in_the_last_update_exits_5(self, tmp_path, capsys):
        emb_path = tmp_path / "e.emb1"
        save_embeddings(emb_path, np.random.default_rng(4).standard_normal((6, 8)))
        labels_path = tmp_path / "labels.txt"
        labels_path.write_text("0\n1\n0\n1\n0\n1\n")
        argv = ["probe", "--embeddings", str(emb_path), "--labels", str(labels_path)]
        assert main(argv + ["--lr", "1e38", "--epochs", "1"]) == 5
        captured = capsys.readouterr()
        assert captured.out == "" and "after the last update" in captured.err

    def test_optimizer_overflow_exits_5_with_one_error_line(self, tmp_path, capsys):
        # AdamW's float32 second moment overflows on the squared gradient of
        # this finite value; the weights then stall without turning non-finite
        emb = np.random.default_rng(4).standard_normal((6, 8))
        emb[2, 3] = 5.5e26
        emb_path = tmp_path / "e.emb1"
        save_embeddings(emb_path, emb)
        labels_path = tmp_path / "labels.txt"
        labels_path.write_text("0\n1\n0\n1\n0\n1\n")
        assert main(["probe", "--embeddings", str(emb_path), "--labels", str(labels_path)]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: probe optimizer state overflowed\n"

    def test_negative_seed_exits_5_naming_the_seed(self, tmp_path, capsys):
        emb_path, labels_path = self._write_probe_inputs(tmp_path)
        argv = ["probe", "--embeddings", str(emb_path), "--labels", str(labels_path)]
        assert main(argv + ["--seed", "-1"]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be non-negative\n"

    def test_non_integer_labels_exit_5(self, tmp_path):
        emb_path, labels_path = self._write_probe_inputs(tmp_path)
        labels_path.write_text("cat\ndog\n")
        assert main(["probe", "--embeddings", str(emb_path), "--labels", str(labels_path)]) == 5


class TestInspect:
    def test_reports_config_and_count(self, default_weights_file, capsys):
        assert main(["inspect", "--weights", str(default_weights_file)]) == 0
        info = last_json(capsys)
        assert info["parameter_count"] == 424_811
        assert info["depth"] == 12 and info["dim"] == 64
        assert len(info["gate_toeplitz"]) == 12
        assert all(score == 1.0 for score in info["gate_toeplitz"])  # G starts at zero

    def test_corrupt_weights_exit_2(self, tmp_path):
        junk = tmp_path / "x.kwm1"
        junk.write_bytes(b"\x00" * 64)
        assert main(["inspect", "--weights", str(junk)]) == 2

    def test_meta_depth_above_the_bound_exits_2(self, tmp_path, capsys):
        # a table that is whole for its depth, with toy widths so it stays small
        toy = init_weights(EncoderConfig(n_mfcc=4, n_frames=6, dim=4, hidden_dim=8, depth=1))
        depth = MAX_DEPTH + 1
        table = {"meta": np.array([4, 6, 4, 8, depth, 35], dtype="<u4")}
        for name, tensor in toy.tensors.items():
            if name.startswith("block.0."):
                for i in range(depth):
                    table[f"block.{i}." + name.removeprefix("block.0.")] = tensor
            else:
                table[name] = tensor
        path = tmp_path / "deep.kwm1"
        write_tensor_table(path, WEIGHTS_MAGIC, table)
        assert main(["inspect", "--weights", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"depth must be at most {MAX_DEPTH}" in captured.err


class TestInterpDemo:
    def test_writes_images_and_json(self, tmp_path, capsys):
        code = main(
            ["interp-demo", "--size", "256", "--target", "16", "--output-dir", str(tmp_path)]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        records = [json.loads(line) for line in lines]
        assert [r["mode"] for r in records] == ["direct", "iterative"]
        for r in records:
            assert r["size"] == 256 and r["target"] == 16
        assert records[1]["nonzero"] > records[0]["nonzero"]
        for mode in ("direct", "iterative"):
            data = (tmp_path / f"{mode}.pgm").read_bytes()
            assert data.startswith(b"P5\n16 16\n255\n")

    def test_bad_geometry_exits_1(self, tmp_path):
        assert main(["interp-demo", "--size", "8", "--target", "9", "--output-dir", str(tmp_path)]) == 1

    def test_output_dir_that_is_a_file_exits_1(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_bytes(b"a file")
        argv = ["interp-demo", "--size", "64", "--target", "8", "--output-dir", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and f"cannot write {out}" in captured.err
        assert out.read_bytes() == b"a file"

    def test_failed_write_exits_1(self, tmp_path, capsys, disk_full):
        argv = ["interp-demo", "--size", "64", "--target", "8", "--output-dir", str(tmp_path)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and f"cannot write {tmp_path}" in captured.err
        assert list(tmp_path.iterdir()) == []


class TestParser:
    def test_no_command_exits_1(self):
        assert main([]) == 1

    def test_unknown_command_exits_1(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag_exits_1(self):
        assert main(["inspect"]) == 1

    def test_help_exits_0(self):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize(
        "config_class, required",
        [
            (TrainConfig, ["train", "--manifest", "m.tsv", "--output", "m.kwm1"]),
            (ProbeConfig, ["probe", "--embeddings", "e.emb1", "--labels", "l.txt"]),
        ],
        ids=["train", "probe"],
    )
    def test_every_config_field_has_its_flag(self, config_class, required):
        defaults = build_parser().parse_args(required)
        for f in dataclasses.fields(config_class):
            assert getattr(defaults, f.name) == f.default, f.name
            flag = "--" + f.name.replace("_", "-")
            args = build_parser().parse_args(required + [flag, str(f.default)])
            value = getattr(args, f.name)
            assert type(value) is type(f.default) and value == f.default, flag

    def test_one_parser_keeps_no_state_between_calls(self, tmp_path, default_weights_file, capsys):
        wav = tmp_path / "a.wav"
        wav.write_bytes(make_wav(noise_clip(np.random.default_rng(8))))
        weights = str(default_weights_file)

        def commands(out_dir):
            embed = ["embed", str(wav), "--weights", weights, "--output"]
            return [
                embed + [str(out_dir / "bad.emb1"), "--algorithm", "nope"],
                embed + [str(out_dir / "shallow.emb1"), "--depth", "1"],
                embed + [str(out_dir / "full.emb1")],
                ["inspect", "--weights", weights],
            ]

        def result(code, out, err, out_dir):
            files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            last_err = err.strip().split("\n")[-1]
            return code, out.replace(str(out_dir), "<out>"), last_err, files

        here, fresh = tmp_path / "here", tmp_path / "fresh"
        in_process, separate = [], []
        for argv in commands(here):
            here.mkdir(exist_ok=True)
            code = main(argv)
            captured = capsys.readouterr()
            in_process.append(result(code, captured.out, captured.err, here))
        for argv in commands(fresh):
            fresh.mkdir(exist_ok=True)
            proc = subprocess.run(
                [sys.executable, "-m", "audiomlp.cli", *argv], capture_output=True, text=True
            )
            separate.append(result(proc.returncode, proc.stdout, proc.stderr, fresh))
        assert [r[0] for r in in_process] == [1, 0, 0, 0]
        assert json.loads(in_process[2][1])["depth"] == EncoderConfig().depth
        assert in_process == separate

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "audiomlp.cli", "--help"], capture_output=True, text=True
        )
        assert result.returncode == 0
        assert "embed" in result.stdout and "interp-demo" in result.stdout


def main_in_capped_child(argv, cwd):
    """main(argv) in a child process whose address space is capped at 1.5 GiB.

    An allocation that the size flags fail to bound then ends in that child,
    not on the host that runs the tests.
    """
    cap = 3 * 2**29
    code = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
        "from audiomlp.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


class TestSizeFlags:
    """Each size flag is bounded before anything of that size is allocated."""

    @pytest.mark.parametrize(
        "case, expected_code, bound",
        [
            ("probe --hidden-units 1000000000000", 5, "65536"),
            ("interp-demo --size 200000", 1, "4096"),
            ("train --depth 100000000", 1, "1024"),
        ],
        ids=["probe-hidden-units", "interp-demo-size", "train-depth"],
    )
    def test_rejected_with_its_exit_code(self, tmp_path, case, expected_code, bound):
        command, *flags = case.split()
        if command == "probe":
            save_embeddings(tmp_path / "e.emb1", np.random.default_rng(5).standard_normal((6, 8)))
            (tmp_path / "labels.txt").write_text("0\n1\n0\n1\n0\n1\n")
            argv = ["probe", "--embeddings", "e.emb1", "--labels", "labels.txt"]
        elif command == "train":
            manifest = write_tiny_dataset(tmp_path, n_per_class=1)
            argv = ["train", "--manifest", str(manifest), "--output", "m.kwm1"]
        else:
            argv = ["interp-demo", "--output-dir", "out"]
        result = main_in_capped_child(argv + flags, tmp_path)
        assert "Traceback" not in result.stderr
        assert result.returncode == expected_code, result.stderr
        assert result.stdout == "" and bound in result.stderr
        assert not (tmp_path / "out").exists() and list(tmp_path.glob("m.*")) == []
