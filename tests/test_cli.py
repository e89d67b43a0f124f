from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from audiomlp.cli import main
from audiomlp.encoder import EncoderConfig, init_weights
from audiomlp.formats import load_embeddings, load_weights, save_embeddings, save_weights
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

    def test_bad_hyperparameters_exit_1(self, tmp_path):
        manifest = write_tiny_dataset(tmp_path)
        code = main(
            [
                "train", "--manifest", str(manifest), "--output", str(tmp_path / "m.kwm1"),
                "--epochs", "2", "--warmup-epochs", "50",
            ]
        )
        assert code == 1


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


class TestParser:
    def test_no_command_exits_1(self):
        assert main([]) == 1

    def test_unknown_command_exits_1(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag_exits_1(self):
        assert main(["inspect"]) == 1

    def test_help_exits_0(self):
        assert main(["--help"]) == 0

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "audiomlp.cli", "--help"], capture_output=True, text=True
        )
        assert result.returncode == 0
        assert "embed" in result.stdout and "interp-demo" in result.stdout
