from __future__ import annotations

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiomlp.encoder import EncoderConfig, init_weights
from audiomlp.formats import (
    EMBEDDINGS_MAGIC,
    OPTIMIZER_MAGIC,
    WEIGHTS_MAGIC,
    FormatError,
    ManifestError,
    format_embeddings_csv,
    load_embeddings,
    load_manifest,
    load_optimizer_state,
    load_weights,
    read_tensor_table,
    save_embeddings,
    save_optimizer_state,
    save_weights,
    write_file_atomic,
    write_pgm,
    write_tensor_table,
)
from audiomlp.trainer import adamw_update, init_adamw_state

TOY = EncoderConfig(n_mfcc=4, n_frames=6, dim=4, hidden_dim=8, depth=2, n_classes=3)


class TestTensorTable:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.bin"
        tensors = {
            "a": np.arange(6, dtype=np.float32).reshape(2, 3),
            "b.c": np.array([7, 8], dtype=np.uint32),
        }
        write_tensor_table(path, b"KWM1", tensors)
        back = read_tensor_table(path, b"KWM1")
        assert list(back) == ["a", "b.c"]
        np.testing.assert_array_equal(back["a"], tensors["a"])
        assert back["a"].dtype == np.dtype("<f4")
        np.testing.assert_array_equal(back["b.c"], tensors["b.c"])
        assert back["b.c"].dtype == np.dtype("<u4")

    def test_header_layout(self, tmp_path):
        path = tmp_path / "t.bin"
        a = np.arange(6, dtype=np.float32).reshape(2, 3)
        write_tensor_table(path, b"KWM1", {"a": a, "bc": np.array([7], dtype=np.uint32)})
        assert path.read_bytes() == (
            b"KWM1" + struct.pack("<I", 2)
            + struct.pack("<H", 1) + b"a" + struct.pack("<BB2I", 0, 2, 2, 3) + a.tobytes()
            + struct.pack("<H", 2) + b"bc" + struct.pack("<BBI", 1, 1, 1) + struct.pack("<I", 7)
        )

    def test_rank_above_the_reader_bound_is_not_written(self, tmp_path, monkeypatch):
        """Every tensor is checked before the temp file is opened, so a bad
        tensor after a good one leaves no temp file and the old file as it was."""
        path = tmp_path / "t.bin"
        path.write_bytes(b"old contents")
        opened = []
        monkeypatch.setattr("audiomlp.formats.open", lambda *a, **k: opened.append(a), raising=False)
        tensors = {"ok": np.ones(3, dtype=np.float32), "x": np.zeros((1,) * 9, dtype=np.float32)}
        with pytest.raises(ValueError, match="rank 9 too large for tensor 'x'"):
            write_tensor_table(path, b"KWM1", tensors)
        assert opened == []
        assert path.read_bytes() == b"old contents"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("save", ["weights", "optimizer state"])
    def test_writer_streams_from_the_arrays(self, tmp_path, save):
        """A depth-12 KWM1 or OPT1 write allocates at most 0.1x the file it writes.

        Each header and then the array itself are written, with no copy of
        the file in memory: 0.022x for KWM1 and 0.014x for OPT1.
        """
        w = init_weights(EncoderConfig(depth=12), seed=0)
        state = init_adamw_state(w.tensors)
        path = tmp_path / "out.bin"
        tracemalloc.start()
        try:
            if save == "weights":
                save_weights(path, w)
            else:
                save_optimizer_state(path, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert peak <= 0.1 * size, f"peak {peak / size:.2f}x of the {size}-byte file"

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "t.bin"
        write_tensor_table(path, b"OPT1", {"x": np.zeros(1, dtype=np.float32)})
        with pytest.raises(FormatError, match="magic"):
            read_tensor_table(path, b"KWM1")

    def test_truncations_all_rejected(self, tmp_path):
        path = tmp_path / "t.bin"
        write_tensor_table(path, b"KWM1", {"xy": np.arange(4, dtype=np.float32)})
        blob = path.read_bytes()
        for cut in (2, 6, 9, 11, 13, len(blob) - 3):
            clipped = tmp_path / "clip.bin"
            clipped.write_bytes(blob[:cut])
            with pytest.raises(FormatError):
                read_tensor_table(clipped, b"KWM1")

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "t.bin"
        write_tensor_table(path, b"KWM1", {"x": np.zeros(2, dtype=np.float32)})
        path.write_bytes(path.read_bytes() + b"!!")
        with pytest.raises(FormatError, match="trailing"):
            read_tensor_table(path, b"KWM1")

    def test_unknown_dtype_code_rejected(self, tmp_path):
        # hand-rolled table: one tensor "x", dtype code 7
        blob = b"KWM1" + struct.pack("<I", 1)
        blob += struct.pack("<H", 1) + b"x" + struct.pack("<BB", 7, 1)
        blob += struct.pack("<I", 1) + b"\x00\x00\x00\x00"
        path = tmp_path / "t.bin"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="dtype code 7"):
            read_tensor_table(path, b"KWM1")

    def test_duplicate_name_rejected(self, tmp_path):
        one = struct.pack("<H", 1) + b"x" + struct.pack("<BB", 0, 1) + struct.pack("<I", 0)
        blob = b"KWM1" + struct.pack("<I", 2) + one + one
        path = tmp_path / "t.bin"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="duplicate"):
            read_tensor_table(path, b"KWM1")


class TestWeightsFile:
    def test_round_trip_bitwise(self, tmp_path):
        w = init_weights(TOY, seed=1)
        path = tmp_path / "w.kwm1"
        save_weights(path, w)
        back = load_weights(path)
        assert back.config == TOY
        for name in w.tensors:
            assert back.tensors[name].tobytes() == w.tensors[name].tobytes()

    def test_save_load_save_is_byte_identical(self, tmp_path):
        w = init_weights(TOY, seed=2)
        a, b = tmp_path / "a.kwm1", tmp_path / "b.kwm1"
        save_weights(a, w)
        save_weights(b, load_weights(a))
        assert a.read_bytes() == b.read_bytes()

    def test_meta_first_and_named_tensors_present(self, tmp_path):
        path = tmp_path / "w.kwm1"
        save_weights(path, init_weights(TOY, seed=0))
        table = read_tensor_table(path, WEIGHTS_MAGIC)
        names = list(table)
        assert names[0] == "meta"
        assert "block.1.U" in names and "final_norm.scale" in names
        np.testing.assert_array_equal(table["meta"], [4, 6, 4, 8, 2, 3])

    def test_missing_meta_rejected(self, tmp_path):
        w = init_weights(TOY, seed=0)
        path = tmp_path / "w.kwm1"
        write_tensor_table(path, WEIGHTS_MAGIC, w.tensors)
        with pytest.raises(FormatError, match="meta"):
            load_weights(path)

    def test_meta_tensor_mismatch_rejected(self, tmp_path):
        w = init_weights(TOY, seed=0)
        path = tmp_path / "w.kwm1"
        save_weights(path, w)
        table = read_tensor_table(path, WEIGHTS_MAGIC)
        table["meta"] = np.array([4, 6, 4, 8, 3, 3], dtype="<u4")  # claims depth 3
        write_tensor_table(path, WEIGHTS_MAGIC, table)
        with pytest.raises(FormatError, match="inconsistent"):
            load_weights(path)

    def test_huge_meta_depth_rejected_before_its_shape_table(self, tmp_path):
        """At depth 10,000 a shape table alone would take about 20 MB."""
        path = tmp_path / "w.kwm1"
        save_weights(path, init_weights(TOY, seed=0))
        table = read_tensor_table(path, WEIGHTS_MAGIC)
        table["meta"] = np.array([4, 6, 4, 8, 10_000, 3], dtype="<u4")
        write_tensor_table(path, WEIGHTS_MAGIC, table)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="26 tensors inconsistent with meta depth 10000"):
                load_weights(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_non_f32_weight_tensor_rejected(self, tmp_path):
        w = init_weights(TOY, seed=0)
        path = tmp_path / "w.kwm1"
        save_weights(path, w)
        table = read_tensor_table(path, WEIGHTS_MAGIC)
        table["P0.bias"] = table["P0.bias"].astype(np.uint32)
        write_tensor_table(path, WEIGHTS_MAGIC, table)
        with pytest.raises(FormatError, match="float32"):
            load_weights(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_tensor_rejected(self, tmp_path, value):
        w = init_weights(TOY, seed=0)
        w.tensors["block.1.U"][2, 3] = value
        path = tmp_path / "w.kwm1"
        save_weights(path, w)
        with pytest.raises(FormatError, match="block.1.U"):
            load_weights(path)

    def test_largest_finite_weights_load(self, tmp_path):
        # their sum of squares overflows, so the exact elementwise test decides
        w = init_weights(TOY, seed=0)
        big = np.finfo(np.float32).max
        w.tensors["block.1.U"][:] = big
        w.tensors["head.W"][0, 0] = -big
        path = tmp_path / "w.kwm1"
        save_weights(path, w)
        loaded = load_weights(path)
        for name, tensor in w.tensors.items():
            assert loaded.tensors[name].tobytes() == tensor.tobytes()


class TestOptimizerFile:
    def _state(self):
        w = init_weights(TOY, seed=3)
        state = init_adamw_state(w.tensors)
        grads = {k: np.ones_like(v) for k, v in w.tensors.items()}
        for _ in range(3):
            adamw_update(w.tensors, grads, state, 1e-3, 0.1)
        return w, state

    def test_round_trip(self, tmp_path):
        w, state = self._state()
        path = tmp_path / "s.opt1"
        save_optimizer_state(path, state)
        back = load_optimizer_state(path, w)
        assert back["step"][0] == 3
        assert list(back) == list(state)
        for name in state:
            assert back[name].dtype == state[name].dtype
            assert back[name].tobytes() == state[name].tobytes()

    def test_prefixed_names_on_disk(self, tmp_path):
        _, state = self._state()
        path = tmp_path / "s.opt1"
        save_optimizer_state(path, state)
        table = read_tensor_table(path, OPTIMIZER_MAGIC)
        assert "step" in table
        assert "m.P0" in table and "v.P0" in table
        assert "m.block.0.G.bias" in table

    def test_unpaired_moments_rejected(self, tmp_path):
        w, state = self._state()
        path = tmp_path / "s.opt1"
        save_optimizer_state(path, state)
        table = read_tensor_table(path, OPTIMIZER_MAGIC)
        del table["v.P0"]
        write_tensor_table(path, OPTIMIZER_MAGIC, table)
        with pytest.raises(FormatError, match="expected float32 .* tensor 'v.P0'"):
            load_optimizer_state(path, w)

    @pytest.mark.parametrize(
        "name, tensor, message",
        [
            ("m.P0", np.zeros((3, 3), np.float32), r"expected float32 \(4, 4\) tensor 'm.P0'"),
            ("v.P0", np.zeros(7, np.float32), r"expected float32 \(4, 4\) tensor 'v.P0'"),
            ("step", np.zeros(1, np.float32), r"expected uint32 \(1,\) tensor 'step'"),
            ("v.head.bias", None, r"expected float32 \(3,\) tensor 'v.head.bias'"),
            ("m.extra", np.zeros(1, np.float32), "unexpected tensor 'm.extra'"),
        ],
        ids=["wrong-m-shape", "wrong-v-shape", "wrong-step-dtype", "missing-v", "extra"],
    )
    def test_table_unlike_the_weights_state_rejected(self, tmp_path, name, tensor, message):
        w, state = self._state()
        if tensor is None:
            del state[name]
        else:
            state[name] = tensor
        path = tmp_path / "s.opt1"
        save_optimizer_state(path, state)
        with pytest.raises(FormatError, match=message):
            load_optimizer_state(path, w)

    def test_mismatch_with_weights_rejected(self, tmp_path):
        _, state = self._state()
        path = tmp_path / "s.opt1"
        save_optimizer_state(path, state)
        other = init_weights(EncoderConfig(n_mfcc=4, n_frames=6, dim=4, hidden_dim=8, depth=1, n_classes=3))
        with pytest.raises(FormatError, match="does not match"):
            load_optimizer_state(path, other)


class TestEmbeddingsFile:
    def test_round_trip(self, tmp_path):
        emb = np.random.default_rng(4).standard_normal((3, 1024)).astype(np.float32)
        path = tmp_path / "e.emb1"
        save_embeddings(path, emb)
        back = load_embeddings(path)
        assert back.tobytes() == emb.tobytes()
        assert path.read_bytes()[:4] == EMBEDDINGS_MAGIC

    def test_header_layout(self, tmp_path):
        emb = np.arange(6, dtype=np.float32).reshape(3, 2)
        path = tmp_path / "e.emb1"
        save_embeddings(path, emb)
        assert path.read_bytes() == b"EMB1" + struct.pack("<II", 3, 2) + emb.tobytes()

    def test_vector_becomes_single_row(self, tmp_path):
        path = tmp_path / "e.emb1"
        save_embeddings(path, np.ones(1024, dtype=np.float32))
        assert load_embeddings(path).shape == (1, 1024)

    def test_bad_payload_length_rejected(self, tmp_path):
        path = tmp_path / "e.emb1"
        save_embeddings(path, np.ones((2, 4), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError):
            load_embeddings(path)

    def test_load_peaks_below_two_and_a_half_matrices(self, tmp_path):
        # the file's bytes, the matrix copied straight out of them and the
        # finiteness mask (3.0x when the payload was sliced off first)
        path = tmp_path / "e.emb1"
        save_embeddings(path, np.random.default_rng(6).standard_normal((2000, 1024)))
        tracemalloc.start()
        try:
            matrix = load_embeddings(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert matrix.shape == (2000, 1024)
        assert peak <= 2.5 * matrix.nbytes, f"peak {peak / matrix.nbytes:.2f}x the matrix"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, tmp_path, value):
        emb = np.ones((6, 8), dtype=np.float32)
        emb[4, 5] = value
        path = tmp_path / "e.emb1"
        save_embeddings(path, emb)
        with pytest.raises(FormatError, match="NaN or infinite"):
            load_embeddings(path)

    def test_csv_round_trips_float32(self):
        rng = np.random.default_rng(5)
        emb = np.concatenate(
            [rng.standard_normal(60), [1e-30, -1e30, 0.0, 1.0]]
        ).astype(np.float32).reshape(4, 16)
        text = format_embeddings_csv(emb)
        rows = [[np.float32(v) for v in line.split(",")] for line in text.strip().split("\n")]
        np.testing.assert_array_equal(np.array(rows, dtype=np.float32), emb)

    def test_csv_shape(self):
        text = format_embeddings_csv(np.zeros((2, 3), dtype=np.float32))
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert all(len(line.split(",")) == 3 for line in lines)


class TestManifest:
    def test_parse_and_relative_resolution(self, tmp_path):
        mf = tmp_path / "list.tsv"
        mf.write_text("# header\nclips/a.wav\t0\n\n/abs/b.wav\t12\n")
        entries = load_manifest(mf)
        assert entries[0] == (tmp_path / "clips/a.wav", 0)
        assert str(entries[1][0]) == "/abs/b.wav" and entries[1][1] == 12

    def test_missing_tab(self, tmp_path):
        mf = tmp_path / "m.tsv"
        mf.write_text("a.wav 0\n")
        with pytest.raises(ManifestError, match="TAB"):
            load_manifest(mf)

    def test_non_integer_label(self, tmp_path):
        mf = tmp_path / "m.tsv"
        mf.write_text("a.wav\tdog\n")
        with pytest.raises(ManifestError, match="not an integer"):
            load_manifest(mf)

    def test_negative_label(self, tmp_path):
        mf = tmp_path / "m.tsv"
        mf.write_text("a.wav\t-1\n")
        with pytest.raises(ManifestError, match="non-negative"):
            load_manifest(mf)

    def test_empty_manifest(self, tmp_path):
        mf = tmp_path / "m.tsv"
        mf.write_text("# nothing\n")
        with pytest.raises(ManifestError, match="no entries"):
            load_manifest(mf)

    def test_nul_in_path(self, tmp_path):
        mf = tmp_path / "m.tsv"
        mf.write_text("a.wav\t0\nb\0.wav\t1\n")
        with pytest.raises(ManifestError, match="line 2: wav path contains a NUL"):
            load_manifest(mf)

    def test_not_utf8(self, tmp_path):
        mf = tmp_path / "m.tsv"
        mf.write_bytes(b"\xff.wav\t0\n")
        with pytest.raises(ManifestError, match="not UTF-8"):
            load_manifest(mf)


class TestPgm:
    def test_header_and_payload(self, tmp_path):
        img = np.arange(12, dtype=np.uint8).reshape(3, 4)
        path = tmp_path / "i.pgm"
        write_pgm(path, img)
        data = path.read_bytes()
        assert data.startswith(b"P5\n4 3\n255\n")
        assert data[len(b"P5\n4 3\n255\n") :] == img.tobytes()

    def test_rejects_wrong_dtype(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "i.pgm", np.zeros((3, 4), dtype=np.float32))


_WRITERS = {
    "kwm1": lambda p: save_weights(p, init_weights(TOY, seed=1)),
    "opt1": lambda p: save_optimizer_state(p, init_adamw_state(init_weights(TOY).tensors)),
    "emb1": lambda p: save_embeddings(p, np.ones((2, 3))),
    "pgm": lambda p: write_pgm(p, np.zeros((3, 4), dtype=np.uint8)),
    "csv": lambda p: write_file_atomic(p, format_embeddings_csv(np.ones((2, 3))).encode()),
}


class TestAtomicWrites:
    @pytest.mark.parametrize("kind", sorted(_WRITERS))
    def test_failed_write_keeps_old_file(self, tmp_path, disk_full, kind):
        path = tmp_path / f"out.{kind}"
        path.write_bytes(b"old contents")
        with pytest.raises(OSError, match="No space left"):
            _WRITERS[kind](path)
        assert path.read_bytes() == b"old contents"
        assert list(tmp_path.iterdir()) == [path]  # no temp file left behind

    @pytest.mark.parametrize("kind", sorted(_WRITERS))
    def test_failed_write_creates_nothing(self, tmp_path, disk_full, kind):
        with pytest.raises(OSError):
            _WRITERS[kind](tmp_path / f"out.{kind}")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", sorted(_WRITERS))
    def test_write_replaces_old_file(self, tmp_path, kind):
        path = tmp_path / f"out.{kind}"
        _WRITERS[kind](path)
        expected = path.read_bytes()
        path.write_bytes(b"old contents")
        _WRITERS[kind](path)
        assert path.read_bytes() == expected
        assert list(tmp_path.iterdir()) == [path]

    def test_parts_are_written_in_order(self, tmp_path):
        path = tmp_path / "out.bin"
        write_file_atomic(path, b"ab", np.arange(3, dtype="<u2").reshape(1, 3), bytearray(b"z"))
        assert path.read_bytes() == b"ab\x00\x00\x01\x00\x02\x00z"

    def test_directory_target_is_left_alone(self, tmp_path):
        (tmp_path / "d").mkdir()
        with pytest.raises(IsADirectoryError):
            write_file_atomic(tmp_path / "d", b"x")
        assert [p.name for p in tmp_path.iterdir()] == ["d"]


def _tensor_header(name: bytes, code: int, dims: list[int]) -> bytes:
    return (
        struct.pack("<H", len(name)) + name + struct.pack("<BB", code, len(dims))
        + struct.pack(f"<{len(dims)}I", *dims)
    )


class TestFuzzedInputs:
    """Only a valid result or the module's own error may come out."""

    @staticmethod
    def _read_or_format_error(path):
        try:
            tensors = read_tensor_table(path, WEIGHTS_MAGIC)
        except FormatError:
            return
        for name, tensor in tensors.items():
            assert isinstance(name, str) and tensor.dtype in (np.dtype("<f4"), np.dtype("<u4"))

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=200))
    def test_arbitrary_bytes_read_or_raise_format_error(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "t.bin"
        path.write_bytes(data)
        self._read_or_format_error(path)

    @settings(max_examples=300, deadline=None)
    @given(
        count=st.integers(0, 2**32 - 1),
        name=st.binary(max_size=6),
        code=st.integers(0, 255),
        dims=st.lists(st.integers(0, 2**32 - 1), max_size=10),
        payload=st.binary(max_size=64),
    )
    def test_fuzzed_header_reads_or_raises_format_error(
        self, tmp_path_factory, count, name, code, dims, payload
    ):
        path = tmp_path_factory.mktemp("fuzz") / "t.bin"
        path.write_bytes(
            WEIGHTS_MAGIC + struct.pack("<I", count) + _tensor_header(name, code, dims) + payload
        )
        self._read_or_format_error(path)

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=200))
    def test_arbitrary_manifest_bytes_parse_or_raise_manifest_error(self, tmp_path_factory, data):
        self._parse_or_manifest_error(tmp_path_factory.mktemp("fuzz") / "m.tsv", data)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.text(max_size=8), st.sampled_from(["\t", " ", ""]), st.text(max_size=6)),
            max_size=5,
        )
    )
    def test_fuzzed_manifest_lines_parse_or_raise_manifest_error(self, tmp_path_factory, lines):
        text = "".join(f"{wav}{sep}{label}\n" for wav, sep, label in lines)
        path = tmp_path_factory.mktemp("fuzz") / "m.tsv"
        self._parse_or_manifest_error(path, text.encode("utf-8", "surrogatepass"))

    @staticmethod
    def _parse_or_manifest_error(path, data):
        path.write_bytes(data)
        try:
            entries = load_manifest(path)
        except ManifestError:
            return
        assert entries
        for wav, label in entries:
            assert isinstance(label, int) and label >= 0
            assert "\0" not in str(wav)
