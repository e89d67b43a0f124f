"""Binary and text file formats: weights, optimizer state, embeddings.

Weights and optimizer state share one container: a 4-byte magic, a u32
tensor count, then per tensor a u16 name length, the UTF-8 name, a u8
dtype code (0 = float32, 1 = uint32), a u8 rank, rank u32 dims and the
row-major little-endian payload. Weight files ("KWM1") carry a leading
"meta" uint32 tensor with the six architecture dims; an optimizer file
("OPT1") holds the AdamW state table of trainer.init_adamw_state.

Embedding files ("EMB1") are a plain matrix: magic, u32 rows, u32 cols,
float32 payload. The CSV flavor writes one row per line with %.9g, which
round-trips float32 exactly.

Every file is written part by part to a temp file in the target's
directory and then renamed over the target, so a write that fails leaves
any old file as it was and no partial file behind.
"""

from __future__ import annotations

import dataclasses
import math
import os
import struct
from pathlib import Path

import numpy as np

from .encoder import EncoderConfig, EncoderWeights, all_finite, tensor_shapes
from .trainer import init_adamw_state

WEIGHTS_MAGIC = b"KWM1"
OPTIMIZER_MAGIC = b"OPT1"
EMBEDDINGS_MAGIC = b"EMB1"

_DTYPE_FOR_CODE = {0: np.dtype("<f4"), 1: np.dtype("<u4")}
_MAX_RANK = 8
_FLOAT32 = _DTYPE_FOR_CODE[0]
_U8_PAIR = struct.Struct("<BB")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_DIMS = [struct.Struct(f"<{rank}I") for rank in range(_MAX_RANK + 1)]
_EMB1_SHAPE = struct.Struct("<II")


class FormatError(ValueError):
    """A binary file does not parse as the expected format."""


class ManifestError(ValueError):
    """A training manifest line is malformed."""


def write_file_atomic(path, *parts) -> None:
    """Write parts, each from its own buffer, to a temp file beside path; rename it to path.

    If anything fails, the temp file is removed and an existing file at
    path keeps its old bytes.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def why_unwritable(path) -> str | None:
    """Why write_file_atomic cannot write `path`, or None if nothing is in the way."""
    path = Path(path)
    if path.is_dir():
        return "it is a directory"
    if not path.parent.is_dir():
        return f"no directory {path.parent}"
    # the temp file is created in the directory, then renamed to path
    if not os.access(path.parent, os.W_OK):
        return "permission denied"
    return None


def write_tensor_table(path, magic: bytes, tensors: dict[str, np.ndarray]) -> None:
    """Serialize named tensors in dict order; dtypes are forced to f32/u32."""
    parts = [magic, _U32.pack(len(tensors))]
    for name, tensor in tensors.items():
        arr = np.ascontiguousarray(tensor)
        if arr.ndim > _MAX_RANK:
            raise ValueError(f"rank {arr.ndim} too large for tensor {name!r}")
        code = 1 if arr.dtype.kind in "ui" else 0
        arr = arr.astype(_DTYPE_FOR_CODE[code], copy=False)
        encoded = name.encode("utf-8")
        header = _U16.pack(len(encoded)) + encoded + _U8_PAIR.pack(code, arr.ndim)
        parts += [header + _DIMS[arr.ndim].pack(*arr.shape), arr]
    # every tensor is checked before the file is opened; no joined copy is made
    write_file_atomic(path, *parts)


def _truncated(what: str) -> FormatError:
    return FormatError(f"file truncated reading {what}")


def read_tensor_table(path, magic: bytes) -> dict[str, np.ndarray]:
    """Parse a tensor table in one pass over the file's bytes.

    Headers are unpacked in place at running offsets, and each payload is
    copied straight out of the file's bytes into its own array.
    """
    data = Path(path).read_bytes()
    end = len(data)
    if end < 4:
        raise _truncated("magic")
    if data[:4] != magic:
        raise FormatError(f"bad magic; expected {magic.decode('ascii')} file")
    if end < 8:
        raise _truncated("tensor count")
    (count,) = _U32.unpack_from(data, 4)
    off = 8
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        if off + 2 > end:
            raise _truncated("name length")
        (name_len,) = _U16.unpack_from(data, off)
        start, off = off + 2, off + 2 + name_len
        if off > end:
            raise _truncated("name")
        try:
            name = data[start:off].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError("tensor name is not valid UTF-8") from exc
        if name in tensors:
            raise FormatError(f"duplicate tensor {name!r}")
        if off + 2 > end:
            raise _truncated("dtype and rank")
        code, rank = _U8_PAIR.unpack_from(data, off)
        off += 2
        dtype = _DTYPE_FOR_CODE.get(code)
        if dtype is None:
            raise FormatError(f"unknown dtype code {code} for tensor {name!r}")
        if rank > _MAX_RANK:
            raise FormatError(f"rank {rank} too large for tensor {name!r}")
        if off + 4 * rank > end:
            raise _truncated("dims")
        dims = _DIMS[rank].unpack_from(data, off)
        off += 4 * rank
        start, off = off, off + math.prod(dims) * dtype.itemsize
        if off > end:
            raise _truncated(f"payload of {name!r}")
        try:
            tensors[name] = np.ndarray(dims, dtype, data, start).copy()
        except ValueError as exc:  # a zero dim beside dims too large for numpy
            raise FormatError(f"shape {dims} of tensor {name!r}: {exc}") from None
    if off != end:
        raise FormatError(f"{end - off} trailing bytes after last tensor")
    return tensors


def save_weights(path, weights: EncoderWeights) -> None:
    """Write a KWM1 file: meta first, then tensors in canonical order."""
    cfg = weights.config
    table: dict[str, np.ndarray] = {"meta": np.array(dataclasses.astuple(cfg), dtype="<u4")}
    for name in tensor_shapes(cfg):
        table[name] = weights.tensors[name]
    write_tensor_table(path, WEIGHTS_MAGIC, table)


def load_weights(path) -> EncoderWeights:
    tensors = read_tensor_table(path, WEIGHTS_MAGIC)
    meta = tensors.pop("meta", None)
    if meta is None:
        raise FormatError("weights file has no meta tensor")
    if meta.shape != (6,) or meta.dtype != np.dtype("<u4"):
        raise FormatError("meta tensor must be six uint32 values")
    # every block has tensors, so a depth above the count fails before
    # tensor_shapes sizes its table; EncoderWeights reports other mismatches
    depth = int(meta[4])
    if depth > len(tensors):
        raise FormatError(f"{len(tensors)} tensors inconsistent with meta depth {depth}")
    for name, tensor in tensors.items():
        if tensor.dtype != _FLOAT32:
            raise FormatError(f"tensor {name!r} is not float32")
        if not all_finite(tensor):
            raise FormatError(f"tensor {name!r} holds NaN or infinite values")
    try:
        config = EncoderConfig(*(int(v) for v in meta))
        return EncoderWeights(config, tensors)
    except ValueError as exc:
        raise FormatError(f"weights file inconsistent with its meta: {exc}") from exc


def save_optimizer_state(path, state: dict[str, np.ndarray]) -> None:
    write_tensor_table(path, OPTIMIZER_MAGIC, state)


def load_optimizer_state(path, weights: EncoderWeights) -> dict[str, np.ndarray]:
    """Read an OPT1 file; FormatError unless its names, shapes and dtypes are
    those of init_adamw_state(weights.tensors).
    """
    state = read_tensor_table(path, OPTIMIZER_MAGIC)
    template = init_adamw_state(weights.tensors)
    for name in {**template, **state}:  # the template's order, then names only the file has
        got, want = state.get(name), template.get(name)
        if got is None or want is None or (got.shape, got.dtype) != (want.shape, want.dtype):
            what = "unexpected" if want is None else f"expected {want.dtype} {want.shape}"
            raise FormatError(f"optimizer state does not match the weights: {what} tensor {name!r}")
    return state


def save_embeddings(path, matrix: np.ndarray) -> None:
    matrix = np.atleast_2d(np.asarray(matrix))
    if matrix.ndim != 2:
        raise ValueError("embeddings must be a row-per-example matrix")
    rows, cols = matrix.shape
    payload = np.ascontiguousarray(matrix, dtype="<f4")
    write_file_atomic(path, EMBEDDINGS_MAGIC + _EMB1_SHAPE.pack(rows, cols), payload)


def load_embeddings(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if len(data) < 12 or data[:4] != EMBEDDINGS_MAGIC:
        raise FormatError("not an EMB1 embeddings file")
    rows, cols = _EMB1_SHAPE.unpack_from(data, 4)
    expected = 12 + rows * cols * 4
    if len(data) != expected:
        raise FormatError(f"embeddings payload is {len(data) - 12} bytes, expected {expected - 12}")
    matrix = np.frombuffer(data, "<f4", rows * cols, 12).reshape(rows, cols).copy()
    if not all_finite(matrix):
        raise FormatError("embeddings hold NaN or infinite values")
    return matrix


def format_embeddings_csv(matrix: np.ndarray) -> str:
    """CSV text, one row per line; %.9g preserves float32 exactly."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float32))
    lines = [",".join("%.9g" % v for v in row) for row in matrix]
    return "\n".join(lines) + "\n"


def load_manifest(path) -> list[tuple[Path, int]]:
    """Parse `path<TAB>label` lines; relative paths anchor at the manifest."""
    manifest_path = Path(path)
    base = manifest_path.parent
    entries: list[tuple[Path, int]] = []
    try:
        text = manifest_path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ManifestError(f"not UTF-8 text: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "\t" not in line:
            raise ManifestError(f"line {lineno}: expected wav-path<TAB>label")
        wav, _, label_text = line.partition("\t")
        try:
            label = int(label_text.strip())
        except ValueError:
            raise ManifestError(f"line {lineno}: label {label_text.strip()!r} is not an integer") from None
        if label < 0:
            raise ManifestError(f"line {lineno}: label must be non-negative")
        if "\0" in wav:
            raise ManifestError(f"line {lineno}: wav path contains a NUL character")
        wav_path = Path(wav.strip())
        if not wav_path.is_absolute():
            wav_path = base / wav_path
        entries.append((wav_path, label))
    if not entries:
        raise ManifestError("manifest contains no entries")
    return entries


def write_pgm(path, image: np.ndarray) -> None:
    """Binary PGM (P5), 8-bit grayscale."""
    image = np.ascontiguousarray(image)
    if image.ndim != 2 or image.dtype != np.uint8:
        raise ValueError("PGM writer expects a 2-D uint8 image")
    height, width = image.shape
    write_file_atomic(path, f"P5\n{width} {height}\n255\n".encode("ascii"), image)
