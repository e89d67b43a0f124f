"""Binary and text file formats: weights, optimizer state, embeddings.

Weights and optimizer state share one container: a 4-byte magic, a u32
tensor count, then per tensor a u16 name length, the UTF-8 name, a u8
dtype code (0 = float32, 1 = uint32), a u8 rank, rank u32 dims and the
row-major little-endian payload. Weight files ("KWM1") carry a leading
"meta" uint32 tensor with the six architecture dims; optimizer files
("OPT1") carry a "step" counter plus "m."/"v."-prefixed moment tensors.

Embedding files ("EMB1") are a plain matrix: magic, u32 rows, u32 cols,
float32 payload. The CSV flavor writes one row per line with %.9g, which
round-trips float32 exactly.

Every file is written whole to a temp file in the target's directory and
then renamed over the target, so a write that fails leaves any old file
as it was and no partial file behind.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .encoder import EncoderConfig, EncoderWeights, tensor_shapes
from .trainer import AdamWState

WEIGHTS_MAGIC = b"KWM1"
OPTIMIZER_MAGIC = b"OPT1"
EMBEDDINGS_MAGIC = b"EMB1"

_DTYPE_FOR_CODE = {0: np.dtype("<f4"), 1: np.dtype("<u4")}
_MAX_RANK = 8


class FormatError(ValueError):
    """A binary file does not parse as the expected format."""


class ManifestError(ValueError):
    """A training manifest line is malformed."""


def write_file_atomic(path, data: bytes) -> None:
    """Write data to a new temp file beside path, then rename it to path.

    If anything fails, the temp file is removed and an existing file at
    path keeps its old bytes.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
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
    blob = bytearray(magic)
    blob += struct.pack("<I", len(tensors))
    for name, tensor in tensors.items():
        arr = np.ascontiguousarray(tensor)
        code = 1 if arr.dtype.kind in "ui" else 0
        arr = arr.astype(_DTYPE_FOR_CODE[code], copy=False)
        encoded = name.encode("utf-8")
        blob += struct.pack("<H", len(encoded)) + encoded
        blob += struct.pack("<BB", code, arr.ndim)
        blob += struct.pack(f"<{arr.ndim}I", *arr.shape)
        blob += arr.tobytes()
    write_file_atomic(path, bytes(blob))


def read_tensor_table(path, magic: bytes) -> dict[str, np.ndarray]:
    data = Path(path).read_bytes()
    off = 0

    def take(n: int, what: str) -> bytes:
        nonlocal off
        if off + n > len(data):
            raise FormatError(f"file truncated reading {what}")
        chunk = data[off : off + n]
        off += n
        return chunk

    if take(4, "magic") != magic:
        raise FormatError(f"bad magic; expected {magic.decode('ascii')} file")
    (count,) = struct.unpack("<I", take(4, "tensor count"))
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        try:
            name = take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError("tensor name is not valid UTF-8") from exc
        if name in tensors:
            raise FormatError(f"duplicate tensor {name!r}")
        code, rank = struct.unpack("<BB", take(2, "dtype and rank"))
        if code not in _DTYPE_FOR_CODE:
            raise FormatError(f"unknown dtype code {code} for tensor {name!r}")
        if rank > _MAX_RANK:
            raise FormatError(f"rank {rank} too large for tensor {name!r}")
        dims = struct.unpack(f"<{rank}I", take(4 * rank, "dims"))
        dtype = _DTYPE_FOR_CODE[code]
        payload = take(math.prod(dims) * dtype.itemsize, f"payload of {name!r}")
        try:
            tensors[name] = np.frombuffer(payload, dtype=dtype).reshape(dims).copy()
        except ValueError as exc:  # a zero dim beside dims too large for numpy
            raise FormatError(f"shape {dims} of tensor {name!r}: {exc}") from None
    if off != len(data):
        raise FormatError(f"{len(data) - off} trailing bytes after last tensor")
    return tensors


def save_weights(path, weights: EncoderWeights) -> None:
    """Write a KWM1 file: meta first, then tensors in canonical order."""
    cfg = weights.config
    table: dict[str, np.ndarray] = {
        "meta": np.array(
            [cfg.n_mfcc, cfg.n_frames, cfg.dim, cfg.hidden_dim, cfg.depth, cfg.n_classes],
            dtype="<u4",
        )
    }
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
    for name, tensor in tensors.items():
        if tensor.dtype != np.dtype("<f4"):
            raise FormatError(f"tensor {name!r} is not float32")
        if not np.isfinite(tensor).all():
            raise FormatError(f"tensor {name!r} holds NaN or infinite values")
    try:
        config = EncoderConfig(*(int(v) for v in meta))
        return EncoderWeights(config, tensors)
    except ValueError as exc:
        raise FormatError(f"weights file inconsistent with its meta: {exc}") from exc


def save_optimizer_state(path, state: AdamWState) -> None:
    table: dict[str, np.ndarray] = {"step": np.array([state.step], dtype="<u4")}
    for name, tensor in state.m.items():
        table["m." + name] = tensor
    for name, tensor in state.v.items():
        table["v." + name] = tensor
    write_tensor_table(path, OPTIMIZER_MAGIC, table)


def load_optimizer_state(path, weights: EncoderWeights | None = None) -> AdamWState:
    tensors = read_tensor_table(path, OPTIMIZER_MAGIC)
    step = tensors.pop("step", None)
    if step is None or step.shape != (1,):
        raise FormatError("optimizer file has no step counter")
    m: dict[str, np.ndarray] = {}
    v: dict[str, np.ndarray] = {}
    for name, tensor in tensors.items():
        if name.startswith("m."):
            m[name[2:]] = tensor
        elif name.startswith("v."):
            v[name[2:]] = tensor
        else:
            raise FormatError(f"unexpected tensor {name!r} in optimizer file")
    if m.keys() != v.keys():
        raise FormatError("optimizer moments are not paired")
    if weights is not None and m.keys() != weights.tensors.keys():
        raise FormatError("optimizer state does not match the weights")
    return AdamWState(m=m, v=v, step=int(step[0]))


def save_embeddings(path, matrix: np.ndarray) -> None:
    matrix = np.atleast_2d(np.asarray(matrix))
    if matrix.ndim != 2:
        raise ValueError("embeddings must be a row-per-example matrix")
    rows, cols = matrix.shape
    payload = np.ascontiguousarray(matrix, dtype="<f4").tobytes()
    write_file_atomic(path, EMBEDDINGS_MAGIC + struct.pack("<II", rows, cols) + payload)


def load_embeddings(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if len(data) < 12 or data[:4] != EMBEDDINGS_MAGIC:
        raise FormatError("not an EMB1 embeddings file")
    rows, cols = struct.unpack("<II", data[4:12])
    expected = 12 + rows * cols * 4
    if len(data) != expected:
        raise FormatError(f"embeddings payload is {len(data) - 12} bytes, expected {expected - 12}")
    return np.frombuffer(data[12:], dtype="<f4").reshape(rows, cols).copy()


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
    image = np.asarray(image)
    if image.ndim != 2 or image.dtype != np.uint8:
        raise ValueError("PGM writer expects a 2-D uint8 image")
    height, width = image.shape
    write_file_atomic(path, f"P5\n{width} {height}\n255\n".encode("ascii") + image.tobytes())
