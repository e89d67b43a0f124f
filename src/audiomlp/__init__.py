"""Self-contained audio embedding engine built on an all-MLP encoder.

The package turns WAV audio into fixed-size embeddings: a DSP front end
(decode, resample, segment, MFCC), a gated-MLP encoder over 98 MFCC
frames, reduction of the 98x64 timestamp matrix to a 1024-dim scene
vector, a small supervised trainer with hand-derived gradients, and a
shallow probe for evaluating embeddings on labeled data.
"""

from .dsp import AudioBuffer, decode_wav, mfcc, pad_and_segment, resample
from .encoder import EncoderConfig, EncoderWeights, extract_timestamps, init_weights
from .scene import scene_embedding

__all__ = [
    "AudioBuffer",
    "decode_wav",
    "mfcc",
    "pad_and_segment",
    "resample",
    "EncoderConfig",
    "EncoderWeights",
    "extract_timestamps",
    "init_weights",
    "scene_embedding",
]

__version__ = "0.1.0"
