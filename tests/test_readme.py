from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from conftest import make_wav, sine_clip

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs_on_a_44100_hz_clip(tmp_path, monkeypatch):
    library = README.read_text().split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    (tmp_path / "clip.wav").write_bytes(make_wav(sine_clip(440.0, rate=44100, seconds=1.5), 44100))
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["stamps"].shape == (98, 64)
    assert namespace["scene"].shape == (1024,) and np.isfinite(namespace["scene"]).all()
