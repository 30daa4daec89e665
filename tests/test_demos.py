"""Each demo runs in a fresh interpreter, exits 0 and prints what it printed
when this test was written: the demos are deterministic, so a change of
their output is a change of the library's results."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spectral_deform as sd

REPO = Path(__file__).resolve().parents[1]

EXPECTED = {
    "compress_and_reconstruct.py": """\
base beam: 500 vertices, 960 triangles
threshold t = 433.165 -> descriptor keeps 3 of 60 eigenvectors: [0, 1, 4]
RMS error, descriptor subset :   23.329
RMS error, lowest 3 modes    :   36.793
the adaptively chosen subset wins
tuned for RMS <= 11.665: t = 132.068, 6 eigenvectors, achieved 10.218
""",
    "filter_and_cluster.py": """\
bundle: 30 states, N = 500

probe shape 25 (axial_crush), descriptor size 3
top 10 by cosine similarity:
  shape 25  axial_crush    score +1.0000
  shape 27  axial_crush    score +1.0000
  shape 26  axial_crush    score +1.0000
  shape 20  axial_crush    score +1.0000
  shape 29  axial_crush    score +1.0000
  shape 21  axial_crush    score +1.0000
  shape 23  axial_crush    score +1.0000
  shape 24  axial_crush    score +0.9999
  shape 22  axial_crush    score +0.9999
  shape 28  axial_crush    score +0.9998
precision@10 for 'axial_crush': 10/10

k-means on first-eigenvector xyz coefficients (k = 3):
  cluster 0: {'axial_crush': 10}
  cluster 1: {'upward_bend': 10}
  cluster 2: {'downward_bend': 10}
label purity: 30/30
""",
}


@pytest.mark.parametrize("demo", sorted(EXPECTED))
def test_demo_prints_its_recorded_output(demo):
    src = str(Path(sd.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(REPO / "demos" / demo)],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": path})
    assert run.returncode == 0, run.stderr
    assert run.stdout == EXPECTED[demo]
