"""Compress a deformed beam into a handful of spectral coefficients.

Walks the core pipeline on a small synthetic beam: build the cotangent
Laplacian of the undeformed base, take its low-frequency eigenbasis, project
a crushed copy of the beam onto it, select the few coefficients that carry
the deformation, and compare the descriptor-subset reconstruction against
simply keeping the same number of lowest-frequency modes.

Run:  python3 demos/compress_and_reconstruct.py
"""

import numpy as np

import spectral_deform as sd

# a coarse hat-section beam keeps the eigensolve instant (N = 500)
params = sd.BeamParams(axial_segments=24, section_segments=4)
base = sd.generate_hat_beam(params)
print(f"base beam: {base.n_vertices} vertices, {base.n_triangles} triangles")

# crush it off-center, with a little measurement noise
spec = sd.DeformationSpec("axial_crush", amplitude=20.0, location=0.35,
                          noise_sigma=0.5)
coords = sd.apply_deformation(base, spec, seed=1)

# spectral basis of the *base* geometry; 60 modes is plenty here
L = sd.cotangent_laplacian(base)
basis = sd.eigendecompose(L, 60, operator_fingerprint=sd.operator_fingerprint(L))
coeffs = sd.encode_geometry(basis, coords)

# pick coefficients more than one standard deviation above the mean magnitude
t = sd.statistical_threshold(coeffs)
indices = sd.select_by_threshold(coeffs, t)
desc = sd.complete_descriptor(indices, coeffs, augment=True, threshold=t,
                              label="axial crush @ 0.35")
print(f"threshold t = {t:.3f} -> descriptor keeps {desc.size_m} of "
      f"{basis.m} eigenvectors: {desc.indices.tolist()}")

# descriptor subset vs. the same budget spent on the lowest frequencies
reference = sd.reconstruct_geometry(basis, coeffs, None)
e_desc = sd.reconstruction_error(basis, coeffs, desc.indices, reference)
e_low = sd.reconstruction_error(basis, coeffs, np.arange(desc.size_m), reference)
print(f"RMS error, descriptor subset : {e_desc:8.3f}")
print(f"RMS error, lowest {desc.size_m} modes    : {e_low:8.3f}")
print("the adaptively chosen subset wins" if e_desc <= e_low
      else "unexpected: ordered subset won")

# if a target error is known, the threshold can be tuned for it
target = 0.5 * e_desc
t2, desc2, achieved = sd.tune_threshold(coeffs, basis, target, augment=True)
print(f"tuned for RMS <= {target:.3f}: t = {t2:.3f}, "
      f"{desc2.size_m} eigenvectors, achieved {achieved:.3f}")
