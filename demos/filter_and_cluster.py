"""Retrieve and group deformed shapes by their spectral descriptors.

Generates a labeled bundle of 30 deformed beams (upward bends, downward
bends, axial crushes), encodes every state into the shared eigenbasis of the
base beam, then:

  1. builds a descriptor from one crushed shape and ranks the whole bundle
     by cosine similarity against it, and
  2. clusters all shapes on their first-eigenvector xyz coefficients and
     compares the clusters with the known labels.

Run:  python3 demos/filter_and_cluster.py
"""

import numpy as np

import spectral_deform as sd

params = sd.BeamParams(axial_segments=24, section_segments=4)
bundle = sd.generate_bundle(params, n_per_mode=(10, 10, 10), seed=3)
labels = np.array(bundle.labels)
print(f"bundle: {len(bundle.states)} states, N = {bundle.base.n_vertices}")

L = sd.cotangent_laplacian(bundle.base)
basis = sd.eigendecompose(L, 60, operator_fingerprint=sd.operator_fingerprint(L))
# bundle.states is one (S, N, 3) array; each row is one shape's coordinates
coeffs = [sd.encode_geometry(basis, coords) for coords in bundle.states]

# --- similarity filtering -------------------------------------------------
probe = 25  # one of the axial-crush states
desc = sd.build_descriptor(coeffs[probe], augment=True, label=str(labels[probe]))
print(f"\nprobe shape {probe} ({labels[probe]}), "
      f"descriptor size {desc.size_m}")

ranking = sd.rank_bundle(desc, coeffs)
print("top 10 by cosine similarity:")
for shape_id, score in list(ranking)[:10]:
    print(f"  shape {shape_id:2d}  {labels[shape_id]:13s}  score {score:+.4f}")

top10 = sd.filter_bundle(desc, coeffs, top_k=10)
hits = int(np.sum(labels[top10] == labels[probe]))
print(f"precision@10 for '{labels[probe]}': {hits}/10")

# --- clustering -----------------------------------------------------------
assign = sd.cluster_coefficients(coeffs, 3, feature="first_eigenvector_xyz",
                                 seed=0)
print("\nk-means on first-eigenvector xyz coefficients (k = 3):")
purity = 0
for c in range(3):
    members = labels[assign.labels == c]
    counts = {m: int(np.sum(members == m)) for m in sd.MODES if m in members}
    purity += max(counts.values())
    print(f"  cluster {c}: {counts}")
print(f"label purity: {purity}/{len(labels)}")
