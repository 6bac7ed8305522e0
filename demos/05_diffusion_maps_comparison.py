"""Side by side: spectral-truncation diffusion maps vs. the SDP embedding.

Both start from the same random-walk normalization of a Gaussian kernel.
Diffusion maps keep the top eigenvectors, weighted by eigenvalue powers, and
obey an exact isometry: Euclidean distance in the full map equals the
diffusion distance.  The SDP route instead fixes each point's embedding
radius and lets a certificate confirm global optimality; its rank is an
output, not a choice.
"""

import numpy as np

from sdpembed import (
    diffusion_map,
    embed_points,
    gaussian_gram,
    gen_three_clusters,
    spectral_basis,
)
from sdpembed.diagnostics import diffusion_distance

ds = gen_three_clusters(100, 0, seed=12345)
basis = spectral_basis(gaussian_gram(ds.points, 1.5))

print("top diffusion eigenvalues:", np.round(basis.eigenvalues[:6], 4))
print("two eigenvalues close to 1 with a gap after them: a favorable case "
      "for keeping m = 2 coordinates")

dm = diffusion_map(basis, t=1.0, m=2)
i, j = 0, 250
print(f"\nisometry check at points ({i}, {j}):")
for t in (1.0, 3.0):
    full_t = diffusion_map(basis, t=t, m=ds.n_points - 1)
    dm_t = diffusion_map(basis, t=t, m=2)
    print(f"  t = {t}: diffusion distance {diffusion_distance(basis, t, i, j):.8f} "
          f"= full-map distance {np.linalg.norm(full_t[i] - full_t[j]):.8f}; "
          f"m=2 truncation gives {np.linalg.norm(dm_t[i] - dm_t[j]):.8f}")
print("  larger t damps the tail modes, so the m = 2 truncation tightens")

result = embed_points(ds.points, sigma=1.5)
print(f"\nSDP embedding: rank {result.embedding.rank} (chosen by the optimum itself), "
      f"certified {result.certificate.is_certified}")
radii = np.linalg.norm(result.embedding.Xi, axis=1)
print(f"embedding radii in [{radii.min():.4f}, {radii.max():.4f}] "
      "(= sqrt of the kernel diagonal, by the rigidity constraint)")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 3, figsize=(13, 4))
    axes[0].scatter(*ds.points.T, c=ds.labels, s=8, cmap="tab10")
    axes[0].set_title("input")
    axes[1].scatter(dm[:, 0], dm[:, 1], c=ds.labels, s=8, cmap="tab10")
    axes[1].set_title("diffusion map (t = 1, m = 2)")
    Xi = result.embedding.Xi
    axes[2].scatter(Xi[:, 0], Xi[:, 1], c=ds.labels, s=8, cmap="tab10")
    axes[2].set_title("SDP embedding")
    for ax in axes[1:]:
        ax.set_aspect("equal")
    fig.tight_layout()
    fig.savefig("comparison.png", dpi=120)
    print("\nwrote comparison.png")
except ImportError:
    print("\nmatplotlib not available; skipping the figure")
