"""Unrolling a swiss roll: a 3-d manifold flattened to a certified rank-2 map.

After standardization, a small bandwidth makes the kernel follow the surface
rather than the ambient distance, and the optimum comes out rank 2 -- the
intrinsic dimension of the roll -- with the angular parameter recoverable
from the first coordinate.
"""

import numpy as np

from sdpembed import embed_points, gen_swiss_roll, standardize

raw = gen_swiss_roll(500, seed=3)
angle = np.hypot(raw.points[:, 0], raw.points[:, 2])  # unrolled parameter
ds = standardize(raw)
print(f"swiss roll: {ds.n_points} points in R^3, standardized")

result = embed_points(ds.points, sigma=0.3)
emb = result.embedding
print(f"rank {emb.rank}, certified {result.certificate.is_certified}, "
      f"converged {result.factor.converged} after {result.factor.iterations} iterations")
print("singular values:", np.round(emb.singular_values[:4], 5))

# the first embedding coordinate should track the roll angle monotonically
order = np.argsort(angle)
corr = np.corrcoef(angle, emb.Xi[:, 0])[0, 1]
print(f"correlation of coordinate 1 with the roll angle: {corr:+.3f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig = plt.figure(figsize=(9, 4))
    ax = fig.add_subplot(1, 2, 1, projection="3d")
    ax.scatter(*raw.points.T, c=angle, s=6, cmap="viridis")
    ax.set_title("input roll (color = angle)")
    ax2 = fig.add_subplot(1, 2, 2)
    ax2.scatter(emb.Xi[:, 0], emb.Xi[:, 1], c=angle, s=6, cmap="viridis")
    ax2.set_title("SDP embedding")
    ax2.set_aspect("equal")
    fig.tight_layout()
    fig.savefig("swiss_roll_embedding.png", dpi=120)
    print("wrote swiss_roll_embedding.png")
except ImportError:
    print("matplotlib not available; skipping the figure")
