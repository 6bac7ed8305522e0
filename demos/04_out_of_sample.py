"""Projected Nystrom extension: train on a third of the data, extend the rest.

The extension needs no re-solve: a new point's kernel row against the
training set is pushed through the embedding and projected onto the sphere of
radius sqrt(K(xbar, xbar)).  On training points the formula reproduces the
stored coordinates exactly; on held-out points it lands them next to their
cluster.  The same machinery extends the learned kernel itself to arbitrary
pairs.
"""

import numpy as np

from sdpembed import embed_points, extend_points, gen_three_clusters
from sdpembed.diagnostics import extend_kernel

ds = gen_three_clusters(100, 8, seed=12345)
rng = np.random.default_rng(0)
train_idx = np.sort(rng.choice(ds.n_points, size=100, replace=False))
test_idx = np.setdiff1d(np.arange(ds.n_points), train_idx)

result = embed_points(ds.points[train_idx], sigma=5.0)
print(f"trained on {len(train_idx)} points: rank {result.embedding.rank}, "
      f"certified {result.certificate.is_certified}")

# sanity: restriction to the training set is exact
copies = extend_points(result.kernel, result.embedding.Xi, ds.points[train_idx])
worst = float(np.max(np.abs(copies.coords - result.embedding.Xi)))
print(f"restriction to training points, worst deviation: {worst:.2e}")

# extend the held-out points and see where each label family lands
coords = extend_points(result.kernel, result.embedding.Xi, ds.points[test_idx]).coords
print("\nheld-out points by label (mean extended position):")
for label in (0, 1, 2, 3):
    mask = ds.labels[test_idx] == label
    name = f"cluster {label}" if label < 3 else "outliers "
    mean = coords[mask].mean(axis=0)
    print(f"  {name}: n = {mask.sum():3d}, mean position ({mean[0]:+.4f}, {mean[1]:+.4f}), "
          f"mean radius {np.linalg.norm(coords[mask], axis=1).mean():.4f}")

# the extended kernel behaves like a similarity: large within a cluster,
# negative across clusters
same = ds.points[ds.labels == 0][:2]
other = ds.points[ds.labels == 1][0]
print(f"\nextended kernel, same cluster     : "
      f"{extend_kernel(result.kernel, result.embedding.Xi, same[0], same[1]):+.6f}")
print(f"extended kernel, different cluster: "
      f"{extend_kernel(result.kernel, result.embedding.Xi, same[0], other):+.6f}")
