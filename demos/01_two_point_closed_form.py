"""Walk through the entire pipeline on the smallest nontrivial input.

Two points at distance 1 with bandwidth 1 admit closed forms for every stage:
the centered kernel is c*[[1,-1],[-1,1]] with c = (1-e^-1)/(2(1+e^-1)), the
SDP optimum is rho* = c*[[1,-1],[-1,1]] with objective 4c^2, the dual
certificate is c*ones with eigenvalues {0, 2c}, and the embedding is the pair
+-sqrt(c) on the line.
"""

import numpy as np

from sdpembed import SolverConfig, embed_points, extend_points

a = np.exp(-1.0)
c = (1.0 - a) / (2.0 * (1.0 + a))
print(f"analytic constant c = (1 - e^-1) / (2 (1 + e^-1)) = {c:.10f}")

result = embed_points(np.array([[0.0], [1.0]]), sigma=1.0, config=SolverConfig(r0=2))

print("\ncentered kernel K:")
print(result.kernel.K)
print(f"matches c*[[1,-1],[-1,1]] exactly: "
      f"{np.allclose(result.kernel.K, c * np.array([[1, -1], [-1, 1]]))}")

print(f"\nsolver objective  : {result.factor.objective:.12f}")
print(f"analytic 4c^2     : {4 * c * c:.12f}")
print(f"iterations        : {result.factor.iterations}")

cert = result.certificate
print(f"\ncertified          : {cert.is_certified}")
print(f"slackness residual : {cert.slackness_residual:.2e}")
print(f"least eigenvalues  : {cert.least_eigenvalues}  (analytic: 0 and 2c = {2 * c:.7f})")
print(f"duality gap bound  : {cert.duality_gap:.2e}  (max(0, -lambda_min(L)) Tr(K), "
      "bounds the distance to the optimum)")

emb = result.embedding
print(f"\nembedding rank    : {emb.rank}")
print(f"coordinates       : {emb.Xi.ravel()}  (analytic: +-sqrt(c) = {np.sqrt(c):.7f})")

# out-of-sample: a point left of the pair gets a definite coordinate, the
# symmetry midpoint has no preferred side and is flagged degenerate
left = extend_points(result.kernel, emb.Xi, [[-0.5]])
mid = extend_points(result.kernel, emb.Xi, [[0.5]])
print(f"\nextension at -0.5 : {left.coords[0]}  (norm^2 = kappa = {left.kappa[0]:.7f})")
print(f"extension at +0.5 : degenerate = {mid.degenerate[0]} (exact symmetry midpoint)")
