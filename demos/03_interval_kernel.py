"""The SDP on a discretized interval: rank vs. bandwidth, and the sigma = 1
rank-one sign structure.

Small bandwidths keep two smooth coordinates (one odd, one even under
x -> -x).  By sigma = 1 the optimum collapses to the rank-one matrix
sign(x) sqrt(K(x,x)) sign(y) sqrt(K(y,y)) -- exactly so on grids without a
node at x = 0.  A grid containing x = 0 keeps one extra certified mode of
size K(0, 0) ~ 1/n there, because the midpoint's (even) kernel row pairs to
zero with the (odd) sign vector; this demo shows both grids side by side.
"""

from sdpembed import SolverConfig, run_interval_experiment

cfg = SolverConfig(tol_conv=1e-13)

print("rank of the certified optimum vs. bandwidth (n = 200):")
for sigma in (0.1, 0.4, 0.7, 1.0):
    report, _ = run_interval_experiment(200, sigma, cfg=cfg)
    parity = ", ".join(f"{k} {v:.1e}" for k, v in report.parity_residuals.items())
    print(f"  sigma = {sigma:>4}: rank {report.rank}, certified {report.certified}, "
          f"parity residuals: {parity}")

print("\nsigma = 1, even grid (no node at zero):")
even, _ = run_interval_experiment(200, 1.0, cfg=cfg)
print(f"  rank {even.rank}, max deviation from the sign solution: "
      f"{even.sign_residual:.2e}  (rank-one sign structure, exact)")

print("\nsigma = 1, odd grid (node at zero):")
odd, odd_result = run_interval_experiment(201, 1.0, cfg=cfg)
K_mid = odd_result.kernel.K[100, 100]
print(f"  rank {odd.rank}, max deviation from the sign solution: "
      f"{odd.sign_residual:.2e}")
print(f"  the deviation tracks the midpoint diagonal K(0,0) = {K_mid:.2e}: "
      "the x = 0 node carries its own certified mode")
