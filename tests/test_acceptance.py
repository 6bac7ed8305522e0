"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines live.

Criterion 3 checks the sigma = 1 sign result on the odd 201-point interval
grid as it holds there.  The grid contains x = 0, whose kernel row is even and
cancels against the odd sign vector, so the certified optimum has rank 2: an
odd chi1 that follows sign(x) and vanishes at x = 0, plus an even chi2 that
carries the midpoint, chi2(0)^2 = K(0, 0).  The rank-one sign formula is a
critical point there that the certificate rejects.  The even-grid case, where
the optimum is the rank-one sign formula to 1e-8, lives in
tests/test_interval.py.
"""

import time

import numpy as np
import pytest

from sdpembed import (
    SolverConfig,
    check_optimality,
    diffusion_map,
    embed_points,
    extend_points,
    factor_to_embedding,
    gaussian_gram,
    gen_three_clusters,
    objective,
    run_interval_experiment,
    sign_solution,
    solve,
    spectral_basis,
)
from sdpembed.diagnostics import (
    bordered_matrix,
    check_volume_inequalities,
    diffusion_distance,
    extension_row,
    mean_value_check,
)
from sdpembed.solver import _unit_rows, init_factor

from conftest import C, CLUSTER_SEED, tight_config


def _verdict(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_1_two_point_closed_form():
    """Closed-form two-point pipeline, checked against a brute-force oracle."""
    start = time.perf_counter()
    result = embed_points(np.array([[0.0], [1.0]]), 1.0, config=tight_config(r0=2))
    elapsed = time.perf_counter() - start

    # brute-force oracle: the only free entry is rho_12 in [-c, c]
    K = result.kernel.K
    grid = np.linspace(-C, C, 20001)
    objectives = [np.sum(K * np.array([[C, t], [t, C]])) for t in grid]
    best = int(np.argmax(objectives))
    assert grid[best] == pytest.approx(-C, abs=1e-4)
    assert objectives[best] == pytest.approx(4 * C**2, abs=1e-7)

    emb, cert = result.embedding, result.certificate
    checks = {
        "rank 1": emb.rank == 1,
        "chi1": np.allclose(np.abs(emb.Xi.ravel()), np.sqrt(C), atol=1e-8)
        and emb.Xi[0, 0] * emb.Xi[1, 0] < 0,
        "objective 4c^2": abs(result.factor.objective - 4 * C**2) < 1e-8,
        "L eigenvalues {0, 2c}": np.allclose(
            cert.least_eigenvalues, [0.0, 2 * C], atol=1e-8
        ),
        "duality gap 0": abs(cert.duality_gap) < 1e-8,
        "certified": cert.is_certified,
        "runtime < 0.1 s": elapsed < 0.1,
    }
    ok = _verdict(1, all(checks.values()), f"two-point closed form ({elapsed:.3f} s)")
    assert ok, {k: v for k, v in checks.items() if not v}


def test_criterion_2_nonnegative_kernel_trivial_solution():
    """Entrywise-nonnegative kernels converge to the rank-one trivial solution."""
    rng = np.random.default_rng(7)
    fixtures = [rng.uniform(0.0, 1.0, (4, 4)) for _ in range(5)]
    kernels = [A @ A.T for A in fixtures] + [np.array([[1.0, 0.5], [0.5, 1.0]])]
    start = time.perf_counter()
    worst_dev, all_certified = 0.0, True
    for i, K in enumerate(kernels):
        cfg = tight_config(r0=min(4, K.shape[0]), seed=i)
        state = solve(K, cfg)
        emb = factor_to_embedding(state.H_Xi)
        rho = emb.H_Xi @ emb.H_Xi.T
        root = np.sqrt(np.diag(K))
        worst_dev = max(worst_dev, float(np.max(np.abs(rho - np.outer(root, root)))))
        all_certified &= check_optimality(K, emb.H_Xi).is_certified
    elapsed = time.perf_counter() - start
    checks = {
        "entrywise 1e-6": worst_dev <= 1e-6,
        "all certified": all_certified,
        "runtime < 1 s": elapsed < 1.0,
    }
    ok = _verdict(
        2, all(checks.values()),
        f"nonnegative-kernel trivial solution, worst deviation {worst_dev:.2e} ({elapsed:.2f} s)",
    )
    assert ok, {k: v for k, v in checks.items() if not v}


def test_criterion_3_interval_sign_solution_odd_grid():
    """Interval at sigma = 1 on the n = 201 grid vs. the rank-one sign solution.

    The 201-point grid contains x = 0, whose kernel row K(0, .) is even while
    the sign vector is odd, so their pairing cancels exactly.  Feasibility
    still forces rho(0, 0) = K(0, 0) = 8.395e-4, and the certified optimum
    carries it in a second, even coordinate.  The criterion checks that
    optimum:

    (a) rank 2, certified and converged;
    (b) chi1 odd (measured 4e-15), chi1(0) = 0, sign(chi1) = sign(x) at every
        other node;
    (c) chi2 even (8e-17) with chi2(0)^2 = K(0, 0);
    (d) the sign formula v = s sqrt(diag K), s(0) = +1, is not certified: its
        slackness is 2e-16 but the least eigenvalue of L is -8.06e-4, and its
        objective 0.2818288587 is 6.9e-7 below the optimum 0.2818295494;
    (e) the deviation from the sign formula is its midpoint row,
        sqrt(K(0, 0) max K(x, x)): 2.566e-3 vs 2.561e-3, and the same to 0.2%
        at n = 401 and 801;
    (f) outside row and column x = 0 the deviation is 1.23e-5.

    The even 200-point grid has no node at zero, and there the optimum is the
    sign formula to 1e-8
    (tests/test_interval.py::test_sigma_one_even_grid_is_exact_sign_solution).
    """
    start = time.perf_counter()
    report, result = run_interval_experiment(201, 1.0, cfg=tight_config())
    elapsed = time.perf_counter() - start

    K, x, mid = result.kernel.K, result.kernel.points[:, 0], 100
    Xi = result.embedding.Xi
    chi1 = Xi[:, 0]
    chi2 = Xi[:, 1] if Xi.shape[1] > 1 else np.zeros_like(chi1)
    off = x != 0
    v = sign_solution(result.kernel)
    sign_formula = check_optimality(K, v)
    midpoint_row = np.sqrt(K[mid, mid] * np.max(np.diag(K)))
    rho = result.embedding.H_Xi @ result.embedding.H_Xi.T
    deviation = np.abs(rho - v @ v.T)
    off_midpoint = float(np.max(np.delete(np.delete(deviation, mid, 0), mid, 1)))
    checks = {
        "rank 2": report.rank == 2,
        "certified": report.certified,
        "converged": report.converged,
        "chi1 odd": np.max(np.abs(chi1 + chi1[::-1])) <= 1e-8,
        "chi1(0) = 0": abs(chi1[mid]) <= 1e-8,
        "sign(chi1) = +-sign(x)": abs(np.sum(np.sign(chi1[off]) * np.sign(x[off])))
        == np.sum(off),
        "chi2 even": np.max(np.abs(chi2 - chi2[::-1])) <= 1e-8,
        "chi2(0)^2 = K(0,0)": abs(chi2[mid] ** 2 / K[mid, mid] - 1.0) <= 1e-8,
        "sign formula not certified": not sign_formula.is_certified,
        "sign formula below optimum": sign_formula.objective < report.objective,
        "residual = midpoint row (1%)": abs(report.sign_residual / midpoint_row - 1.0)
        <= 0.01,
        "off-midpoint deviation <= 1e-4": off_midpoint <= 1e-4,
        "runtime < 30 s": elapsed < 30.0,
    }
    ok = _verdict(
        3, all(checks.values()),
        f"sigma=1 n=201: residual {report.sign_residual:.2e}, rank {report.rank}, "
        f"certified {report.certified} ({elapsed:.1f} s); the odd grid keeps a "
        f"certified midpoint mode of size K(0,0) = {K[mid, mid]:.2e}; "
        f"the sign formula has least L eigenvalue "
        f"{sign_formula.least_eigenvalues[0]:.2e}, off-midpoint deviation "
        f"{off_midpoint:.2e}; see the docstring",
    )
    assert ok, {k: v for k, v in checks.items() if not v}


def test_criterion_4_interval_small_bandwidth():
    """Interval at sigma = 0.1: certified rank 2 with odd/even coordinates."""
    start = time.perf_counter()
    report, _ = run_interval_experiment(201, 0.1, cfg=tight_config())
    elapsed = time.perf_counter() - start
    checks = {
        "rank 2": report.rank == 2,
        "certified": report.certified,
        "chi1 odd": report.parity_residuals["chi1_odd"] <= 1e-6,
        "chi2 even": report.parity_residuals["chi2_even"] <= 1e-6,
        "runtime < 30 s": elapsed < 30.0,
    }
    ok = _verdict(
        4, all(checks.values()),
        f"sigma=0.1 n=201: rank {report.rank}, parity "
        f"{report.parity_residuals['chi1_odd']:.1e}/"
        f"{report.parity_residuals['chi2_even']:.1e} ({elapsed:.1f} s)",
    )
    assert ok, {k: v for k, v in checks.items() if not v}


def test_criterion_5_three_clusters_bandwidth_sweep():
    """Rank-2 certified embeddings across bandwidths spanning a factor > 5."""
    ds = gen_three_clusters(100, 8, CLUSTER_SEED)
    assert ds.n_points == 308 and int(np.sum(ds.labels == 3)) == 8
    bandwidths = (2.0, 5.0, 12.5)
    start = time.perf_counter()
    outcomes = {}
    for sigma in bandwidths:
        result = embed_points(ds.points, sigma, config=tight_config())
        outcomes[sigma] = (result.embedding.rank, result.certificate.is_certified)
    elapsed = time.perf_counter() - start
    checks = {
        f"sigma={s}: rank 2 certified": outcomes[s] == (2, True) for s in bandwidths
    }
    checks["span >= 5"] = max(bandwidths) / min(bandwidths) >= 5.0
    checks["runtime < 60 s"] = elapsed < 60.0
    ok = _verdict(
        5, all(checks.values()),
        f"clusters+outliers at sigma {bandwidths}: {outcomes} ({elapsed:.1f} s)",
    )
    assert ok, {k: v for k, v in checks.items() if not v}


def test_criterion_6_restriction_suite(two_point, cluster_pipeline, interval_results):
    """Extension at every training point reproduces the stored coordinates."""
    fixtures = {
        "two-point": two_point,
        "clusters sigma=5": cluster_pipeline,
        "interval sigma=0.1": interval_results(201, 0.1)[1],
        "interval sigma=1": interval_results(201, 1.0)[1],
    }
    worst = 0.0
    for name, result in fixtures.items():
        assert result.certificate.is_certified, f"{name} fixture must be certified"
        Xi = result.embedding.Xi
        for i in range(Xi.shape[0]):
            p = extend_points(result.kernel, Xi, [result.kernel.points[i]])
            assert not p.degenerate[0], f"{name}: training point {i} degenerate"
            worst = max(worst, float(np.max(np.abs(p.coords[0] - Xi[i]))))
    ok = _verdict(6, worst <= 1e-8, f"restriction to training points, worst {worst:.2e}")
    assert ok


def test_criterion_7_property_suites(random_pipelines):
    """Randomized property suites, >= 100 trials each, seeds logged."""
    suites = {}

    # rigidity, mean value, Pataki, dual-form equivalence, extension
    # trichotomy: one certified random pipeline per trial
    rigidity = mean_value = pataki = dual_form = trichotomy = 0.0
    certified = 0
    for trial, result in random_pipelines:
        emb, K = result.embedding, result.kernel.K
        assert result.certificate.is_certified, f"trial {trial} failed to certify"
        certified += 1
        diag = np.diag(K)
        rigidity = max(
            rigidity, float(np.max(np.abs(np.einsum("ij,ij->i", emb.Xi, emb.Xi) - diag)))
        )
        mean_value = max(mean_value, mean_value_check(K, emb))
        pataki = max(pataki, emb.rank * (emb.rank + 1) / 2 - K.shape[0])

        rng = np.random.default_rng(500 + trial)
        # dual-form equivalence of the extended kernel at a random probe pair
        pts = result.kernel.points
        x, y = (pts[rng.integers(len(pts))] + 0.3 * rng.standard_normal(pts.shape[1])
                for _ in range(2))
        rho = emb.Xi @ emb.Xi.T
        rx, ry = extension_row(result.kernel, x), extension_row(result.kernel, y)
        qx, qy = rx.kvec @ rho @ rx.kvec, ry.kvec @ rho @ ry.kvec
        if qx > 0 and qy > 0:
            px = extend_points(result.kernel, emb.Xi, [x])
            py = extend_points(result.kernel, emb.Xi, [y])
            if not (px.degenerate[0] or py.degenerate[0]):
                double_sum = (
                    np.sqrt(rx.kappa / qx) * np.sqrt(ry.kappa / qy) * (rx.kvec @ rho @ ry.kvec)
                )
                dual_form = max(dual_form, abs(float(px.coords[0] @ py.coords[0]) - double_sum))

        # extension trichotomy: in-range b at s_min and below, out-of-range b
        coeffs = rng.standard_normal(emb.rank)
        b = emb.Xi @ coeffs
        s_min = float(coeffs @ coeffs)
        eig_at = np.linalg.eigvalsh(bordered_matrix(rho, b, s_min))[0]
        trichotomy = max(trichotomy, -float(eig_at) - 1e-10)
        if s_min > 1e-12:
            eig_below = np.linalg.eigvalsh(bordered_matrix(rho, b, 0.9 * s_min))[0]
            assert eig_below < 0, f"trial {trial}: p.s.d. below s_min"
        if emb.rank < K.shape[0]:
            q = rng.standard_normal(K.shape[0])
            q -= emb.Xi @ ((emb.Xi.T @ q) / np.einsum("ij,ij->j", emb.Xi, emb.Xi))
            if np.linalg.norm(q) > 1e-8:
                for s in (1.0, 10.0, 100.0):
                    assert np.linalg.eigvalsh(bordered_matrix(rho, q, s))[0] < 0

    suites["rigidity <= 1e-8"] = rigidity <= 1e-8
    suites["mean value <= 1e-8"] = mean_value <= 1e-8
    suites["Pataki bound"] = pataki <= 0
    suites["dual-form equivalence <= 1e-10"] = dual_form <= 1e-10
    suites["extension trichotomy"] = trichotomy <= 0
    suites["all certified"] = certified == 100

    # degree-volume inequalities, 100 fresh clouds with probes
    worst_slack = 0.0
    for trial in range(100):
        rng = np.random.default_rng(31000 + trial)
        pts = rng.standard_normal((int(rng.integers(2, 40)), int(rng.integers(1, 4))))
        base = gaussian_gram(pts * rng.uniform(0.3, 2.0), float(rng.uniform(0.3, 3.0)))
        report = check_volume_inequalities(base, rng.standard_normal((5, pts.shape[1])))
        worst_slack = min(worst_slack, report.worst_slack)
    suites["degree-volume inequalities >= -1e-12"] = worst_slack >= -1e-12

    # monotone objective along manual iterates, 100 random p.s.d. couplings
    monotone_ok = True
    for trial in range(100):
        rng = np.random.default_rng(32000 + trial)
        n = int(rng.integers(4, 16))
        A = rng.standard_normal((n, n))
        J = A @ A.T
        cfg = SolverConfig(r0=4, seed=trial)
        H = init_factor(n, cfg)
        energy = objective(J, H)
        for _ in range(60):
            H = _unit_rows(J @ H, None)
            new_energy = objective(J, H)
            monotone_ok &= new_energy >= energy - 1e-12 * max(1.0, abs(new_energy))
            energy = new_energy
    suites["monotone objective (1e-12)"] = monotone_ok

    # diffusion-map isometry, 100 random clouds
    isometry = 0.0
    for trial in range(100):
        rng = np.random.default_rng(33000 + trial)
        n = int(rng.integers(5, 18))
        basis = spectral_basis(
            gaussian_gram(rng.standard_normal((n, 2)), float(rng.uniform(0.8, 2.0)))
        )
        t = float(rng.uniform(0.5, 3.0))
        coords = diffusion_map(basis, t=t, m=n - 1)
        i, j = rng.integers(0, n, 2)
        spectral = float(np.linalg.norm(coords[i] - coords[j]))
        isometry = max(isometry, abs(diffusion_distance(basis, t, i, j) - spectral))
    suites["diffusion isometry <= 1e-8"] = isometry <= 1e-8

    print("\n[criterion 7] sub-suites (100 trials each, base seeds 20240/31000/32000/33000):")
    for name, passed in suites.items():
        print(f"    {'PASS' if passed else 'FAIL'}: {name}")
    ok = _verdict(7, all(suites.values()), "randomized property suites")
    assert ok, {k: v for k, v in suites.items() if not v}


def test_criterion_8_desk_scale_substitutes():
    """Stand-ins for the excluded large-scale runs.

    The unspecified favorable dataset is replaced by the qualitative
    spectral-gap check; the 2001-per-axis grid by a grid-stability property
    (the effective rank is identical across three grid resolutions at both
    bandwidths).
    """
    ds = gen_three_clusters(100, 0, CLUSTER_SEED)
    basis = spectral_basis(gaussian_gram(ds.points, 1.5))
    gap_ok = (
        basis.eigenvalues[1] > 0.9
        and basis.eigenvalues[2] > 0.9
        and basis.eigenvalues[3] < 0.5
    )

    ranks = {}
    for sigma in (0.1, 1.0):
        for n in (101, 201, 401):
            ranks[(sigma, n)] = run_interval_experiment(n, sigma, cfg=tight_config())[0].rank
    stability_ok = all(
        len({ranks[(s, n)] for n in (101, 201, 401)}) == 1 for s in (0.1, 1.0)
    )
    checks = {"qualitative spectral gap": gap_ok, "grid-rank stability": stability_ok}
    ok = _verdict(
        8, all(checks.values()),
        f"desk-scale substitutes: eigenvalues {np.round(basis.eigenvalues[:4], 3)}, "
        f"ranks {ranks}",
    )
    assert ok, {k: v for k, v in checks.items() if not v}
