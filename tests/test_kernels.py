import sys
import threading
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from sdpembed import (
    build_kernel,
    check_optimality,
    embed_points,
    extend_points,
    gaussian_gram,
    gen_three_clusters,
    save_csv,
)

from sdpembed import kernels
from sdpembed.cli import main
from sdpembed.diagnostics import check_volume_inequalities, extension_row

from conftest import A, C


def _random_base(seed, n=30, d=2, sigma=1.0):
    rng = np.random.default_rng(seed)
    return gaussian_gram(rng.standard_normal((n, d)), sigma)


def _weights(X, points, sigma):
    """All Gaussian weights of ``X`` against ``points`` in one evaluator call."""
    out = np.empty((X.shape[0], points.shape[0]))
    return kernels._gaussian_weights(X, kernels._right_operands(points), sigma, out, np.empty_like(out))


def _reference_weights(X, points, sigma):
    """Oracle evaluator: zero-filled squared distances summed from
    ``subtract.outer`` one dimension at a time."""
    out = np.zeros((X.shape[0], points.shape[0]))
    diff = np.empty_like(out)
    for j in range(points.shape[1]):
        np.subtract.outer(X[:, j], points[:, j], out=diff)
        np.square(diff, out=diff)
        out += diff
    out /= -sigma**2
    return np.exp(out, out=out)


def test_gram_two_points():
    base = gaussian_gram(np.array([[0.0], [1.0]]), 1.0)
    gram = _weights(base.points, base.points, 1.0)
    assert gram[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-15)
    assert np.array_equal(np.diag(gram), [1.0, 1.0])
    assert base.degrees == pytest.approx([1 + A, 1 + A])
    assert base.volume == pytest.approx(2 * (1 + A))


def test_gram_diagonal_is_one():
    # K(i, i) is built from a Gaussian weight of exactly 1
    base = _random_base(0)
    mixed = np.sqrt(base.degrees) * np.sqrt(base.degrees)
    K = build_kernel(base.points, base.sigma).K
    assert np.array_equal(np.diag(K), 1.0 / mixed - mixed / base.volume)


def test_gram_large_bandwidth_limit():
    base = gaussian_gram(np.array([[0.0], [0.5], [1.0]]), 1e6)
    # every weight tends to 1, so K tends to 1/3 - 3/9 = 0
    assert np.allclose(build_kernel(base.points, base.sigma).K, 0.0, atol=1e-10)
    assert np.allclose(base.degrees, 3.0, atol=1e-9)
    assert base.volume == pytest.approx(9.0, abs=1e-8)


def test_translated_points_give_the_same_kernel_and_extension():
    # the paper's clusters on a quarter grid, shifted by 2**24: both sets are
    # exact, and so are their coordinate differences, while the expanded
    # |x|^2 + |y|^2 - 2 x.y needs more than 53 bits at that offset
    grid = np.unique(np.round(gen_three_clusters(100, 8, 12345).points * 4) / 4, axis=0)
    shifted = grid + 2.0**24
    assert np.array_equal(shifted - 2.0**24, grid)
    result = embed_points(shifted, 5.0)
    unshifted = build_kernel(grid, 5.0)
    assert np.array_equal(result.kernel.degrees, unshifted.degrees)
    assert np.array_equal(result.kernel.K, unshifted.K)
    assert result.certificate.is_certified
    copies = extend_points(result.kernel, result.embedding.Xi, shifted)
    radius = np.sqrt(np.diag(result.kernel.K))
    assert np.all(np.linalg.norm(copies.coords - result.embedding.Xi, axis=1) <= 1e-12 * radius)


def test_gram_rejects_bad_input():
    with pytest.raises(ValueError, match="sigma"):
        gaussian_gram(np.zeros((2, 1)), 0.0)
    for sigma in (np.nan, np.inf):
        with pytest.raises(ValueError, match="sigma must be finite"):
            gaussian_gram(np.zeros((2, 1)), sigma)
    with pytest.raises(ValueError, match="non-finite"):
        gaussian_gram(np.array([[np.nan]]), 1.0)
    with pytest.raises(ValueError, match="d >= 1"):
        gaussian_gram(np.zeros((3, 0)), 1.0)


def test_diffusion_kernel_two_point_closed_form():
    dk = build_kernel(np.array([[0.0], [1.0]]), 1.0)
    assert np.allclose(dk.K, C * np.array([[1, -1], [-1, 1]]), atol=1e-15)
    assert C == pytest.approx(0.2310585786, abs=1e-9)


def test_diffusion_kernel_identical_points():
    dk = build_kernel(np.zeros((2, 3)), 1.0)
    assert np.allclose(dk.K, 0.0, atol=1e-15)


def test_kernel_annihilates_root_degrees():
    base = _random_base(1)
    dk = build_kernel(base.points, base.sigma)
    assert np.max(np.abs(dk.K @ np.sqrt(base.degrees))) < 1e-10


def test_kernel_exact_symmetry_and_spectrum():
    # n up to 425 spans several row blocks of K
    for seed in range(5):
        base = _random_base(seed, n=25 + 100 * seed, sigma=float(1.0 + seed))
        dk = build_kernel(base.points, base.sigma)
        assert np.array_equal(dk.K, dk.K.T)
        eigs = np.linalg.eigvalsh(dk.K)
        assert eigs[-1] < 1.0
        assert eigs[0] >= -1e-10 * eigs[-1]


def test_blocked_builds_match_the_whole_matrix_forms(monkeypatch):
    # the degrees summed over row blocks of weights, and K evaluated and
    # normalized in row blocks in one weight pass, are bitwise equal to the
    # whole-matrix forms: 1, 2, 3 and 8 row blocks (N = 1, 308, 425, 700),
    # on both sides of the 8-block threshold for threads, and 16 blocks
    # (N = 1000), which 3 workers share; the weight pass and the
    # normalization pass each start their threads
    for d in (1, 2, 10):
        rng = np.random.default_rng(d)
        sigma = 1.5 * np.sqrt(d)
        for offset in (0.0, 1e6):
            for n in (1, 308, 425, 700, 1000):
                points = rng.standard_normal((n, d)) * 2.0 + offset
                base = gaussian_gram(points, sigma)
                gram = _weights(points, points, sigma)
                degrees = gram.sum(axis=1)
                assert np.array_equal(base.degrees, degrees)
                assert base.volume == float(degrees.sum())
                outer = np.outer(np.sqrt(degrees), np.sqrt(degrees))
                expected = gram / outer - outer / base.volume
                blocks = -(-n // kernels._block_rows(n))
                for workers in (1, 2, 3):
                    started = _count_threads(monkeypatch, workers)
                    dk = kernels.build_kernel(points, sigma)
                    assert len(started) == 2 * (max(1, min(workers, blocks // 4)) - 1)
                    assert np.array_equal(dk.degrees, base.degrees)
                    assert dk.volume == base.volume
                    assert np.array_equal(dk.K, expected)
                assert np.array_equal(kernels.diffusion_kernel(base).K, expected)


def _evaluator_case(d, offset):
    """Training points and new points (the training points first) for the
    bitwise test of the evaluator: 700 random points shifted by ``offset``
    and 260 more, or the special set that ``offset`` names."""
    rng = np.random.default_rng(d)
    if offset == "duplicates":
        # repeated rows and coordinates of both signed zeros: many
        # differences are exactly zero
        points = rng.choice([-0.0, 0.0, 0.5, -1.25, 3.0], (700, d))
        return points, np.vstack([points, points[::-3] * -1.0])
    if offset == "extremes":
        # coordinates near 1e150 beside subnormal ones, whose differences
        # round or vanish; every squared distance stays finite
        pool = np.array([1e150, -1e150, 1.5e150, 5e-324, -5e-324, 2.5e-310, 0.0, -0.0])
        points = rng.choice(pool, (700, d)) * rng.choice([1.0, 1.0 + 2**-40], (700, d))
        points[::4] = rng.standard_normal((175, d))
        return points, np.vstack([points, rng.permutation(points)[:260]])
    if offset == "one-point":
        points = rng.standard_normal((1, d))
        return points, np.vstack([points, rng.standard_normal((260, d))])
    points = rng.standard_normal((700, d)) * 2.0
    if offset == "one-row-block":
        # the last row block holds one row
        rows = kernels._block_rows(700)
        return points, np.vstack([points, rng.standard_normal((rows - 700 % rows + 1, d))])
    points += offset
    return points, np.vstack([points, rng.standard_normal((260, d)) * 2.0 + offset])


@pytest.mark.parametrize(
    "d, offset",
    [
        (1, 0.0),
        (2, 0.0),
        (3, 0.0),
        (10, 0.0),
        (2, 1e6),
        (10, 1e6),
        (2, "duplicates"),
        (3, "extremes"),
        (2, "one-point"),
        (2, "one-row-block"),
    ],
)
def test_weights_match_the_reference_evaluator_bitwise(d, offset):
    # the training points take several row blocks, the last one shorter,
    # except for the one-point set, whose new points fit one block
    points, X = _evaluator_case(d, offset)
    n, m = points.shape[0], X.shape[0]
    expected = _reference_weights(X, points, 1.3)
    sizes = []

    def check(start, stop, weights):
        assert np.array_equal(weights, expected[start:stop])
        sizes.append(stop - start)

    kernels._map_blocks(X, points, 1.3, check)
    rows = kernels._block_rows(n)
    assert sorted(sizes) == sorted(min(rows, m - start) for start in range(0, m, rows))
    if n > 1:
        assert len(sizes) > 2 and min(sizes) < max(sizes) == rows
    if offset == "one-row-block":
        assert min(sizes) == 1
    assert np.array_equal(_weights(X[:1], points, 1.3), expected[:1])
    assert np.array_equal(_weights(X, points, 1.3), expected)
    # k(x, x) == 1 and k(x, y) == k(y, x) bit for bit across the row blocks
    gram = expected[:n]
    assert np.array_equal(np.diag(gram), np.ones(n))
    assert np.array_equal(gram, gram.T)


def test_weights_allocate_no_block_sized_buffer():
    rng = np.random.default_rng(0)
    points = rng.standard_normal((2000, 2))
    operands = kernels._right_operands(points)
    X = points[:32].copy()
    out, scratch = np.empty((32, 2000)), np.empty((32, 2000))
    tracemalloc.start()
    try:
        kernels._gaussian_weights(X, operands, 1.0, out, scratch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * out.nbytes


def _count_threads(monkeypatch, cores, delay=0.0):
    """Patch the block runner to see ``cores`` CPUs, its threads to begin
    work ``delay`` seconds late; return a list that records each thread it
    starts."""
    started = []

    class Thread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

        def run(self):
            time.sleep(delay)
            super().run()

    monkeypatch.setattr(kernels, "_cores", lambda: cores)
    monkeypatch.setattr(kernels, "threading", SimpleNamespace(Thread=Thread))
    return started


def test_each_kernel_build_evaluates_every_weight_once(clusters, monkeypatch, tmp_path):
    # the degrees come from the rows of K, not from a pass of their own
    counts = []
    evaluate = kernels._gaussian_weights

    def spy(X, operands, sigma, out, scratch):
        counts.append(out.size)
        return evaluate(X, operands, sigma, out, scratch)

    monkeypatch.setattr(kernels, "_gaussian_weights", spy)
    embed_points(clusters.points, 5.0)
    assert sum(counts) == 308**2
    save_csv(clusters, tmp_path / "train.csv")
    assert main(["embed", str(tmp_path / "train.csv"), "--sigma", "5", "--out", str(tmp_path)]) == 0
    counts.clear()
    assert main(["certify", str(tmp_path / "embedding.json"), "--out", str(tmp_path)]) == 0
    assert sum(counts) == 308**2


def _multi_block_set(name):
    """Training points, sigma and new points that take many row blocks."""
    if name == "d10":
        points, sigma = np.random.default_rng(10).standard_normal((700, 10)) * 2.0, 1.3
    else:
        points, sigma = gen_three_clusters(664, 8, 3).points, 5.0
    rng = np.random.default_rng(1)
    X = rng.uniform(points.min(axis=0), points.max(axis=0), (3000, points.shape[1]))
    X[::50] = points[rng.choice(points.shape[0], 60, replace=False)]
    return points, sigma, X


@pytest.mark.parametrize("name", ["d10", "clusters_2k"])
def test_one_and_two_workers_give_the_same_bits(name, monkeypatch):
    points, sigma, X = _multi_block_set(name)
    Xi = np.random.default_rng(2).standard_normal((points.shape[0], 3)) * 0.1
    results = {}
    for workers in (1, 2):
        started = _count_threads(monkeypatch, workers)
        base = gaussian_gram(points, sigma)
        ext = extend_points(base, Xi, X)
        K = build_kernel(base.points, base.sigma).K
        # the degrees, the extension and both passes of K each start one
        # thread with 2 workers
        assert len(started) == 4 * (workers - 1)
        results[workers] = (base.degrees, base.volume, K, ext.coords, ext.kappa, ext.degenerate)
    for one, two in zip(results[1], results[2]):
        assert np.array_equal(one, two)


def test_more_workers_than_cores_with_fast_switching_give_the_same_bits(monkeypatch):
    # six threads that switch every microsecond write disjoint rows of the
    # shared outputs: a lost or misplaced block changes the bits
    points, sigma, X = _multi_block_set("d10")
    Xi = np.random.default_rng(2).standard_normal((points.shape[0], 2)) * 0.1
    results = {}
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for workers in (1, 6):
            started = _count_threads(monkeypatch, workers)
            base = gaussian_gram(points, sigma)
            ext = extend_points(base, Xi, X)
            K = build_kernel(base.points, base.sigma).K
            with kernels._one_blas_thread():
                product = kernels._degrees_and_product(points, sigma, Xi)
            # the 8 blocks of the degrees, of each pass of K and of the
            # product take 2 threads each, the 33 blocks of new points 6
            assert len(started) == (0 if workers == 1 else 1 + 5 + 2 + 1)
            assert not any(thread.is_alive() for thread in started)
            results[workers] = (base.degrees, K, ext.coords, ext.kappa, ext.degenerate, *product)
    finally:
        sys.setswitchinterval(interval)
    for one, many in zip(results[1], results[6]):
        assert np.array_equal(one, many)


@pytest.mark.parametrize("workers", [2, 3])
def test_failures_in_several_threads_name_the_lowest_row(workers, monkeypatch):
    # blocks are dealt round-robin, so the two failing blocks belong to
    # different threads; the started threads begin late, so the calling
    # thread fails first, and whichever block fails first, the exception of
    # the lower one is raised
    points, sigma, X = _multi_block_set("d10")
    rows = kernels._block_rows(points.shape[0])
    X = X[: 12 * rows]
    # the 1116 points of X as the training set of K: 20 blocks of 58 rows
    k_rows = kernels._block_rows(X.shape[0])
    evaluate, each_block = kernels._gaussian_weights, kernels._each_block
    # (a block of the second thread, a later one of the calling thread), then
    # (a block of the calling thread, a later one of the second thread)
    for low, high in [(workers + 1, 2 * workers), (workers, workers + 1)]:
        started = _count_threads(monkeypatch, workers, delay=0.2)

        def fail(start, stop, weights):
            if start // rows in (low, high):
                raise ValueError(f"block {start // rows}")

        with pytest.raises(ValueError, match=f"^block {low}$"):
            kernels._map_blocks(X, points, sigma, fail)
        assert len(started) == workers - 1
        assert not any(thread.is_alive() for thread in started)

        # the same blocks fail in the weight pass of a build of K, so its
        # normalization pass never starts
        started = _count_threads(monkeypatch, workers, delay=0.2)
        passes = []

        def fail_weights(block, operands, sigma, out, scratch):
            for index in (low, high):
                if np.array_equal(block[0], X[index * k_rows]):
                    raise ValueError(f"block {index}")
            return evaluate(block, operands, sigma, out, scratch)

        def count(*args):
            passes.append(args)
            each_block(*args)

        with monkeypatch.context() as patch:
            patch.setattr(kernels, "_gaussian_weights", fail_weights)
            patch.setattr(kernels, "_each_block", count)
            with pytest.raises(ValueError, match=f"^block {low}$"):
                kernels.build_kernel(X, sigma)
        assert len(passes) == 1
        assert len(started) == workers - 1
        assert not any(thread.is_alive() for thread in started)
    # points with no kernel weight in blocks of different threads: the
    # lower row is named
    far = X.copy()
    far[[3 * rows + 5, 6 * rows + 7]] = 1e3
    with pytest.raises(ValueError, match=f"index {3 * rows + 5} has no kernel weight"):
        extend_points(gaussian_gram(points, sigma), np.ones((points.shape[0], 1)), far)


def test_a_thread_without_its_buffer_raises(monkeypatch):
    # the second thread cannot allocate its buffer: its blocks are never
    # written, so the runner must raise rather than return
    started = _count_threads(monkeypatch, 2)
    main, empty = threading.main_thread(), np.empty

    def spare(size):
        if threading.current_thread() is not main:
            raise MemoryError("no buffer")
        return empty(size)

    monkeypatch.setattr(kernels, "np", SimpleNamespace(empty=spare))
    ran = []
    with pytest.raises(MemoryError, match="no buffer"):
        kernels._each_block(80, 10, 5, lambda start, stop, buffer: ran.append(start))
    assert sorted(ran) == [0, 20, 40, 60]
    assert len(started) == 1 and not started[0].is_alive()


def test_kernel_of_the_paper_points_starts_no_thread(clusters, monkeypatch):
    # two row blocks at N = 308, and three for each product with K: threads
    # would cost more than they save
    started = _count_threads(monkeypatch, 64)
    build_kernel(clusters.points, 1.0)
    embed_points(clusters.points, 1.0)
    assert started == []


def _blas_or_skip():
    """The thread-count functions of numpy's bundled OpenBLAS."""
    blas = kernels._openblas()
    if blas is None:
        pytest.skip("numpy does not bundle OpenBLAS here")
    return blas


def test_one_blas_thread_nests_and_restores_the_callers_count():
    get, set_ = _blas_or_skip()
    before = get()
    try:
        set_(2)
        two = get()
        with kernels._one_blas_thread():
            assert get() == 1
            with pytest.raises(ValueError, match="inner"):
                with kernels._one_blas_thread():
                    raise ValueError("inner")
            # only the outermost exit restores
            assert get() == 1
        assert get() == two
        with pytest.raises(ValueError, match="outer"):
            with kernels._one_blas_thread():
                raise ValueError("outer")
        assert get() == two and kernels._hold["depth"] == 0
    finally:
        set_(before)


def test_holds_from_threads_that_switch_every_microsecond(monkeypatch):
    # eight threads enter and leave nested holds at once, each sleeping
    # while it reads the caller's count and while it holds: a lost update
    # of the depth would restore the count while another thread still holds
    get, set_ = _blas_or_skip()
    before, interval = get(), sys.getswitchinterval()
    seen = []

    def slow_get():
        time.sleep(1e-4)
        return get()

    def enter_and_leave():
        for _ in range(200):
            with kernels._one_blas_thread():
                with kernels._one_blas_thread():
                    time.sleep(1e-4)
                    seen.append(get())

    monkeypatch.setattr(kernels, "_openblas", lambda: (slow_get, set_))

    try:
        set_(2)
        two = get()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=enter_and_leave) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [1] * 1600
        assert get() == two and kernels._hold["depth"] == 0
    finally:
        sys.setswitchinterval(interval)
        set_(before)


def test_products_with_K_give_the_same_bits_on_one_and_two_cores(monkeypatch):
    rng = np.random.default_rng(4)
    n = 2000
    K = rng.standard_normal((n, n))
    K += K.T
    V = rng.standard_normal((n, 6))
    results = {}
    with kernels._one_blas_thread():
        for cores in (1, 2):
            started = _count_threads(monkeypatch, cores)
            results[cores] = (kernels._times(K, V[:, :2]), kernels._times(K, V))
            # 16 row blocks: each product starts a thread
            assert len(started) == 2 * (cores - 1)
            assert not any(thread.is_alive() for thread in started)
    for one, two in zip(results[1], results[2]):
        assert np.array_equal(one, two)
    for product, exact in zip(results[1], (K @ V[:, :2], K @ V)):
        assert np.allclose(product, exact, rtol=0, atol=1e-11 * np.abs(exact).max())
    # below 8 blocks, one call of the calling thread
    small = K[:308, :308]
    assert np.array_equal(kernels._times(small, V[:308]), small @ V[:308])


def test_results_stay_correct_without_the_hold(clusters_2k, monkeypatch):
    # a BLAS build that is not numpy's OpenBLAS: the hold does nothing, and
    # the same optimum is still certified
    K, H_Xi = clusters_2k.kernel.K, clusters_2k.factor.H_Xi
    points = clusters_2k.kernel.points
    held = check_optimality(K, H_Xi), embed_points(points, 5.0)
    monkeypatch.setattr(kernels, "_openblas", lambda: None)
    free = check_optimality(K, H_Xi), embed_points(points, 5.0)
    assert free[0].is_certified and free[1].certificate.is_certified
    scale = np.diag(K).max()
    assert np.max(np.abs(free[0].least_eigenvalues - held[0].least_eigenvalues)) <= 1e-10 * scale
    assert free[0].objective == pytest.approx(held[0].objective, rel=1e-12)
    assert free[1].embedding.rank == held[1].embedding.rank == 2
    assert free[1].factor.objective == pytest.approx(held[1].factor.objective, rel=1e-12)
    assert np.array_equal(build_kernel(points, 1.0).K, K)


def test_kernel_diagonal_formula():
    base = _random_base(2)
    dk = build_kernel(base.points, base.sigma)
    expected = 1.0 / base.degrees - base.degrees / base.volume
    assert np.allclose(np.diag(dk.K), expected, atol=1e-14)
    assert np.all(np.diag(dk.K) >= 0)


@pytest.mark.parametrize("per_cluster, sigma", [(100, 1.0), (664, 5.0)])
def test_diagonal_and_product_of_K_from_the_degrees(per_cluster, sigma, monkeypatch):
    # what the factored certificate reads of K without building it: the
    # degrees and K @ V from one weight pass, whose row blocks sum into 16
    # groups at N = 2000, dealt to up to 4 threads
    points = gen_three_clusters(per_cluster, 8, 3).points
    base, K = gaussian_gram(points, sigma), build_kernel(points, sigma).K
    assert np.array_equal(kernels._diagonal(base), np.diag(K))
    V = np.random.default_rng(0).standard_normal((len(points), 3))
    exact = K @ V
    results = []
    with kernels._one_blas_thread():
        for cores in (1, 2, 4):
            monkeypatch.setattr(kernels, "_cores", lambda: cores)
            results.append(kernels._degrees_and_product(points, sigma, V))
    degrees, product = results[0]
    for other in results[1:]:
        assert np.array_equal(other[0], degrees) and np.array_equal(other[1], product)
    assert np.array_equal(degrees, base.degrees)
    assert np.allclose(product, exact, rtol=0, atol=1e-13 * np.abs(exact).max())


def test_extension_row_restricts_to_training_rows():
    base = _random_base(3, n=20)
    dk = build_kernel(base.points, base.sigma)
    for i in range(20):
        row = extension_row(base, base.points[i])
        assert np.max(np.abs(row.kvec - dk.K[i])) < 1e-12
        assert abs(row.kappa - dk.K[i, i]) < 1e-12


@pytest.mark.parametrize("d", [2, 10])
def test_extension_row_matches_the_summed_distance_formula(d):
    # at d >= 8 numpy's pairwise sum over a row differs from the evaluator's
    # sequential one in the last bit
    rng = np.random.default_rng(d)
    base = gaussian_gram(rng.standard_normal((200, d)), 2.0)
    for xbar in rng.standard_normal((10, d)):
        kx = np.exp(-((base.points - xbar) ** 2).sum(axis=1) / base.sigma**2)
        dbar = kx.sum()
        mixed = np.sqrt(dbar * base.degrees)
        kvec = kx / mixed - mixed / base.volume
        row = extension_row(base, xbar)
        assert np.max(np.abs(row.kvec - kvec)) <= 1e-14 * np.max(np.abs(kvec))
        assert row.kappa == pytest.approx(1 / dbar - dbar / base.volume, rel=1e-13)


def test_extension_row_two_point_fixture():
    # hand evaluation: dbar = e^-0.25 + e^-2.25, kappa = 1/dbar - dbar/vol,
    # kvec_i = k(xbar, x_i)/sqrt(dbar d_i) - sqrt(dbar d_i)/vol
    row = extension_row(gaussian_gram(np.array([[0.0], [1.0]]), 1.0), [-0.5])
    kx = np.array([np.exp(-0.25), np.exp(-2.25)])
    dbar = kx.sum()
    vol = 2 * (1 + A)
    mixed = np.sqrt(dbar * (1 + A))
    assert row.dbar == pytest.approx(dbar, abs=1e-15)
    assert row.dbar == pytest.approx(0.88420, abs=5e-6)
    assert np.allclose(row.kvec, kx / mixed - mixed / vol, atol=1e-15)
    assert row.kvec[0] == pytest.approx(0.30615, abs=5e-5)
    assert row.kvec[1] == pytest.approx(-0.30616, abs=5e-5)
    assert row.kappa == pytest.approx(1 / dbar - dbar / vol, abs=1e-15)
    assert row.kappa == pytest.approx(0.80777, abs=1e-5)


def test_extension_row_symmetry_midpoint_near_degenerate():
    row = extension_row(gaussian_gram(np.array([[0.0], [1.0]]), 1.0), [0.5])
    assert row.kvec[0] == pytest.approx(row.kvec[1], abs=1e-15)
    assert abs(row.kvec[0]) < 1e-4


def test_extension_row_dimension_mismatch():
    base = gaussian_gram(np.array([[0.0], [1.0]]), 1.0)
    with pytest.raises(ValueError, match="dimension"):
        extension_row(base, [0.0, 1.0])


def test_extension_row_rejects_point_without_weight():
    base = gaussian_gram(np.array([[0.0], [1.0]]), 1.0)
    with pytest.raises(ValueError, match="no kernel weight"):
        extension_row(base, [100.0])


def test_volume_inequalities_gaussian_base():
    report = check_volume_inequalities(_random_base(4))
    assert report.ok and report.worst_slack >= -1e-12


def test_volume_inequalities_single_point():
    report = check_volume_inequalities(gaussian_gram(np.zeros((1, 2)), 1.0))
    assert report.ok
    assert report.worst_slack == pytest.approx(0.0, abs=1e-15)


def test_volume_inequalities_brute_force():
    # recompute both inequalities with explicit sums as the oracle
    rng = np.random.default_rng(5)
    points = rng.standard_normal((50, 3))
    probes = rng.standard_normal((20, 3))
    base = gaussian_gram(points, 1.3)
    report = check_volume_inequalities(base, probes)
    assert report.ok and report.n_checked == 70

    vol = sum(
        np.exp(-np.sum((x - y) ** 2) / 1.3**2) for x in points for y in points
    )
    for x in np.vstack([points, probes]):
        degree = sum(np.exp(-np.sum((x - y) ** 2) / 1.3**2) for y in points)
        assert degree**2 <= 1.0 * vol * (1 + 1e-12)


def test_volume_inequality_property_random_clouds():
    # 120 random instances of the degree-volume inequality, training + probes
    for trial in range(120):
        rng = np.random.default_rng(9000 + trial)
        n = int(rng.integers(2, 40))
        d = int(rng.integers(1, 5))
        base = gaussian_gram(rng.standard_normal((n, d)) * rng.uniform(0.2, 3.0),
                             float(rng.uniform(0.2, 4.0)))
        probes = rng.standard_normal((5, d))
        report = check_volume_inequalities(base, probes)
        assert report.ok, f"trial {trial}: slack {report.worst_slack}"

