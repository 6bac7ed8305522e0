"""Gaussian base kernel, degree normalization, and the centered diffusion kernel.

Given training points ``x_1..x_N`` and a bandwidth ``sigma``, the base kernel
is ``k(x, y) = exp(-||x - y||^2 / sigma^2)`` with degrees
``d(x) = sum_z k(x, z)`` and total volume ``vol = sum_x d(x)``.  The matrix
handed to the semi-definite program is the centered, degree-normalized kernel

    K(x, y) = k(x, y) / sqrt(d(x) d(y)) - sqrt(d(x) d(y)) / vol,

which is positive semi-definite on the training set, annihilates the vector
``sqrt(d)`` exactly, has strictly positive diagonal (for distinct points), and
has top eigenvalue < 1.  One object, ``DiffusionKernel``, holds the points,
sigma, the degrees, the volume and ``K``: ``build_kernel`` returns it with
``K``, and ``gaussian_gram``, the degree pass of out-of-sample extension,
without.  It never holds the N x N gram.  One evaluator,
``_gaussian_weights``, gives every Gaussian weight in the package: the
coordinate differences of a row block, one dimension at a time, are one
matrix product ``[-X_j, 1] @ [1, x_j]`` with inner dimension 2, which is
exact, since each entry is two exact products and one rounded addition.  One
block runner, ``_each_block``, deals every block in the package; its
weight pass, ``_map_blocks``, hands row blocks of weights to the consumers:
the degrees, ``K``, the extension to new points, the volume probes and the
diffusion-maps gram.  ``K`` takes one weight pass (``build_kernel``): its
rows of weights are written in place and the degrees are summed from them;
a second pass of the same runner then normalizes the rows where they lie.
The products ``K @ V`` of the solver and the certificate are ``_times``,
dealt by the same runner; the Lanczos step's ``Q @ K`` is one BLAS call.
Where ``K`` is never built, as in ``sdpembed certify`` from 1500 points on,
one weight pass (``_degrees_and_product``) gives the degrees and ``K @ V``
together, ``_diagonal`` gives ``diag K`` from the degrees and ``_low_rank``
a pivoted Cholesky factor of the gram, one row of weights per pivot, with a
bound on its error in ``K``.  From 8 blocks on, the runner deals the blocks
to up to one thread per CPU, each with its own buffer; the results do not
depend on the number of threads.  These are the package's only threads:
its public functions hold numpy's OpenBLAS at one thread
(``_one_blas_thread``).  The degree of a new point is a row sum of the same
weights; the module ``extension`` turns it into the new point's kernel row
and diagonal value.
"""

import ctypes
import functools
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# Gaussian weights are evaluated in row blocks whose weights and one scratch
# block of the same shape (coordinate differences, then in the build of K the
# products of root degrees) take about this many bytes together in each
# thread, which keeps them in cache and the working memory beside the N x N K
# small
_BLOCK_BYTES = 1 << 20

# products K @ V are dealt in blocks of this many rows of K, a bound that
# depends on N alone, so the bits do too.  At N = 2000 on a 2-core x86-64
# VM, with 2 runner threads of one BLAS thread each, K @ H (N x 2) took
# 1.5-1.7 ms in row blocks of 125 or 250 against 2.0-2.3 ms on 2 OpenBLAS
# threads
_PRODUCT_ROWS = 125

# the one weight pass of the factored certificate (_degrees_and_product) sums
# K @ V in at most this many groups of consecutive row blocks, a count that
# depends on N alone, so the bits do too; the runner deals 16 groups to up to
# 4 threads, and their sums take 16 (N, p) arrays
_PRODUCT_GROUPS = 16

# the depth of nested holds of one BLAS thread, and the caller's thread
# count the outermost one restores: process-wide, as that count is
_hold_lock = threading.Lock()
_hold = {"depth": 0, "threads": None}


@dataclass
class DiffusionKernel:
    """The Gaussian kernel of a training set: its points and bandwidth, the
    degrees and total volume, and the centered kernel ``K`` once built
    (:func:`build_kernel`; ``None`` from :func:`gaussian_gram`).  Everything
    ``K`` and its out-of-sample extension are built from; the gram matrix
    itself is never stored."""

    sigma: float
    points: np.ndarray
    degrees: np.ndarray
    volume: float
    K: np.ndarray | None = None


def _block_rows(n):
    """Rows per block of points evaluated against ``n`` training points."""
    return max(1, _BLOCK_BYTES // (2 * 8 * n))


def _right_operands(points):
    """The right operands of the evaluator's products: for each dimension j
    of the (N, d) training points, the (2, N) rows ``[1 ... 1]`` and
    ``[x_1j ... x_Nj]``, as one read-only (d, 2, N) array."""
    operands = np.empty((points.shape[1], 2, points.shape[0]))
    operands[:, 0] = 1.0
    operands[:, 1] = points.T
    operands.flags.writeable = False
    return operands


def _gaussian_weights(X, operands, sigma, out, scratch):
    """Fill ``out`` (M, N) with ``exp(-||X_a - x_b||^2 / sigma^2)``, where the
    training points ``x_b`` come as the right operands of
    :func:`_right_operands`, and return it; ``scratch`` is a spare array shaped
    like ``out``.

    Squared distances are summed from coordinate differences one dimension at
    a time, so they are exact functions of the differences: the kernel does
    not change when the data are translated, ``k(x, x) == 1`` exactly, and
    ``k(x, y) == k(y, x)`` bit for bit, whatever the row blocks.  (The expanded
    ``|x|^2 + |y|^2 - 2 x.y`` form cancels for points far from the origin.)
    The differences of dimension j, ``x_b - X_a`` for the whole block, are
    one matrix product ``[-X_j, 1] @ [1, x_j]`` with inner dimension 2; the
    first dimension is written straight into ``out``.  The product is exact:
    each entry is ``(-X_aj) * 1 + 1 * x_bj``, two exact products and one
    rounded addition, so it has the bits of ``x_b - X_a`` whatever the
    summation order, fused multiply-adds or threads of the BLAS, and its
    square has those of ``(X_a - x_b)^2``.
    """
    left = np.ones((X.shape[0], 2))
    for j, right in enumerate(operands):
        diff = scratch if j else out
        np.negative(X[:, j], out=left[:, 0])
        np.square(np.matmul(left, right, out=diff), out=diff)
        if j:
            out += diff
    out /= -sigma**2
    return np.exp(out, out=out)


def _cores():
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@functools.cache
def _openblas():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS,
    found by symbol in the libraries numpy's core module loaded, or None on
    any other BLAS build."""
    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextmanager
def _one_blas_thread():
    """Hold numpy's bundled OpenBLAS at one thread for the block, so that the
    block runner is the package's only source of threads: products with
    ``K`` then have bits fixed by their block bounds, whatever the BLAS
    thread count or the number of CPUs, and no idle OpenBLAS worker spins
    beside the runner's threads.  Re-entrant and thread-safe: the outermost
    hold sets the count to 1 and its exit restores the caller's count, also
    after an exception.  On any other BLAS build it does nothing.  Every
    public function that reaches the runner or ``K`` runs under it, and so
    does every command of the CLI, whose LAPACK calls between products
    would otherwise wake the second OpenBLAS thread again."""
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    with _hold_lock:
        if _hold["depth"] == 0:
            _hold["threads"] = get()
            set_(1)
        _hold["depth"] += 1
    try:
        yield
    finally:
        with _hold_lock:
            _hold["depth"] -= 1
            if _hold["depth"] == 0:
                set_(_hold["threads"])


def _each_block(m, rows, size, call):
    """Call ``call(start, stop, spare)`` on every block ``start:stop`` of
    ``rows`` rows out of ``m``; ``spare`` is a flat buffer of ``size`` floats
    that belongs to the thread running the block.  Every block in the
    package is dealt here: the weight pass :func:`_map_blocks`, the second
    pass of :func:`build_kernel`, which normalizes ``K`` once its weight pass
    has returned, the products ``K @ V`` (:func:`_times`), the groups of
    row blocks of :func:`_degrees_and_product` and the sign residual of the
    interval experiment.  These are the package's only threads: its public
    functions hold BLAS at one thread (:func:`_one_blas_thread`), so each
    block's BLAS call runs on the thread that deals it, and block bounds
    fixed by the sizes fix the bits.

    The blocks are dealt round-robin to ``min(cores, blocks // 4)`` threads,
    the calling one included, each with its own ``spare``; numpy releases the
    GIL in its ufuncs and in BLAS.  Below 8 blocks (the 2 blocks of ``K`` at
    N = 308) the calling thread runs them alone, since a thread would cost
    more than it saves.  ``call`` of different blocks may run at once, so it
    writes only rows ``start:stop`` of shared arrays, and it calls no public
    function of the package, which a tracer may wrap with unsynchronized
    state.  The threads are started per call and joined before the return,
    so none outlives a call or meets a ``fork()``.  If blocks raise, the
    exception of the lowest one is raised.
    """
    starts = range(0, m, rows)
    workers = max(1, min(_cores(), len(starts) // 4))
    failures = []

    def run(share):
        # a thread whose buffer fails names its first block, so none of its
        # blocks is left unwritten without an exception
        start = share.start
        try:
            spare = np.empty(size)
            for start in share:
                call(start, min(start + rows, m), spare)
        except Exception as exc:
            failures.append((start, exc))

    threads = [threading.Thread(target=run, args=(starts[t::workers],)) for t in range(1, workers)]
    for thread in threads:
        thread.start()
    run(starts[::workers])
    for thread in threads:
        thread.join()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]


def _times(K, V):
    """``K @ V`` for an (N, p) ``V``: the product with the (N, N) ``K`` of
    the solver and the certificate's slackness, dealt by the block runner
    :func:`_each_block` in blocks of ``_PRODUCT_ROWS`` rows of ``K``.  The
    bounds depend on N alone, so under :func:`_one_blas_thread` the bits are
    the same for any number of CPUs or BLAS threads.  Below the runner's 8
    blocks (N <= 875, as for the paper's 308 points) it is one BLAS call on
    the calling thread, so no thread starts.  (The Lanczos step's ``Q @ K``
    is one BLAS call at any N: at N = 2000 it ran faster than in blocks of
    rows or columns, with the same bits.)"""
    n = K.shape[0]
    if n <= 7 * _PRODUCT_ROWS:
        return K @ V
    out = np.empty(V.shape)

    def product(start, stop, spare):
        np.matmul(K[start:stop], V, out=out[start:stop])

    _each_block(n, _PRODUCT_ROWS, 0, product)
    return out


def _map_blocks(X, points, sigma, fn, target=None):
    """Call ``fn(start, stop, weights)`` on every row block of the Gaussian
    weights of ``X`` against the training points: the weight pass of the
    block runner :func:`_each_block`, whose rules ``fn`` keeps.  A build of
    ``K`` normalizes in a second pass of that runner after this one.

    With ``target``, an (M, N) array, each row block is evaluated straight
    into ``target[start:stop]``; otherwise into the thread's own buffer.  The
    evaluator's right operands are built once per call and shared read-only;
    each thread's ``spare`` holds its evaluator scratch block and, without
    ``target``, its weight block.
    """
    operands = _right_operands(points)
    n, m = points.shape[0], X.shape[0]
    rows = _block_rows(n)

    def weights(start, stop, spare):
        fn(start, stop, _weight_block(X, operands, sigma, start, stop, spare, target))

    _each_block(m, rows, (2 if target is None else 1) * min(rows, m) * n, weights)


def _weight_block(X, operands, sigma, start, stop, spare, target=None):
    """The Gaussian weights of rows ``start:stop`` of ``X`` against the
    training points of ``operands``, evaluated into ``target[start:stop]``
    or, without ``target``, into ``spare`` after the evaluator's scratch
    block, which comes first in ``spare``."""
    n = operands.shape[2]
    scratch = spare[: (stop - start) * n].reshape(stop - start, n)
    if target is None:
        out = spare[scratch.size : 2 * scratch.size].reshape(scratch.shape)
    else:
        out = target[start:stop]
    return _gaussian_weights(X[start:stop], operands, sigma, out, scratch)


def _degrees(X, points, sigma, target=None):
    """Row sums of the Gaussian weights of ``X`` against the training points;
    with ``target``, an (M, N) array, the weights are left there."""
    degrees = np.empty(X.shape[0])

    def row_sums(start, stop, weights):
        degrees[start:stop] = weights.sum(axis=1)

    _map_blocks(X, points, sigma, row_sums, target=target)
    return degrees


def _check_sigma(sigma):
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if not np.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")


def _checked_points(points, sigma):
    """The training points as a float array, after checking them and sigma."""
    _check_sigma(sigma)
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or min(points.shape) < 1:
        raise ValueError("need an (N, d) array of points with N, d >= 1")
    if not np.all(np.isfinite(points)):
        raise ValueError("points contain non-finite entries")
    return points


@_one_blas_thread()
def gaussian_gram(points, sigma):
    """Degrees and total volume of the Gaussian kernel of a point cloud.

    Parameters
    ----------
    points : array of shape (N, d)
        Training points.
    sigma : float
        Kernel bandwidth, in the units of the feature distances.

    Returns
    -------
    DiffusionKernel
        The points, sigma, per-point degrees ``d_i = sum_j k(x_i, x_j)`` and
        total volume, without ``K``.  Each degree is the row sum of one row
        block of Gaussian weights at a time (see ``_BLOCK_BYTES``), so no
        N x N gram is formed.  This is the degree pass of out-of-sample
        extension; a build of ``K`` (:func:`build_kernel`) sums the same
        degrees, bit for bit, from the rows of ``K`` itself.
    """
    points = _checked_points(points, sigma)
    return _kernel(points, sigma, _degrees(points, points, sigma))


def _kernel(points, sigma, degrees, K=None):
    return DiffusionKernel(
        sigma=float(sigma), points=points, degrees=degrees, volume=float(degrees.sum()), K=K
    )


def diffusion_kernel(kernel):
    """``build_kernel(kernel.points, kernel.sigma)``; only ``bench/tests`` calls it."""
    return build_kernel(kernel.points, kernel.sigma)


@_one_blas_thread()
def build_kernel(points, sigma):
    """Centered kernel ``K`` of a point cloud, with its degrees and volume,
    from one pass over the Gaussian weights.

    Parameters
    ----------
    points : array of shape (N, d)
        Training points.
    sigma : float
        Kernel bandwidth, in the units of the feature distances.

    Returns
    -------
    DiffusionKernel
        ``K(i, j) = k(x_i, x_j)/sqrt(d_i d_j) - sqrt(d_i d_j)/vol``, which
        annihilates ``sqrt(d)``, with the degrees and volume of
        :func:`gaussian_gram`, bit for bit.  The weight pass puts full row
        blocks of weights into ``K`` and sums the degrees from them
        (``_degrees``, the function and blocks of :func:`gaussian_gram`, so
        the same bits); once it has returned, a second pass of the same
        block runner normalizes the blocks in place.  ``K`` is symmetric
        bit for bit without a mirror copy, since ``k(x_i, x_j) ==
        k(x_j, x_i)`` and multiplication commutes.
    """
    points = _checked_points(points, sigma)
    n = points.shape[0]
    K = np.empty((n, n))
    kernel = _kernel(points, sigma, _degrees(points, points, sigma, target=K), K)
    root_d = np.sqrt(kernel.degrees)

    def normalize(start, stop, spare):
        blk = K[start:stop]
        outer = np.multiply.outer(root_d[start:stop], root_d, out=spare[: blk.size].reshape(blk.shape))
        blk /= outer
        outer /= kernel.volume
        blk -= outer

    rows = _block_rows(n)
    _each_block(n, rows, min(rows, n) * n, normalize)
    return kernel


def _diagonal(kernel):
    """``diag K`` from the degrees alone, with the bits of
    ``np.diag(build_kernel(points, sigma).K)``: ``k(x, x) == 1`` exactly,
    and the build divides it by ``sqrt(d_i) sqrt(d_i)`` and subtracts that
    product over the volume, as here."""
    root_d = np.sqrt(kernel.degrees)
    outer = root_d * root_d
    return 1.0 / outer - outer / kernel.volume


def _degrees_and_product(points, sigma, V):
    """The degrees of :func:`gaussian_gram`, bit for bit, and ``K @ V`` for
    an (N, p) ``V`` without ``K``, from one weight pass over the Gaussian
    weights ``W``: row i of ``K @ V`` is ``(W (V / sqrt(d)))_i / sqrt(d_i) -
    sqrt(d_i) (sqrt(d) @ V) / vol``.

    Each row block I of weights, the blocks of :func:`gaussian_gram`, first
    gives its degrees ``d_I`` from its full rows, then adds ``W_{I.}^T (V_I /
    sqrt(d_I))`` to the (N, p) sum of its group, since ``W`` is symmetric bit
    for bit.  A group is a run of consecutive row blocks, at most
    ``_PRODUCT_GROUPS`` of them by N alone; the runner :func:`_each_block`
    deals the groups and their sums are added in group order, so the bits do
    not depend on the number of threads or CPUs.
    """
    n, p = V.shape
    operands = _right_operands(points)
    rows = _block_rows(n)
    blocks = -(-n // rows)
    per_group = rows * -(-blocks // _PRODUCT_GROUPS)
    degrees = np.empty(n)
    sums = np.zeros((-(-n // per_group), n, p))

    def group(start, stop, spare):
        total = sums[start // per_group]
        for first in range(start, stop, rows):
            last = min(first + rows, stop)
            weights = _weight_block(points, operands, sigma, first, last, spare)
            degrees[first:last] = weights.sum(axis=1)
            total += weights.T @ (V[first:last] / np.sqrt(degrees[first:last])[:, None])

    _each_block(n, per_group, 2 * min(rows, n) * n, group)
    root_d = np.sqrt(degrees)
    out = sums.sum(axis=0)  # over the groups in order, whatever dealt them
    out /= root_d[:, None]
    out -= np.outer(root_d, (root_d @ V) / degrees.sum())
    return degrees, out


def _gamma(m):
    """Higham's ``gamma_m = m u / (1 - m u)``, ``u`` the unit roundoff: the
    relative error bound of m roundings."""
    u = float(np.finfo(float).eps) / 2
    return m * u / (1 - m * u)


def _low_rank(kernel, cap, tol):
    """A factored ``K~ = A^T J A`` near ``K`` and a bound ``delta >=
    ||K - K~||_2``, from a pivoted Cholesky factor ``W ~ G^T G`` of the
    Gaussian gram ``W`` (Harbrecht, Peters & Schneider, Appl. Numer. Math.
    62, 2012): ``A`` is ``G / sqrt(d)`` with the row ``sqrt(d / vol)`` below
    it and ``J = diag(1, ..., 1, -1)``, so a product with ``K~`` costs O(N r)
    and ``J``, its own inverse, is the corner block of the inertia count of
    :func:`sdpembed.certificate._count_below`.
    The pivots stop once the residual diagonal sums to at most ``tol``
    min_i d_i, which holds the first term of ``delta`` to ``tol``; None if
    ``cap`` pivots do not get there.

    Each pivot is the point of largest residual diagonal ``e_i = W_ii -
    ||g_i||^2``; its row of weights comes from :func:`_gaussian_weights`, the
    evaluator of ``K``, so ``W`` is the gram ``K`` is built from.

    The bound.  ``K - K~ = D^{-1/2} E D^{-1/2}`` with ``E = W - G^T G``.  In
    exact arithmetic ``E`` is the Schur complement of ``W`` on the pivots,
    p.s.d. like ``W``, so ``||E||_2 <= tr E = sum_i e_i`` and
    ``||K - K~||_2 <= sum_i e_i / min_i d_i``.  In floating point the
    computed ``G`` of r rows is the exact factor of ``W + dW`` with
    ``|dW| <= gamma_{r+1} |G|^T |G|`` (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, ch. 10), so ``||dW||_2 <= gamma_{r+1}
    ||G||_F^2``; the computed ``e_i``, running differences of r squares
    from 1, are within ``gamma_r ||g_i||^2`` of the exact ones; and the Schur
    complement of ``W + dW`` is p.s.d. to first order in ``dW``, since
    complete pivoting keeps ``W_PP^{-1} W_P*`` small in practice (ibid.).  One ``gamma_{r+1} ||G||_F^2`` for each of the three gives

        delta = (sum_i max(e_i, 0) + 3 gamma_{r+1} ||G||_F^2) / min_i d_i,

    with ``gamma_m`` of :func:`_gamma`.  The rounding of ``K`` itself and of
    the products, which the dense certificate leaves to its tolerance too,
    is not counted.
    """
    points, n = kernel.points, kernel.points.shape[0]
    operands = _right_operands(points)
    G, scratch = np.empty((cap, n)), np.empty((1, n))
    residual, min_d = np.ones(n), float(kernel.degrees.min())
    for r in range(cap + 1):
        trace = float(np.maximum(residual, 0.0).sum())
        if trace <= tol * min_d:
            break
        if r == cap:
            return None
        p = int(np.argmax(residual))
        row = _gaussian_weights(points[p : p + 1], operands, kernel.sigma, G[r : r + 1], scratch)[0]
        row -= G[:r, p] @ G[:r]
        row /= np.sqrt(residual[p])
        residual -= row * row
    delta = (trace + 3 * _gamma(r + 1) * float(np.vdot(G[:r], G[:r]))) / min_d
    root_d = np.sqrt(kernel.degrees)
    A = np.empty((r + 1, n))
    np.divide(G[:r], root_d, out=A[:r])
    np.divide(root_d, np.sqrt(kernel.volume), out=A[r])
    return A, delta
