"""Independent slow oracles for the test suite.

Everything here computes expected values by brute quadrature or direct
summation from closed-form integrands, avoiding the package's spectral
pipeline entirely (except where a test explicitly cross-checks two
package routes against each other).
"""

import math

import numpy as np

from psqm import (ConfigState, PhaseState, fourier, moyal_map, moyal_map_inv,
                  norm_config, norm_phase, weyl)


def quadrature_ft(f, xi_points, x_half=30.0, n=16384):
    """(2*pi)**(-1/2) * integral exp(-i*x*xi) f(x) dx by Riemann sum on a
    fine oversampled lattice; f is a callable."""
    x = -x_half + (2 * x_half / n) * np.arange(n)
    dx = x[1] - x[0]
    vals = f(x)
    return dx / np.sqrt(2 * np.pi) * (vals @ np.exp(-1j * np.outer(x, xi_points)))


def quadrature_inner(f, g, x_half=30.0, n=16384):
    """integral g(x) f(x)* dx by fine Riemann sum (callables)."""
    x = -x_half + (2 * x_half / n) * np.arange(n)
    dx = x[1] - x[0]
    return dx * np.sum(np.conj(f(x)) * g(x))


def quadrature_moment(f, k=1, x_half=30.0, n=16384):
    """integral x^k |f(x)|^2 dx."""
    x = -x_half + (2 * x_half / n) * np.arange(n)
    dx = x[1] - x[0]
    return dx * np.sum(x ** k * np.abs(f(x)) ** 2)


def weyl_symbol_quadrature(kernel_fn, x_points, xi_points, y_half=30.0, n_y=8192):
    """a(x, xi) = integral exp(-i*xi*y) K(x + y/2, x - y/2) dy with the
    kernel given in closed form."""
    y = -y_half + (2 * y_half / n_y) * np.arange(n_y)
    dy = y[1] - y[0]
    out = np.empty((len(x_points), len(xi_points)), complex)
    phase = np.exp(-1j * np.outer(y, xi_points))
    for i, xv in enumerate(x_points):
        out[i] = dy * (kernel_fn(xv + y / 2, xv - y / 2) @ phase)
    return out


def brute_star(fa, fb, z_points, quad_pts, cell_area):
    """Double phase-space integral for the twisted product,

      c(z) = (4*pi)**(-2) iint exp((i/2) sigma(u, v))
             a(z + u/2) b(z - v/2) du dv,
      sigma(u, v) = u_xi v_x - v_xi u_x,

    evaluated at a handful of z points from closed-form a, b.  The u and
    v quadratures both run over the supplied phase lattice with cell
    weight ``cell_area``."""
    ux, up = quad_pts[:, 0], quad_pts[:, 1]
    w = cell_area ** 2
    # sigma(u, v) = u_p*v_x - v_p*u_x over all (u, v) lattice pairs
    M = np.exp(0.5j * (np.outer(up, ux) - np.outer(ux, up)))
    out = []
    for zx, zp in z_points:
        av = fa(zx + ux / 2, zp + up / 2)
        bv = fb(zx - ux / 2, zp - up / 2)
        out.append((av @ M @ bv) * w / (4 * np.pi) ** 2)
    return np.array(out)


def bochner_phase_weyl(symbol_sft, Psi_values, x_grid, apply_displacement,
                       z_half=8.0, n_side=32):
    """Coarse quadrature of the displacement superposition

      A Psi ~ (2*pi)**(-1) sum F_sigma a(z0) T_PS(z0) Psi dz0

    over an n_side^2 lattice of displacements; ``symbol_sft`` is the
    closed-form symplectic Fourier transform of the symbol and
    ``apply_displacement(z0, values)`` realizes T_PS(z0)."""
    pts = -z_half + (2 * z_half / n_side) * (np.arange(n_side) + 0.5)
    dz = pts[1] - pts[0]
    acc = np.zeros_like(Psi_values)
    for x0 in pts:
        for xi0 in pts:
            w = symbol_sft(x0, xi0)
            if abs(w) < 1e-14:
                continue
            acc = acc + w * apply_displacement((x0, xi0), Psi_values)
    return acc * dz * dz / (2 * np.pi)


def fd_derivative_matrix(n, dx, order=8):
    """Banded high-order finite-difference first derivative (for
    independent derivative oracles where wanted)."""
    coeffs = {1: 4 / 5, 2: -1 / 5, 3: 4 / 105, 4: -1 / 280}
    D = np.zeros((n, n))
    for k, c in coeffs.items():
        D += c * (np.eye(n, k=k) - np.eye(n, k=-k))
    return D / dx


def double_phase_space_quantize(a_fn, grid1d):
    """Weyl quantization over the doubled phase space: the symbol
    A_M(x, p, xi_x, xi_p) = a(x - xi_p/2, p + xi_x/2) quantized as a
    2-D-configuration-space Weyl operator on states Psi(x, p),

      K((x,p),(x',p')) = (2*pi)**(-2) iint A_M(mx, mp, xi_x, xi_p)
              exp(i xi_x (x-x') + i xi_p (p-p')) dxi_x dxi_p,

    with arithmetic midpoints mx, mp and the momentum axes on the same
    self-dual lattice.  Dense matrix on the vec'd (x, p) lattice; coarse
    oracle for the metaplectic-covariance specialization."""
    pts = grid1d.points
    n = grid1d.n_points
    dxi = grid1d.dual_spacing
    xi = grid1d.dual.points
    mid = 0.5 * (pts[:, None] + pts[None, :])        # (i, j)
    diff = pts[:, None] - pts[None, :]
    # phase factors per axis: (i, j, m)
    phase = np.exp(1j * diff[:, :, None] * xi[None, None, :])
    # T1[i,j,m,n_] would be 4-D x 4-D; assemble blockwise over (k,l) axes
    dim = n * n
    M = np.empty((dim, dim), complex)
    w = (dxi ** 2) / (2 * np.pi) ** 2 * (grid1d.spacing ** 2)
    amat_cache = {}
    for k in range(n):
        for l in range(n):
            # A_M(mid_x[i,j] - xi_p/2, mid_p[k,l] + xi_x/2): (i,j,m,nn)
            key = round(float(mid[k, l]), 12)
            if key not in amat_cache:
                amat_cache[key] = a_fn(
                    mid[:, :, None, None] - xi[None, None, None, :] / 2,
                    mid[k, l] + xi[None, None, :, None] / 2)
            amat = amat_cache[key]
            integ = np.einsum("ijmn,ijm,n->ij", amat, phase,
                              np.exp(1j * (pts[k] - pts[l]) * xi))
            row = (np.arange(n) * n + k)
            col = (np.arange(n) * n + l)
            M[np.ix_(row, col)] = integ * w
    return M


def moyal_restrict_basis_loop(op, iso):
    """Config-sized matrix of the Moyal operator ``op`` compressed to
    U(range of ``iso``), conjugated column by column through the
    composed isometry U T: column j is T* U^{-1} op(U T e_j).  One
    Moyal operator application per lattice site, so small grids only."""
    xg = op.phase_op.x_grid
    cols = np.empty((xg.n_points, xg.n_points), complex)
    for j, e in enumerate(np.eye(xg.n_points)):
        image = op.apply(moyal_map(iso.apply(ConfigState(xg, e))))
        cols[:, j] = iso.adjoint(moyal_map_inv(image)).values
    return cols


def explicit_propagator(matrix, t):
    """exp(-i t M) formed as the dense product (V e^{-i t w}) V* from the
    eigendecomposition of the symmetrized matrix."""
    w, V = np.linalg.eigh(0.5 * (matrix + matrix.conj().T))
    return (V * np.exp(-1j * w * t)) @ V.conj().T


# Dense phase-table routes that the lattice shear replaced; each builds
# an n x n exp table per call (references for the package's one shear,
# which none of them calls).

def fourier_shift_phase_table(values, grid, shift, axis=-1):
    """values(t) -> values(t - shift) by one FFT, a phase table
    exp(-i*xi*shift) on the grid's dual frequencies and one inverse FFT;
    ``shift`` is a scalar, or for a 2-D field one shift per slice along
    the other axis (an n x n table)."""
    n = grid.n_points
    xif = np.fft.ifftshift(grid.dual.points)
    spec = np.fft.fft(values, axis=axis)
    shift = np.asarray(shift, dtype=float)
    if shift.ndim == 0:
        shp = [1] * values.ndim
        shp[axis] = n
        phase = np.exp(-1j * xif * shift).reshape(shp)
    elif axis % 2 == 1:
        phase = np.exp(-1j * np.outer(shift, xif))
    else:
        phase = np.exp(-1j * np.outer(xif, shift))
    return np.fft.ifft(spec * phase, axis=axis)


def moyal_map_fourier_shift(values, grid):
    """U on (x, p) samples by two Fourier shears of the p-transform."""
    pts = grid.points
    hat = fourier.ft_array(values, grid, axis=1)
    g1 = fourier_shift_phase_table(hat, grid, -pts, axis=1)
    h = fourier_shift_phase_table(g1, grid, pts / 2, axis=0)
    return fourier.ift_array(h, grid.dual, grid, axis=1)


def moyal_map_inv_fourier_shift(values, grid):
    """U^{-1} on (x, p) samples: the two Fourier shears unwound."""
    pts = grid.points
    hat = fourier.ft_array(values, grid, axis=1)
    h = fourier_shift_phase_table(hat, grid, -pts / 2, axis=0)
    g1 = fourier_shift_phase_table(h, grid, pts, axis=1)
    return fourier.ift_array(g1, grid.dual, grid, axis=1)


def midpoint_indices(n, torus):
    """Flat index S*n + D into the (2N, N) table of the half-lattice
    midpoint index S of (x_i, x_j) and the periodic difference index
    D = (i - j) mod n, for the whole n x n kernel at once: the torus
    midpoint moves wrapped pairs (|i - j| > n/2) by the half period."""
    i = np.arange(n)
    S = i[:, None] + i[None, :]
    if torus:
        wrap = np.abs(i[:, None] - i[None, :]) > n // 2
        S = np.where(wrap, (S + n) % (2 * n), S)
    return S * n + (i[:, None] - i[None, :]) % n


def offset_indices(n):
    """Flat indices of (x_i + t/2, x_i - t/2) for every row i and offset
    t in FFT order: [0] even t, into the kernel at (i + t/2, i - t/2);
    [1] odd t, into the transposed half-cell shifted kernel at
    (i - (t+1)/2, i + (t-1)/2)."""
    i = np.arange(n)[:, None]
    t = np.fft.fftfreq(n, 1.0 / n).astype(int)
    u, v = (i + t // 2) % n, (i - (t + 1) // 2) % n
    return u[:, 0::2] * n + v[:, 0::2], v[:, 1::2] * n + u[:, 1::2]


def symbol_to_kernel_dense(a):
    """Kernel values of a symbol with the xi quadrature as ``amid @ phase``."""
    xg = a.grid.x_grid
    n = xg.n_points
    amid = weyl._midpoint_values(a)
    phase = np.exp(1j * np.outer(a.grid.p_grid.points, np.arange(n) * xg.spacing))
    B = (a.grid.p_grid.spacing / (2 * np.pi)) * (amid @ phase)
    return B.take(midpoint_indices(n, torus=not a.is_polynomial))


def symbol_to_kernel_whole_table(a):
    """:func:`weyl.symbol_to_kernel`'s matrix, its FFTs into fresh arrays
    and its gather through the whole index table at once."""
    xg = a.grid.x_grid
    n = xg.n_points
    xi = a.grid.p_grid.points
    amid = weyl._midpoint_values(a)
    post = (a.grid.p_grid.spacing * n / (2 * np.pi)) * np.exp(
        1j * xi[0] * np.arange(n) * xg.spacing)
    real = np.isrealobj(amid)
    if real:
        h = n // 2 + 1
        B = np.empty((2 * n, n), complex)
        np.multiply(np.fft.ihfft(amid, axis=1), post[:h], out=B[:, :h])
        np.conjugate(B[:, h - 2:0:-1], out=B[:, h:])
        B.imag[:, [0, n // 2]] = 0.0
    else:
        B = np.fft.ifft(amid, axis=1) * post
    M = B.take(midpoint_indices(n, torus=not a.is_polynomial))
    M *= xg.spacing
    if real and np.abs(M.imag).max() <= weyl.REAL_EIGH_TOL * np.abs(M).max():
        M = np.ascontiguousarray(M.real)
    return M


def kernel_to_symbol_whole_table(op):
    """:func:`weyl.kernel_to_symbol`'s samples, gathered through the whole
    offset tables at once, the last FFT into a fresh array."""
    xg = op.grid
    n = xg.n_points
    M = op.matrix
    mid_t = np.ascontiguousarray(fourier.half_shift(fourier.half_shift(M, 1), 0).T)
    even, odd = offset_indices(n)
    vals = np.empty((n, n), complex)
    vals[:, 0::2], vals[:, 1::2] = M.take(even), mid_t.take(odd)
    tau = vals.mean(axis=0)
    vals -= tau
    tau[1::2] -= 2.0 / n * (tau[0::2].sum() - tau[1::2].sum())
    alpha = np.fft.fftshift(np.fft.fft(tau))
    vals *= np.exp(-1j * np.fft.fftfreq(n, 1.0 / n) * xg.spacing * xg.dual.points[0])
    return alpha[None, :] + np.fft.fft(vals, axis=1)


def kernel_to_symbol_dense(op):
    """Symbol samples of an operator's kernel, its matrix over dx:
    diagonal means by ``np.add.at`` and the y quadrature as
    ``vals @ phase``."""
    xg = op.grid
    K = op.matrix / xg.spacing
    n = xg.n_points
    xi = xg.dual.points
    i = np.arange(n)
    Dm = (i[:, None] - i[None, :]) % n
    tau = np.zeros(n, complex)
    np.add.at(tau, Dm.ravel(), K.ravel())
    tau /= n
    alpha = xg.spacing * np.fft.fftshift(np.fft.fft(tau))
    rest = K - tau[Dm]
    mid = fourier.half_shift(fourier.half_shift(rest, 0), 1)
    t = np.arange(-n // 2, n // 2)
    U = ((2 * i[:, None] + t[None, :]) % (2 * n)) // 2
    V = ((2 * i[:, None] - t[None, :]) % (2 * n)) // 2
    vals = np.where(t % 2 == 0, rest[U, V], mid[U, V])
    phase = np.exp(-1j * np.outer(t * xg.spacing, xi))
    return alpha[None, :] + xg.spacing * (vals @ phase)


def cross_wigner_dense(psi, phi):
    """Cross-Wigner samples with the t quadrature as ``prod @ phase``."""
    g = psi.grid
    n = g.n_points
    fh = fourier.upsample2(psi.values, axis=0)
    gh = fourier.upsample2(phi.values, axis=0)
    t = np.arange(-n // 2, n // 2)
    i = np.arange(n)
    prod = (fh[(2 * i[:, None] + t[None, :]) % (2 * n)]
            * np.conj(gh[(2 * i[:, None] - t[None, :]) % (2 * n)]))
    phase = np.exp(-1j * np.outer(t * g.spacing, g.dual.points))
    return (g.spacing / (2 * np.pi)) * (prod @ phase)


def spectral_derivative(values, grid, axis=-1):
    """d/dx along ``axis`` (a plain derivative, not -i d/dx): one FFT,
    multiplication by i*xi on the grid's dual frequencies, one inverse
    FFT.  The package differentiates only inside the polynomial star
    product (:func:`psqm.weyl.groenewold_mixed`), which this does not call."""
    n = grid.n_points
    xif = np.fft.ifftshift(grid.dual.points)
    shp = [1] * values.ndim
    shp[axis] = n
    return np.fft.ifft(np.fft.fft(values, axis=axis) * (1j * xif).reshape(shp), axis=axis)


def groenewold_mixed_all_terms(poly, values, grid, poly_on_left):
    """Terminating star product with one polynomial factor, evaluating
    every term of the expansion, those whose polynomial derivative
    vanishes included."""
    X, XI = grid.meshes()

    def poly_derivs(dx_order, dxi_order):
        # the power rule applied one order at a time to each monomial
        out = np.zeros(grid.shape, complex)
        for (i, j), c in poly.items():
            for _ in range(dx_order):
                c, i = c * i, i - 1
            for _ in range(dxi_order):
                c, j = c * j, j - 1
            if i >= 0 and j >= 0:
                out = out + c * X ** i * XI ** j
        return out

    def array_deriv(dx_order, dxi_order):
        out = values
        for _ in range(dx_order):
            out = spectral_derivative(out, grid.x_grid, axis=0)
        for _ in range(dxi_order):
            out = spectral_derivative(out, grid.p_grid, axis=1)
        return out

    out = np.zeros(grid.shape, complex)
    for k in range(weyl.poly_degree(poly) + 1):
        coef = (0.5j) ** k / math.factorial(k)
        for j in range(k + 1):
            sgn = coef * math.comb(k, j) * (-1) ** j
            if poly_on_left:
                left, right = poly_derivs(k - j, j), array_deriv(j, k - j)
            else:
                left, right = array_deriv(k - j, j), poly_derivs(j, k - j)
            out = out + sgn * left * right
    return out


# Routes that build the arrays the package no longer builds: fresh
# output arrays where it now shears, sums and reads in place.  Each
# runs the same arithmetic in the same order, so the package's results
# must equal these byte for byte.

def lattice_shear_out_of_place(values, steps, axis):
    """:func:`fourier.lattice_shear` into a fresh output array: a
    transposed copy along axis 0, then the rolled and half-shifted
    rows in a new array, written back into the copy."""
    axis %= 2
    steps = np.asarray(steps)
    if axis == 1:
        src = np.ascontiguousarray(values)
    else:
        src = np.array(values.T, complex, order="C")
    n = src.shape[1]
    out = np.empty(src.shape, complex)
    for j, s in enumerate((steps // 2) % n):
        out[j, s:] = src[j, :n - s]
        out[j, :s] = src[j, n - s:]
    odd = np.flatnonzero(steps % 2)
    mult = np.exp(-1j * np.pi * np.fft.fftfreq(n, 1.0 / n) / n)
    for lo in range(0, odd.size, 64):
        sel = odd[lo:lo + 64]
        rows = out[sel]
        np.fft.fft(rows, axis=1, out=rows)
        rows *= mult
        out[sel] = np.fft.ifft(rows, axis=1, out=rows)
    if axis == 1:
        return out
    src = src.reshape(values.shape)
    src[...] = out.T
    return src


def moyal_map_out_of_place(values):
    """U on self-dual (x, p) samples through the out-of-place shears."""
    n = values.shape[0]
    a = np.arange(n)
    vals = lattice_shear_out_of_place(np.fft.fft(values, axis=1), -2 * a, axis=1)
    vals[1::2] *= -1
    vals = lattice_shear_out_of_place(vals, a - n // 2, axis=0)
    np.fft.ifft(vals, axis=1, out=vals)
    vals[:, 1::2] *= -1
    return vals


def moyal_map_inv_out_of_place(values):
    """U^{-1} on self-dual (x, p) samples through the out-of-place shears."""
    n = values.shape[0]
    a = np.arange(n)
    vals = np.array(values, dtype=complex)
    vals[:, 1::2] *= -1
    np.fft.fft(vals, axis=1, out=vals)
    vals = lattice_shear_out_of_place(vals, n // 2 - a, axis=0)
    vals[1::2] *= -1
    vals = lattice_shear_out_of_place(vals, 2 * a, axis=1)
    np.fft.ifft(vals, axis=1, out=vals)
    return vals


def eig_state_rows(op):
    """The eigenstates of :func:`psqm.eig` as the rows of one scaled
    complex copy of V.T."""
    _, V = op.eigh()
    rows = np.empty(V.shape[::-1], complex)
    np.divide(V.T, np.sqrt(op.grid.spacing), out=rows)
    return rows


def outer_sum_whole(src, base, terms, in_place):
    """sum of c * base[0]**e0 * base[1]**e1 * src over ``terms``
    {(e0, e1): c}, one whole-array broadcast multiply per distinct e1;
    the last product overwrites ``src`` when ``in_place``."""
    cols = {}
    for (e0, e1), c in terms.items():
        cols[e1] = cols.get(e1, 0) + c * base[0] ** e0
    acc = None
    for i, (e1, col) in enumerate(cols.items()):
        if in_place and i == len(cols) - 1:
            t = src
            t *= col
        else:
            t = src * col
        if e1:
            t *= base[1] ** e1
        if acc is None:
            acc = t
        else:
            acc += t
    return acc


def groenewold_mixed_zero_start(poly, values, grid, poly_on_left):
    """:func:`weyl.groenewold_mixed` summed into a zeros array, with every
    spectrum held to the end and each term group formed whole."""
    spectra = {(0,): np.fft.fft(np.ascontiguousarray(values.T), axis=1).T,
               (1,): np.fft.fft(values, axis=1)}
    fourier.require_band_limited(values, "star-product factor",
                                 (spectra[(0,)], spectra[(1,)]))
    coords = (grid.x_grid.points[:, None], grid.p_grid.points[None, :])
    ik = (1j * np.fft.ifftshift(grid.x_grid.dual.points)[:, None],
          1j * np.fft.ifftshift(grid.p_grid.dual.points)[None, :])
    groups: dict = {}
    for sgn, left, right in weyl._groenewold_terms(weyl.poly_degree(poly)):
        on_poly, on_values = (left, right) if poly_on_left else (right, left)
        axes = tuple(d for d in (0, 1) if on_values[d])
        for powers, c in weyl._poly_deriv(poly, *on_poly).items():
            after = tuple(powers[d] if on_values[d] else 0 for d in (0, 1))
            exps = tuple(on_values[d] or powers[d] for d in (0, 1))
            terms = groups.setdefault(axes, {}).setdefault(after, {})
            terms[exps] = terms.get(exps, 0.0) + sgn * c
    out = np.zeros(grid.shape, complex)
    for axes in ((), (0,), (0, 1), (1,)):
        todo = list(groups.get(axes, {}).items())
        if axes == (0, 1) and todo:
            spec = spectra[(0,)]
            spectra[axes] = np.fft.fft(spec, axis=1, out=spec)
        src = spectra.get(axes, values)
        keep = axes == () or (axes == (0,) and (0, 1) in groups)
        base = tuple(ik[d] if d in axes else coords[d] for d in (0, 1))
        for i, (after, terms) in enumerate(todo):
            acc = outer_sum_whole(src, base, terms, not keep and i == len(todo) - 1)
            if axes:
                np.fft.ifftn(acc, axes=axes, out=acc)
            for d in (0, 1):
                if after[d]:
                    acc *= coords[d] ** after[d]
            out += acc
    return out


# Dense matrices on the n_x * n_p product lattice (row-major vec of the
# (x, p) samples); memory grows as (n_x * n_p)^2, so small grids only.

def derivative_matrix(grid):
    """Dense matrix of -i d/dx on the band-limited class: inverse
    transform after multiplication by the dual points."""
    eye = np.eye(grid.n_points, dtype=complex)
    ft = fourier.ft_array(eye, grid, axis=0)
    ift = fourier.ift_array(eye, grid.dual, grid, axis=0)
    return ift @ (grid.dual.points[:, None] * ft)


def phase_weyl_dense(op, p_grid):
    """Phase-space Weyl operator ``op`` as kron(M, 1): its config matrix
    along x, the identity along p."""
    return np.kron(op.config_op.matrix, np.eye(p_grid.n_points))


def lifted_dense(iso, cfg):
    """T a T* for the lift ``iso`` and config operator ``cfg``:
    kron(M, W) with W the rank-one window overlap, p weight included."""
    chi = iso.window.values
    return np.kron(cfg.matrix, np.outer(np.conj(chi), chi) * iso.p_grid.spacing)


def moyal_dense(op, grid):
    """Moyal operator ``op`` on the phase grid ``grid``, column by column
    from its action on the lattice basis."""
    n_x, n_p = grid.shape
    dim = n_x * n_p
    M = np.empty((dim, dim), complex)
    for j, e in enumerate(np.eye(dim)):
        M[:, j] = op.apply(PhaseState(grid, e.reshape(n_x, n_p))).values.reshape(-1)
    return M


def bopp_dense(name, grid):
    """Bopp operator ``name`` from Kronecker products of x, p and the
    spectral derivatives:

      X    = x + (i/2) d/dp        P    = p + (i/2) d/dx
      Xi_x = p - (i/2) d/dx        Xi_p = x - (i/2) d/dp
    """
    Dx = derivative_matrix(grid.x_grid)   # -i d/dx
    Dp = derivative_matrix(grid.p_grid)
    Ix, Ip = np.eye(grid.shape[0]), np.eye(grid.shape[1])
    x, p = np.diag(grid.x_grid.points), np.diag(grid.p_grid.points)
    # (i/2) d/dp = (i/2)(i Dp) = -Dp/2
    terms = {
        "X": np.kron(x, Ip) - 0.5 * np.kron(Ix, Dp),
        "P": np.kron(Ix, p) - 0.5 * np.kron(Dx, Ip),
        "Xi_x": np.kron(Ix, p) + 0.5 * np.kron(Dx, Ip),
        "Xi_p": np.kron(x, Ip) + 0.5 * np.kron(Ix, Dp),
    }
    return terms[name]


def apply_dense(M, Psi):
    """Dense product-lattice matrix ``M`` applied to a phase state."""
    return Psi.with_values((M @ Psi.values.reshape(-1)).reshape(Psi.grid.shape))


def hermiticity_defect(M):
    """max |M - M*| relative to max |M|."""
    return np.abs(M - M.conj().T).max() / np.abs(M).max()


def random_config_state_sum(grid, rng):
    """``states.random_config_state`` in its original form: the complex
    draw built as ``a + 1j*b``, each envelope applied out of place."""
    n = grid.n_points
    frac = max(3.0, float(np.sqrt(np.pi * n / 10.0)))
    spec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    spec *= np.exp(-(grid.dual.points / (grid.dual.half_width / frac)) ** 2)
    vals = np.fft.ifft(np.fft.ifftshift(spec))
    vals = vals * np.exp(-((grid.points - grid.center) / (grid.half_width / frac)) ** 2)
    state = ConfigState(grid, vals)
    return state.with_values(vals / norm_config(state))


def random_phase_state_sum(grid, rng):
    """``states.random_phase_state`` in its original form: the complex
    draw built as ``a + 1j*b`` and each axis's 1-D envelope applied out
    of place, x then p."""
    nx, npnt = grid.shape
    frac = max(3.0, float(np.sqrt(np.pi * min(nx, npnt) / 10.0)))
    gx, gp = grid.x_grid, grid.p_grid
    spec = (rng.standard_normal((nx, npnt))
            + 1j * rng.standard_normal((nx, npnt)))
    spec = (spec * np.exp(-(gx.dual.points / (gx.dual.half_width / frac)) ** 2)[:, None]
            * np.exp(-(gp.dual.points / (gp.dual.half_width / frac)) ** 2)[None, :])
    vals = np.fft.ifft2(np.fft.ifftshift(spec))
    vals = (vals * np.exp(-((gx.points - gx.center) / (gx.half_width / frac)) ** 2)[:, None]
            * np.exp(-((gp.points - gp.center) / (gp.half_width / frac)) ** 2)[None, :])
    state = PhaseState(grid, vals)
    return state.with_values(state.values / norm_phase(state))
