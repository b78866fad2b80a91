import numpy as np
import pytest

from psqm import (ConfigState, make_grid, forward_ft, inverse_ft, norm_config,
                  hermite_state, random_config_state, inner_config,
                  GridMismatchError)
from psqm import fourier
from oracles import lattice_shear_out_of_place, quadrature_ft


def test_gaussian_is_ft_fixed_point_against_quadrature():
    g = make_grid(256, 12.0)
    psi = ConfigState(g, np.exp(-g.points ** 2 / 2) / np.pi ** 0.25)
    hat = forward_ft(psi)
    oracle = quadrature_ft(lambda x: np.exp(-x ** 2 / 2) / np.pi ** 0.25,
                           hat.grid.points)
    assert np.abs(hat.values - oracle).max() < 1e-10
    # and the fixed-point statement itself
    assert np.abs(hat.values - np.exp(-hat.grid.points ** 2 / 2) / np.pi ** 0.25).max() < 1e-10


def test_impulse_has_flat_spectrum():
    g = make_grid(64, 6.0)
    v = np.zeros(64)
    v[17] = 1.0
    hat = forward_ft(ConfigState(g, v))
    mags = np.abs(hat.values)
    assert np.abs(mags - mags[0]).max() < 1e-14


def test_unitarity_and_roundtrip(rng):
    g = make_grid(128, 9.0)
    psi = ConfigState(g, rng.standard_normal(128) + 1j * rng.standard_normal(128))
    hat = forward_ft(psi)
    assert abs(norm_config(hat) - norm_config(psi)) < 1e-12
    back = inverse_ft(hat, g)
    assert np.abs(back.values - psi.values).max() < 1e-12


def test_inverse_of_gaussian_fixed_point():
    g = make_grid(256, 12.0)
    vals = np.exp(-g.dual.points ** 2 / 2) / np.pi ** 0.25
    spec = ConfigState(g.dual, vals)
    back = inverse_ft(spec, g)
    oracle = quadrature_ft(lambda x: np.exp(-x ** 2 / 2) / np.pi ** 0.25, g.points)
    # inverse of the Gaussian equals the same Gaussian (conjugate oracle)
    assert np.abs(back.values - np.conj(oracle)).max() < 1e-10


def test_ft_isometry_property_over_grids(rng):
    for n, hw in [(64, 7.0), (128, 11.0), (256, 10.0)]:
        g = make_grid(n, hw)
        psi = random_config_state(g, rng)
        phi = random_config_state(g, rng)
        lhs = inner_config(forward_ft(psi), forward_ft(phi))
        assert abs(lhs - inner_config(psi, phi)) < 1e-12


def test_upsample2_even_samples_exact_odd_samples_at_midpoints():
    # trigonometric polynomial strictly inside the band of the 32-point
    # lattice on [0, 2*pi): frequencies |k| <= 5 < 16
    n = 32

    def f(t):
        return (0.7 + np.cos(3 * t) - 0.4j * np.sin(5 * t)
                + (0.2 + 0.1j) * np.exp(-2j * t))

    t = 2 * np.pi * np.arange(n) / n
    up = fourier.upsample2(f(t))
    assert up.shape == (2 * n,)
    assert np.array_equal(up[0::2], f(t))
    assert np.abs(up[1::2] - f(t + np.pi / n)).max() < 1e-13
    # along the first axis of a 2-D field, columns scaled independently
    c = np.array([1.0, 2j, -0.5])
    up2 = fourier.upsample2(np.outer(f(t), c), axis=0)
    assert np.array_equal(up2[0::2], np.outer(f(t), c))
    assert np.abs(up2[1::2] - np.outer(f(t + np.pi / n), c)).max() < 1e-13


def _half_shift_c2c(values, axis):
    # the plain complex route: one FFT pair along ``axis``, Nyquist dropped
    n = values.shape[axis]
    k = np.fft.fftfreq(n, 1.0 / n)
    mult = np.where(k == -n / 2, 0.0, np.exp(1j * np.pi * k / n))
    shp = [1] * values.ndim
    shp[axis] = n
    return np.fft.ifft(np.fft.fft(values, axis=axis) * mult.reshape(shp), axis=axis)


@pytest.mark.parametrize("shape", [(64, 64), (128, 64), (9, 12)])
@pytest.mark.parametrize("axis", [0, 1])
def test_half_shift_and_upsample2_equal_the_complex_route_bit_for_bit(shape, axis, rng):
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = _half_shift_c2c(v, axis)
    pair = np.stack([v, want], axis=axis + 1).reshape(
        tuple(2 * m if d == axis else m for d, m in enumerate(shape)))
    for spectrum in (None, fourier.axis_spectrum(v, axis)):
        assert np.array_equal(fourier.half_shift(v, axis, spectrum), want)
        assert np.array_equal(fourier.upsample2(v, axis, spectrum), pair)
    assert np.array_equal(fourier.axis_spectrum(v, axis), np.fft.fft(v, axis=axis))


@pytest.mark.parametrize("shape", [(64, 64), (128, 64), (9, 12)])
@pytest.mark.parametrize("axis", [0, 1])
def test_half_shift_of_real_values_is_real(shape, axis, rng):
    v = rng.standard_normal(shape)
    spectrum = fourier.axis_spectrum(v, axis)
    assert np.array_equal(spectrum, np.fft.rfft(v, axis=axis))
    got = fourier.half_shift(v, axis)
    assert got.dtype == np.float64
    assert np.array_equal(fourier.half_shift(v, axis, spectrum), got)
    assert np.abs(got - _half_shift_c2c(v, axis)).max() < 1e-14
    up = fourier.upsample2(v, axis)
    assert up.dtype == np.float64
    assert np.array_equal(np.take(up, np.arange(0, 2 * shape[axis], 2), axis=axis), v)
    # the band-edge guard reads rfft halves of real values
    assert abs(fourier.band_edge_fraction(v) - fourier.band_edge_fraction(v + 0j)) < 1e-14


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("axis", [0, 1])
def test_lattice_shear_is_the_half_cell_fourier_shift(n, axis, rng):
    # full-band random complex data: the Nyquist convention shows
    g = make_grid(n, 5.0)
    v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    for steps in (2 * rng.integers(-n, n, n),          # whole cells only
                  2 * rng.integers(-n, n, n) + 1,      # every count odd
                  rng.integers(-3 * n, 3 * n, n)):     # mixed
        got = fourier.lattice_shear(v.copy(), steps, axis)
        want = fourier.fourier_shift(v, g, steps * g.spacing / 2, axis=axis)
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()
    # whole cells are exact index rolls
    steps = 2 * rng.integers(-n, n, n)
    got = fourier.lattice_shear(v.copy(), steps, axis)
    j = 5
    want = np.roll(np.take(v, j, axis=1 - axis), steps[j] // 2)
    assert np.array_equal(np.take(got, j, axis=1 - axis), want)


@pytest.mark.parametrize("shape", [(8, 16), (16, 8)])
@pytest.mark.parametrize("axis", [0, 1])
def test_lattice_shear_on_real_and_non_square_fields(shape, axis, rng):
    n = shape[axis]
    g = make_grid(n, 3.0)
    v = rng.standard_normal(shape)
    steps = rng.integers(-3 * n, 3 * n, shape[1 - axis])
    got = fourier.lattice_shear(v + 0j, steps, axis)
    want = fourier.fourier_shift(v, g, steps * g.spacing / 2, axis=axis)
    assert got.shape == shape and got.flags.c_contiguous
    assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()
    assert np.array_equal(fourier.lattice_shear(np.asfortranarray(v + 0j), steps, axis), got)


@pytest.mark.parametrize("shape", [(64, 64), (9, 12), (15, 7)])
def test_band_edge_fraction_from_given_spectra_is_bit_identical(shape, rng):
    # noise with a Gaussian-damped spectrum: a band-edge fraction
    # strictly between 0 and 1
    k = [np.fft.fftfreq(m, 1.0 / m) / (m / 4) for m in shape]
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    v = np.fft.ifft2(np.fft.fft2(noise) * np.exp(-np.add.outer(k[0] ** 2, k[1] ** 2)))
    # reference: the outer quarter read from the centred (fftshift) spectra
    want = 0.0
    for axis, m in enumerate(shape):
        spec = np.fft.fftshift(np.fft.fft(v, axis=axis), axes=axis)
        outer = np.compress(np.abs(np.arange(m) - m // 2) >= 0.75 * (m // 2), spec, axis=axis)
        want = max(want, np.abs(outer).max() / np.abs(spec).max())
    assert 0.0 < want < 1.0
    assert fourier.band_edge_fraction(v) == want
    spectra = (np.fft.fft(v, axis=0), np.fft.fft(v, axis=1))
    assert fourier.band_edge_fraction(v, spectra) == want


@pytest.mark.parametrize("shape", [(100, 100), (130, 70), (70, 130)])
def test_band_edge_fraction_from_spectrum_blocks_is_bit_identical(shape, rng):
    # each axis's spectrum given as blocks of 64 lines along the other axis
    k = [np.fft.fftfreq(m, 1.0 / m) / (m / 4) for m in shape]
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    v = np.fft.ifft2(np.fft.fft2(noise) * np.exp(-np.add.outer(k[0] ** 2, k[1] ** 2)))
    want = fourier.band_edge_fraction(v)
    assert 0.0 < want < 1.0
    cols = (np.fft.fft(v[:, lo:lo + 64], axis=0) for lo in range(0, shape[1], 64))
    rows = (np.fft.fft(v[lo:lo + 64], axis=1) for lo in range(0, shape[0], 64))
    assert fourier.band_edge_fraction(v, (cols, rows)) == want


@pytest.mark.parametrize("shape", [(100, 100), (130, 70), (70, 130), (200, 33)])
@pytest.mark.parametrize("axis", [0, 1])
def test_blocked_lattice_shear_equals_the_out_of_place_route_byte_for_byte(shape, axis, rng):
    # sizes that are not multiples of the 64-slice block
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    n = shape[axis]
    steps = rng.integers(-3 * n, 3 * n, shape[1 - axis])
    got = fourier.lattice_shear(v.copy(), steps, axis)
    assert got.tobytes() == lattice_shear_out_of_place(v, steps, axis).tobytes()


def test_lattice_shear_refuses_mismatched_steps():
    with pytest.raises(ValueError):
        fourier.lattice_shear(np.zeros((8, 8)), np.zeros(4, int), 0)


@pytest.mark.parametrize("axis", [0, 1])
def test_lattice_shear_shears_its_argument_in_place(axis, rng):
    v = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    steps = rng.integers(-48, 48, 16)
    want = fourier.lattice_shear(v.copy(), steps, axis)
    assert fourier.lattice_shear(v, steps, axis) is v
    assert np.array_equal(v, want)
    with pytest.raises(ValueError, match="complex"):
        fourier.lattice_shear(v.real.copy(), steps, axis)


def test_transforms_refuse_wrong_axis_length():
    g = make_grid(64, 8.0)
    with pytest.raises(GridMismatchError):
        fourier.ft_array(np.zeros(32), g)
    with pytest.raises(GridMismatchError):
        fourier.ift_array(np.zeros(32), g.dual, g)


def test_inverse_transforms_refuse_non_dual_grids():
    g = make_grid(64, 8.0)
    other = make_grid(64, 9.0)
    with pytest.raises(GridMismatchError):
        inverse_ft(forward_ft(hermite_state(g, 0)), other)
