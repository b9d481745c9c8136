import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from condibeam import polynomials as poly


def brute_jacobi(m, b, c, z):
    """Independent reference: the defining sum with falling-factorial binomials."""
    def binom(r, k):
        out = 1.0
        for i in range(k):
            out *= (r - i)
        return out / math.factorial(k)
    return 2.0 ** -m * sum(binom(m + b, j) * binom(m + c, m - j)
                           * (z - 1.0) ** (m - j) * (z + 1.0) ** j
                           for j in range(m + 1))


def sum_laguerre(n, a, z):
    """Reference L_n^a(z) by its finite sum, sum_j C(n+a, n-j) (-z)^j / j!.

    Its terms alternate and cancel, so it is a reference for small n only.
    """
    out = 0.0
    term = 1.0  # (-z)^j / j!
    for j in range(n + 1):
        out += math.comb(n + a, n - j) * term
        term *= -z / (j + 1)
    return out


def full_laguerre_table(nmax, a, x):
    """The normalized Laguerre recurrence over every (degree, parameter) pair,
    written out as one loop over the degree: the square table the
    triangular rows of ``laguerre_rows`` are cut from."""
    a, x = np.asarray(a), np.asarray(x)
    with np.errstate(divide="ignore"):
        log_x = np.log(np.where(a == 0, 1.0, x))
    u = np.empty((nmax + 1,) + np.broadcast(a, x).shape)
    u[0] = np.exp(0.5 * (a * log_x - poly.log_factorial(a)))
    prev = 0.0
    for j in range(nmax):
        u[j + 1] = (((2 * j + 1 + a - x) * u[j] - np.sqrt(j * (j + a)) * prev)
                    / np.sqrt((j + 1) * (j + 1 + a)))
        prev = u[j]
    return u


def assoc_laguerre(nmax, a, x):
    """Normalized associated Laguerre values for degrees j = 0..nmax.

    The rows of ``laguerre_rows`` over the parameters ``a``, stacked:
    u_j^a(x) = sqrt(j!/(j+a)!) x^(a/2) L_j^a(x).  ``a`` and ``x`` broadcast;
    returns shape (nmax+1,) + broadcast shape of (a, x).  The square table
    the reference routes of the tests read.
    """
    return np.stack(list(poly.laguerre_rows(nmax, x, a)))


class TestLaguerreRows:
    """The triangular rows: degree j over the parameters a = 0..nmax - j."""

    @pytest.mark.parametrize("nmax", [128, 512, 1024])
    def test_triangle_is_bit_identical_to_the_full_recurrence(self, nmax):
        for x in (0.0, 0.37, nmax / 2, 1.3 * nmax):
            full = full_laguerre_table(nmax, np.arange(nmax + 1), x)
            rows = list(poly.laguerre_rows(nmax, x))
            assert [row.shape for row in rows] == [(nmax + 1 - j,) for j in range(nmax + 1)]
            for j, row in enumerate(rows):
                assert np.array_equal(row, full[j, :nmax + 1 - j]), (x, j)

    def test_array_argument(self):
        # one parameter axis in front of the argument's shape
        x = np.array([[0.0, 2.5, 40.0], [7.0, 0.1, 128.0]])
        full = full_laguerre_table(128, np.arange(129)[:, None, None], x)
        for j, row in enumerate(poly.laguerre_rows(128, x)):
            assert row.shape == (129 - j, 2, 3)
            assert np.array_equal(row, full[j, :129 - j])

    def test_given_parameters_are_the_square_table(self):
        x = np.linspace(0, 30, 7)
        a = np.array([0, 3, 11])[:, None]
        assert np.array_equal(assoc_laguerre(60, a, x), full_laguerre_table(60, a, x))

    def test_running_integers_at_high_degree(self):
        # given parameters up to 1024 and degrees up to 1024: the running
        # 2j+1+a and (j+1)(j+1+a) round as the formula written out does
        x = np.array([0.0, 0.37, 40.0, 512.0, 1331.2])
        a = np.array([0, 1, 7, 100, 513, 1024])[:, None]
        assert np.array_equal(assoc_laguerre(1024, a, x), full_laguerre_table(1024, a, x))

    def test_early_stop_computes_nothing_further(self):
        rows = poly.laguerre_rows(1000, 3.0)
        first = [next(rows) for _ in range(3)]
        assert [r.size for r in first] == [1001, 1000, 999]
        assert np.array_equal(first[2], full_laguerre_table(2, np.arange(999), 3.0)[2])

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError, match="nmax >= 0"):
            next(poly.laguerre_rows(-1, 1.0))


def per_degree_recurrence(nmax, x, a, u, triangle, exponent=None):
    """The rows of ``laguerre_rows`` from its row 0, one degree at a time,
    each step forming its own operands: 2j+1+a and (j+1)(j+1+a) as running
    integers, and the root of the second, kept for the next step."""
    prev = 0.0
    yield u if exponent is None else poly._folded(u, exponent)
    lead, norm, root = 1 + a, 1 + a, 0.0  # 2j+1+a, (j+1)(j+1+a), sqrt(j(j+a))
    for j in range(nmax):
        if triangle:  # degree j + 1 keeps the parameters a <= nmax - j - 1
            keep = nmax - j
            u, lead, norm = u[:keep], lead[:keep], norm[:keep]
            if j:
                prev, root = prev[:keep], root[:keep]
        denom = np.sqrt(norm)
        u, prev = ((lead - x) * u - root * prev) / denom, u
        root = denom
        lead += 2
        norm += lead
        if exponent is not None:
            u, prev, exponent = poly._renormalized(u, prev, exponent)
        yield u if exponent is None else poly._folded(u, exponent)


def _grid_radii(points, half):
    """The distinct |z|^2 = 2 (x^2 + p^2) of a square grid, as the Wigner sum
    runs its triangle over them."""
    axis = np.linspace(-half, half, points) ** 2
    return np.unique(2.0 * np.add.outer(axis, axis))


SCALED_Z = np.array([2300.0, -2300.0, 2300j, 1600 * np.exp(2.5j), 40.0 - 300j])
# name -> a call whose rows (or values) the operand tables must leave unchanged
TABLED_CASES = {
    "scalar x": lambda: list(poly.laguerre_rows(300, 37.5)),
    "scalar x = 0": lambda: list(poly.laguerre_rows(80, 0.0)),
    "wigner triangle": lambda: list(poly.laguerre_rows(20, _grid_radii(81, 9.0))),
    "bands at cutoff 192": lambda: list(poly.laguerre_rows(192, np.array([[0.09], [0.04]]),
                                                           np.arange(96))),
    "bands at cutoff 2048": lambda: list(poly.laguerre_rows(2048, np.array([[0.45], [2.0]]),
                                                            np.arange(176))),
    "complex x at a = 0": lambda: list(poly.laguerre_rows(
        20, 3.2 * np.exp(0.7j) * (np.linspace(-5, 5, 41) + 1j * np.linspace(-5, 5, 41)[:, None]
                                  + 3.2 * np.exp(-0.7j)), 0)),
    "complex product, scaled": lambda: [poly._laguerre_times(  # e^s ~ 1 / |L_800(z)|
        800, SCALED_Z, np.array([-1145.3, -1855.4, -1712.7, -1609.3, -651.3]))],
    "past the shift, x = 1600": lambda: list(poly.laguerre_rows(2048, 1600.0)),
    "D(16) on 4417 levels": lambda: [row for _, row in zip(range(2049),
                                                          poly.laguerre_rows(4416, 256.0))],
    "stopped after top + 1 rows": lambda: [row for _, row in zip(range(101),
                                                                poly.laguerre_rows(622, 25.0))],
}


@pytest.mark.parametrize("case", list(TABLED_CASES))
def test_operand_tables_leave_every_row_bit_identical(monkeypatch, case):
    # the tabled operands round as the running integers and roots of the
    # per-degree recurrence do, so every row is the same to the bit
    got = TABLED_CASES[case]()
    with monkeypatch.context() as patch:
        patch.setattr(poly, "_recurrence", per_degree_recurrence)
        ref = TABLED_CASES[case]()
    assert len(got) == len(ref)
    for j, (row, want) in enumerate(zip(got, ref)):
        assert row.dtype == want.dtype and np.array_equal(row, want), (case, j)


def laguerre_reference(j, a, x):
    """u_j^a(x) = sqrt(j!/(j+a)!) x^(a/2) L_j^a(x) at 60 digits, an mpmath float."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        x = mpmath.mpf(x)
        return (mpmath.sqrt(mpmath.factorial(j) / mpmath.factorial(j + a))
                * x ** (mpmath.mpf(a) / 2) * mpmath.laguerre(j, a, x))


def carried_parameters(monkeypatch):
    """Record how many parameters each ``laguerre_rows`` call carries on
    scaled values, which it starts with one ``_scaled`` call."""
    seen = []
    original = poly._scaled

    def recording(log_value):
        seen.append(np.size(log_value))
        return original(log_value)

    monkeypatch.setattr(poly, "_scaled", recording)
    return seen


class TestLaguerreCarry:
    """Starts that underflow, and the e^(x/2) growth past x = 1386."""

    @pytest.mark.parametrize("j, a, x", [(768, 256, 0.37), (10, 300, 5.0), (100, 50, 1.0),
                                         (2048, 1700, 256.0), (0, 40, 3.0), (500, 0, 20.0)])
    def test_start_bound_against_mpmath(self, j, a, x):
        # |u_j^a(x)| <= sqrt(C(j+a, j)) u_0^a(x) e^(x/2), the bound that picks
        # the carried parameters; within a factor 4 at the first point
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            x = mpmath.mpf(x)
            bound = (mpmath.sqrt(mpmath.binomial(j + a, j)) * x ** (mpmath.mpf(a) / 2)
                     / mpmath.sqrt(mpmath.factorial(a)) * mpmath.exp(x / 2))
            assert abs(laguerre_reference(j, a, x)) <= bound

    @pytest.mark.parametrize("nmax, x", [(238, 0.09), (238, 1.0), (400, 0.3), (1100, 4.0),
                                         (512, 0.37), (1024, 0.37), (1024, 40.0)])
    def test_nothing_is_carried_where_nothing_comes_back(self, monkeypatch, nmax, x):
        # the bound keeps every underflowing start below 2^-500 e^(x/2) here,
        # so the rows are the plain recurrence's at no extra cost
        seen = carried_parameters(monkeypatch)
        for _ in poly.laguerre_rows(nmax, x):
            pass
        assert seen == []

    def test_far_columns_of_a_displacement_come_back(self, monkeypatch):
        # <j+a|D(16)|j> at j = 2048: the starts underflow from a ~ 1690, while
        # the elements near the turning point a ~ 1700 are of order 1e-2
        seen = carried_parameters(monkeypatch)
        rows = [row for _, row in zip(range(2049), poly.laguerre_rows(4416, 256.0))]
        assert seen and seen[0] > 500
        assert rows[0][1700] == 0.0  # the start itself is below the float range
        for a in (1650, 1700, 1760, 2000):
            ref = laguerre_reference(2048, a, 256.0)
            assert abs(rows[2048][a] - float(ref)) <= 1e-11 * abs(float(ref)), a

    def test_rows_past_the_shift(self):
        # at x = 1600 e^(x/2) overflows; the rows are u_j^a(x) 2^-E
        mpmath = pytest.importorskip("mpmath")
        shift = int(poly._laguerre_shift(1600.0))
        assert shift == round(800 / math.log(2.0)) and poly._laguerre_shift(1331.2) == 0
        rows = [row for _, row in zip(range(41), poly.laguerre_rows(2048, 1600.0))]
        for j, a in ((0, 1600), (40, 1560), (40, 0), (0, 3000 - 2048)):
            ref = float(laguerre_reference(j, a, 1600.0) / mpmath.mpf(2) ** shift)
            assert abs(rows[j][a] - ref) <= 1e-12 * abs(ref), (j, a)

    def test_complex_product_past_the_float_range(self, monkeypatch):
        # L_800(z) reaches e^1855 at |z| = 2300 and its scale e^s is below the
        # float range: the product is carried on scaled values
        mpmath = pytest.importorskip("mpmath")
        seen = carried_parameters(monkeypatch)
        z = np.array([2300.0, -2300.0, 2300j, 1600 * np.exp(2.5j), 40.0 - 300j])
        with mpmath.workdps(40):
            ref = [mpmath.laguerre(800, 0, mpmath.mpc(v.real, v.imag)) for v in z]
            s = 0.5 - np.array([float(mpmath.log(abs(r))) for r in ref])
            exact = np.array([complex(r * mpmath.exp(si)) for r, si in zip(ref, s)])
        got = poly._laguerre_times(800, z, s)
        assert seen == [z.size]
        assert np.all(np.abs(got - exact) <= 1e-10 * np.abs(exact))

    def test_complex_product_in_range_is_the_plain_row(self, monkeypatch):
        # the chi Husimi arguments of n = 20, |beta|^2 = 10 on a +-5 grid:
        # 2 sqrt(n max|z|) ~ 51 < 500 ln 2, so the last row times np.exp(s),
        # with no scaled recurrence (which would call _renormalized)
        monkeypatch.delattr(poly, "_renormalized")
        alpha = np.linspace(-5, 5, 9)[:, None] + 1j * np.linspace(-5, 5, 9)
        beta = math.sqrt(10.0) * np.exp(0.7j)
        z = beta * (np.conj(alpha) + np.conj(beta))
        s = -0.5 * (np.abs(alpha) ** 2 + 30.0)
        for row in poly.laguerre_rows(20, z, 0):
            pass
        assert np.array_equal(poly._laguerre_times(20, z, s), row * np.exp(s))


class TestLaguerre:
    """``assoc_laguerre`` gives u_j = sqrt(j!/(j+a)!) x^(a/2) L_j^a(x), j <= nmax."""

    def test_at_zero(self):
        assert np.all(assoc_laguerre(5, 0, 0.0) == 1.0)
        assert np.all(assoc_laguerre(5, 3, 0.0) == 0.0)

    def test_degree_one(self):
        # L_1(z) = 1 - z
        assert assoc_laguerre(1, 0, 0.5)[1] == pytest.approx(0.5)

    def test_complex_argument(self):
        z = 0.3 + 0.8j
        assert np.allclose(assoc_laguerre(2, 0, z),
                           [1.0, 1.0 - z, 1.0 - 2.0 * z + z * z / 2.0])

    def test_vectorized(self):
        z = np.linspace(0, 3, 5)
        assert np.allclose(assoc_laguerre(1, 0, z)[1], 1 - z)
        a = np.arange(4)
        table = assoc_laguerre(3, a[:, None], z)
        assert table.shape == (4, 4, 5)
        for i in a:
            assert np.array_equal(table[:, i], assoc_laguerre(3, i, z))

    @given(st.integers(min_value=0, max_value=12),
           st.integers(min_value=0, max_value=12),
           st.floats(min_value=0, max_value=2, allow_nan=False))
    def test_sum_matches_recurrence(self, n, a, z):
        scale = math.sqrt(math.factorial(n) / math.factorial(n + a)) * z ** (a / 2)
        ref = scale * sum_laguerre(n, a, z)
        assert assoc_laguerre(n, a, z)[n] == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_matches_mpmath(self):
        """Within 1e-12 of the normalized scale e^(x/2) for a, j <= 200, x <= 300."""
        mpmath = pytest.importorskip("mpmath")
        for x in (0.0, 0.3, 7.5, 60.0, 170.0, 300.0):
            for a in (0, 1, 2, 17, 64, 150, 200):
                u = assoc_laguerre(200, a, x) * math.exp(-x / 2)
                for j in (*range(0, 200, 9), 200):
                    with mpmath.workdps(40):
                        xm = mpmath.mpf(x)
                        ref = (mpmath.sqrt(mpmath.factorial(j) / mpmath.factorial(j + a))
                               * xm ** (mpmath.mpf(a) / 2) * mpmath.laguerre(j, a, xm)
                               * mpmath.exp(-xm / 2))
                    assert abs(u[j] - float(ref)) < 1e-12, (x, a, j)


class TestJacobi:
    """Integer b >= 0, integer c >= -m (scalar or array) and real z."""

    def test_degree_zero(self):
        assert poly.jacobi(0, 2, 5, 0.3) == 1.0

    @pytest.mark.parametrize("b, c, z", [
        (0, 0, 0.3), (2, 5, -1.0), (7, np.arange(9), 0.95), (3, np.array([[0, 4], [1, 2]]), -0.4)])
    def test_degree_zero_matches_the_general_path(self, b, c, z):
        # the general path reads P_0 = 1 from its recurrence table and the
        # Szego prefactor e^0 ((1+z)/2)^0 = 1: exact ones, a float for a scalar c
        value = poly.jacobi(0, b, c, z)
        assert np.array_equal(value, np.ones(np.shape(c))) and np.shape(value) == np.shape(c)
        assert type(value) is float if np.ndim(c) == 0 else value.dtype == np.float64
        with pytest.raises(ValueError, match="jacobi needs"):
            poly.jacobi(0, b, -1, z)

    def test_endpoint_identity(self):
        # P_m^(b,c)(1) = C(m+b, m)
        for m, b, c in [(3, 2, 1), (4, 1, 7), (2, 0, -2), (5, 3, -4)]:
            assert poly.jacobi(m, b, c, 1.0) == pytest.approx(math.comb(m + b, m))

    def test_prefactor_base_from_the_caller(self):
        # z = (u - 1)/(u + 1) at u = 1e-10: 1 + z in floats keeps ~6 digits of
        # (1 + z)/2 = u/(1 + u), the base of Szego's prefactor for c < 0, which
        # the caller passes as w; c >= 0 has no prefactor
        mpmath = pytest.importorskip("mpmath")
        u = 1e-10
        z, w = (u - 1) / (u + 1), u / (1 + u)
        c = np.array([-3, -1, 0, 2])
        with mpmath.workdps(50):
            exact = (mpmath.mpf(u) - 1) / (mpmath.mpf(u) + 1)
            ref = np.array([float(mpmath.jacobi(4, 2, int(ci), exact)) for ci in c])
        assert np.max(np.abs(poly.jacobi(4, 2, c, z, w) / ref - 1)) <= 1e-13
        assert abs(poly.jacobi(4, 2, -3, z) / ref[0] - 1) > 1e-9

    def test_negative_integer_parameter(self):
        for c in (-1, -2, -3):
            assert poly.jacobi(3, 1, c, 0.4) == pytest.approx(brute_jacobi(3, 1, c, 0.4))

    def test_against_brute_sum_random(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            m = int(rng.integers(0, 13))
            b = int(rng.integers(0, 6))
            c = int(rng.integers(-m, 13))
            z = rng.uniform(-2, 2)
            val = poly.jacobi(m, b, c, z)
            ref = brute_jacobi(m, b, c, z)
            assert val == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_array_parameter_matches_scalar_calls(self):
        for m, b, z in [(0, 2, 0.4), (3, 1, -0.7), (5, 4, 2.5)]:
            c = np.arange(-m, 5)
            ref = [poly.jacobi(m, b, ci, z) for ci in c]
            assert np.allclose(poly.jacobi(m, b, c, z), ref, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("m, b, c, z", [
        (-1, 0, 0, 0.5), (2, -1, 0, 0.5), (2, 1.5, 0, 0.5), (2, 0, -3, 0.5),
        (2, 0, np.array([0.5, 1.0]), 0.5), (2, 0, 1, 0.5 + 0.1j)])
    def test_rejects_outside_domain(self, m, b, c, z):
        with pytest.raises(ValueError, match="jacobi needs"):
            poly.jacobi(m, b, c, z)

    def test_matches_mpmath(self):
        """Within 1e-12 of the running maximum of |P| over c, up to m = 100."""
        mpmath = pytest.importorskip("mpmath")

        def defining_sum(m, b, c, z):
            z = mpmath.mpf(z)
            return mpmath.fsum(math.comb(m + b, j) * math.comb(m + c, m - j)
                               * (z - 1) ** (m - j) * (z + 1) ** j
                               for j in range(m + 1)) / 2 ** m

        for m in (7, 30, 64, 100):
            # c sampled: its negative range with stride m // 8, then up to 200
            c = np.unique(np.r_[np.arange(-m, 0, max(1, m // 8)), -1, 0,
                                np.arange(1, 201, 13)])
            for b in (0, 1, 5, 20):
                for z in (-1.0, -0.9, -0.3, 0.0, 0.5, 0.95, 1.0):
                    with mpmath.workdps(60):
                        ref = np.array([float(defining_sum(m, b, int(ci), z)) for ci in c])
                    scale = np.maximum.accumulate(np.abs(ref))
                    err = np.abs(poly.jacobi(m, b, c, z) - ref)
                    assert np.all(err <= 1e-12 * scale), (m, b, z)


def test_log_factorial():
    assert poly.log_factorial(0) == 0.0
    assert poly.log_factorial(5) == pytest.approx(math.log(120))
    with pytest.raises(ValueError):
        poly.log_factorial(-1)


def test_log_factorial_table_is_built_once():
    # a second round of mixed lengths reads the table the first round left
    # and builds nothing
    lengths = [26, 1312, 3, 700, 97, 1312, 41]
    for n in lengths:
        poly.log_factorial(np.arange(n))
    table = poly._LOG_FACTORIALS
    for n in reversed(lengths):
        assert np.array_equal(poly.log_factorial(np.arange(n)), table[:n])
    assert poly._LOG_FACTORIALS is table
    assert not table.flags.writeable
    # a longer request swaps in a longer table and leaves this one as it was
    before = table.copy()
    poly.log_factorial(np.arange(len(table) + 5))
    longer = poly._LOG_FACTORIALS
    assert longer is not table and np.array_equal(table, before)
    assert all(longer[j] == math.lgamma(j + 1) for j in range(len(longer)))
