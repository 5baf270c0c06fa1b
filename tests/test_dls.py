import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from magictrap.dls import (
    BOHR_MAGNETON_OVER_H,
    RB87_HYPERFINE_NU0,
    TrapCoefficients,
    coeffs_from_atomic,
    dls,
    dls_minimum,
    effective_field,
    hz_from_kelvin,
    magic_depth,
    zero_crossing_field,
)
from magictrap.errors import (
    ConventionViolationError,
    InvalidArgumentError,
    NoMagicPointError,
    NoZeroCrossingError,
)

MEASURED = TrapCoefficients(3.47e-4, -0.99e-4, 4.6e-12)
THEORY = TrapCoefficients(3.47e-4, -1.03e-4, 4.64e-12)
LINEAR = TrapCoefficients(3.67e-4, 0.0, 0.0)
B0 = 3.115

coeff_strategy = st.builds(
    TrapCoefficients,
    beta1=st.floats(min_value=1e-4, max_value=1e-3),
    beta2=st.floats(min_value=-3e-4, max_value=-1e-5),
    beta4=st.floats(min_value=1e-13, max_value=1e-11),
)


class TestDls:
    def test_matches_direct_arithmetic(self):
        value = dls(MEASURED, B0, -4.0e6)
        oracle = (3.47e-4 + -0.99e-4 * B0) * -4.0e6 + 4.6e-12 * (-4.0e6) ** 2
        assert value == oracle
        assert value == pytest.approx(-80.86, abs=5e-3)

    def test_zero_depth_zero_shift(self):
        assert dls(MEASURED, B0, 0.0) == 0.0
        assert dls(THEORY, 1.0, 0.0) == 0.0

    def test_linear_polarization(self):
        assert dls(LINEAR, B0, -1.0e6) == pytest.approx(-367.0, rel=1e-12)

    def test_positive_depth_rejected(self):
        with pytest.raises(ConventionViolationError):
            dls(MEASURED, B0, 4.0e6)

    @pytest.mark.parametrize("depth", [math.nan, math.inf, -math.inf])
    def test_non_finite_depth_rejected(self, depth):
        with pytest.raises(InvalidArgumentError, match="^trap depth must be finite$"):
            dls(MEASURED, B0, depth)

    @pytest.mark.parametrize("coeffs,b_field,depth", [
        (MEASURED, B0, -1e200),  # beta4 * U**2 overflows
        (TrapCoefficients(1e100, 0.0, 4.6e-12), 0.0, -1e210)])  # inf - inf
    def test_shift_past_float_range_rejected(self, coeffs, b_field, depth):
        with pytest.raises(InvalidArgumentError) as info:
            dls(coeffs, b_field, depth)
        assert str(info.value) == f"shift at depth {depth!r} Hz is past float range"

    @given(coeff_strategy, st.floats(min_value=0.0, max_value=3.4),
           st.floats(min_value=-1e7, max_value=0.0))
    def test_never_below_minimum(self, coeffs, b_field, depth):
        assert dls(coeffs, b_field, depth) >= dls_minimum(coeffs, b_field) - 1e-9


class TestMagicDepth:
    def test_measured_value(self):
        u_magic = magic_depth(MEASURED, B0)
        assert u_magic == pytest.approx(-4.197282608695651e6, rel=1e-12)
        depth_mk = abs(u_magic) / hz_from_kelvin(1e-3)
        assert depth_mk == pytest.approx(0.201, abs=5e-4)

    def test_theory_value(self):
        assert magic_depth(THEORY, B0) == pytest.approx(-2.818426724137929e6,
                                                        rel=1e-12)

    def test_vanishes_at_zero_crossing(self):
        b_cross = zero_crossing_field(MEASURED)
        assert abs(magic_depth(MEASURED, b_cross)) < 1e-6

    def test_no_vertex_without_beta4(self):
        with pytest.raises(NoMagicPointError):
            magic_depth(LINEAR, B0)

    @given(coeff_strategy, st.floats(min_value=0.0, max_value=3.0),
           st.floats(min_value=0.05, max_value=1.0))
    def test_affine_in_field(self, coeffs, b_field, step):
        lo = magic_depth(coeffs, b_field)
        mid = magic_depth(coeffs, b_field + step)
        hi = magic_depth(coeffs, b_field + 2 * step)
        assert hi - mid == pytest.approx(mid - lo, rel=1e-9, abs=1e-3)

    def test_vertex_is_stationary(self):
        # finite-difference slope at the vertex, step |U_M| * 1e-6
        u_magic = magic_depth(MEASURED, B0)
        h = abs(u_magic) * 1e-6
        slope = (dls(MEASURED, B0, u_magic + h)
                 - dls(MEASURED, B0, u_magic - h)) / (2 * h)
        assert abs(slope) < 1e-8 * MEASURED.beta1


class TestDlsMinimum:
    def test_measured_value(self):
        assert dls_minimum(MEASURED, B0) == pytest.approx(-81.04, abs=5e-3)

    def test_zero_at_crossing(self):
        b_cross = zero_crossing_field(MEASURED)
        assert abs(dls_minimum(MEASURED, b_cross)) < 1e-12

    @given(coeff_strategy, st.floats(min_value=0.0, max_value=3.0))
    def test_consistent_with_vertex_evaluation(self, coeffs, b_field):
        vertex = magic_depth(coeffs, b_field)
        assume(vertex <= 0)  # inside the trapping regime B < -beta1/beta2
        at_vertex = dls(coeffs, b_field, vertex)
        assert dls_minimum(coeffs, b_field) == pytest.approx(
            at_vertex, rel=1e-12, abs=1e-20)

    def test_requires_beta4(self):
        with pytest.raises(NoMagicPointError):
            dls_minimum(LINEAR, B0)


class TestZeroCrossing:
    def test_measured(self):
        assert zero_crossing_field(MEASURED) == pytest.approx(3.505, abs=5e-4)

    def test_theory(self):
        assert zero_crossing_field(THEORY) == pytest.approx(3.369, abs=5e-4)

    def test_linear_rejected(self):
        with pytest.raises(NoZeroCrossingError):
            zero_crossing_field(LINEAR)

    def test_crossing_past_float_range_rejected(self):
        # -beta1 / beta2 overflows to -inf for a subnormal beta2
        with pytest.raises(InvalidArgumentError, match="zero_crossing_gauss"):
            zero_crossing_field(TrapCoefficients(3.47e-4, 1e-320, 4.6e-12))


class TestAtomicConstruction:
    # the ratio is weighted by the polarization degree A: sigma+ gives
    # +ratio, sigma- gives -ratio, linear polarization gives 0
    def test_reproduces_theory_coefficients(self):
        built = coeffs_from_atomic(0.2518, 3.47e-4)
        assert built.beta2 == pytest.approx(-1.03e-4, rel=5e-3)
        assert built.beta4 == pytest.approx(4.64e-12, rel=5e-3)
        assert built.beta1 == 3.47e-4
        # the values the sigma+ (A = 1) construction has always given
        assert built.beta2 == -0.00010312855631949697
        assert built.beta4 == 4.638345597640219e-12

    def test_zero_polarization(self):
        built = coeffs_from_atomic(0.0, 3.47e-4)
        assert built.beta2 == 0.0
        assert built.beta4 == 0.0

    def test_polarization_parity(self):
        plus = coeffs_from_atomic(0.2518, 3.47e-4)
        minus = coeffs_from_atomic(-0.2518, 3.47e-4)
        assert minus.beta2 == -plus.beta2
        assert minus.beta4 == plus.beta4

    @given(st.floats(min_value=0.0025, max_value=0.5))
    def test_ratio_free_identity(self, ratio):
        built = coeffs_from_atomic(ratio, 3.47e-4)
        identity = built.beta2**2 / built.beta4
        expected = 8.0 * BOHR_MAGNETON_OVER_H**2 / RB87_HYPERFINE_NU0
        assert identity == pytest.approx(expected, rel=1e-9)

    def test_identity_numeric_value(self):
        expected = 8.0 * BOHR_MAGNETON_OVER_H**2 / RB87_HYPERFINE_NU0
        assert expected == pytest.approx(2292.9, rel=1e-4)

    @given(st.floats(min_value=0.0125, max_value=0.2518),
           st.floats(min_value=0.0, max_value=3.4),
           st.floats(min_value=-5e6, max_value=0.0))
    def test_field_polarization_symmetry(self, ratio, b_field, depth):
        plus = coeffs_from_atomic(ratio, 3.47e-4)
        minus = coeffs_from_atomic(-ratio, 3.47e-4)
        assert dls(plus, b_field, depth) == dls(minus, -b_field, depth)


class TestEffectiveField:
    def test_reference_point(self):
        depth = -hz_from_kelvin(0.6e-3)
        assert effective_field(0.2518, depth) == pytest.approx(1.120, rel=0.01)
        assert effective_field(0.2518, -1.2502e7) == pytest.approx(1.125, abs=5e-4)

    def test_zero_depth(self):
        assert effective_field(0.2518, 0.0) == 0.0

    @given(st.floats(min_value=-2e7, max_value=0.0))
    def test_linear_in_depth(self, depth):
        full = effective_field(0.2518, depth)
        half = effective_field(0.2518, depth / 2.0)
        assert full == pytest.approx(2.0 * half, rel=1e-12, abs=1e-30)

    def test_positive_depth_rejected(self):
        with pytest.raises(ConventionViolationError):
            effective_field(0.2518, 1.0)


class TestCoefficientValidation:
    def test_negative_beta4_rejected(self):
        with pytest.raises(InvalidArgumentError):
            TrapCoefficients(3.47e-4, -0.99e-4, -1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidArgumentError):
            TrapCoefficients(math.nan, -0.99e-4, 4.6e-12)
        for ratio in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidArgumentError, match="vector_to_scalar_ratio"):
                coeffs_from_atomic(ratio, 3.47e-4)


@pytest.mark.parametrize("module", ["dls", "errors", "svg"])
def test_numpy_free_module_imports_without_numpy(module):
    # the package __init__ imports nothing, so the scalar model costs no
    # numpy start-up
    code = (f"import sys\n"
            f"import magictrap.{module}\n"
            f"assert 'numpy' not in sys.modules, sorted(sys.modules)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
