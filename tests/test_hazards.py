import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from frailty_shapes import (
    ExponentialRate,
    LengthMismatch,
    ParameterOutOfRange,
    PiecewiseConstant,
    Weibull,
    generic_time,
    hazard_from_dict,
    hazard_to_dict,
)

HAZARDS = [
    ExponentialRate(rate=0.7),
    Weibull(shape=1.5, scale=2.0),
    Weibull(shape=0.8, scale=0.5),
    PiecewiseConstant(breakpoints=(1.0, 2.5), rates=(0.5, 1.25, 2.0)),
]


@pytest.mark.parametrize("hz", HAZARDS, ids=lambda h: type(h).__name__)
def test_cumulative_starts_at_zero_and_increases(hz):
    t = np.linspace(0.0, 6.0, 41)
    h = np.asarray(hz.cumulative(t))
    assert h[0] == 0.0
    assert np.all(np.diff(h) > 0.0)


@pytest.mark.parametrize("hz", HAZARDS, ids=lambda h: type(h).__name__)
def test_inverse_round_trip(hz):
    t = np.linspace(0.01, 7.0, 57)
    back = np.asarray(hz.inverse_cumulative(hz.cumulative(t)))
    assert_allclose(back, t, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("hz", HAZARDS, ids=lambda h: type(h).__name__)
def test_infinite_target_never_fires(hz):
    assert np.isposinf(hz.inverse_cumulative(np.inf))


def test_exponential_closed_form():
    hz = ExponentialRate(rate=2.0)
    assert_allclose(hz.cumulative(1.5), 3.0, rtol=1e-15)
    assert_allclose(hz.inverse_cumulative(3.0), 1.5, rtol=1e-15)


def test_weibull_closed_form():
    hz = Weibull(shape=2.0, scale=3.0)
    # H(t) = (t / scale)^shape
    assert_allclose(hz.cumulative(6.0), 4.0, rtol=1e-14)
    assert_allclose(hz.inverse_cumulative(4.0), 6.0, rtol=1e-14)


class TestPiecewiseConstant:
    hz = PiecewiseConstant(breakpoints=(1.0, 2.0), rates=(0.5, 1.0, 2.0))

    def test_segment_arithmetic(self):
        # 0.5 on [0,1), 1.0 on [1,2), 2.0 after
        assert_allclose(self.hz.cumulative(0.5), 0.25, rtol=1e-15)
        assert_allclose(self.hz.cumulative(1.5), 1.0, rtol=1e-15)
        assert_allclose(self.hz.cumulative(3.0), 3.5, rtol=1e-15)

    def test_vectorized_matches_scalar(self):
        t = np.array([0.0, 0.3, 1.0, 1.7, 2.0, 4.2])
        got = np.asarray(self.hz.cumulative(t))
        want = [float(self.hz.cumulative(float(ti))) for ti in t]
        assert_allclose(got, want, rtol=1e-15)

    def test_validation(self):
        with pytest.raises(LengthMismatch):
            PiecewiseConstant(breakpoints=(1.0,), rates=(0.5,))
        with pytest.raises(ParameterOutOfRange):
            PiecewiseConstant(breakpoints=(2.0, 1.0), rates=(0.5, 1.0, 2.0))
        with pytest.raises(ParameterOutOfRange):
            PiecewiseConstant(breakpoints=(1.0,), rates=(0.5, -1.0))


@pytest.mark.parametrize("bad", [
    lambda: ExponentialRate(rate=0.0),
    lambda: Weibull(shape=-1.0, scale=2.0),
    lambda: Weibull(shape=1.0, scale=0.0),
])
def test_invalid_hazards_raise(bad):
    with pytest.raises(ParameterOutOfRange):
        bad()


@given(st.floats(0.05, 5.0), st.floats(0.0, 20.0))
def test_exponential_inverse_property(rate, target):
    hz = ExponentialRate(rate=rate)
    assert_allclose(float(hz.cumulative(hz.inverse_cumulative(target))),
                    target, rtol=1e-12, atol=1e-12)


@given(st.floats(0.3, 4.0), st.floats(0.2, 5.0), st.floats(1e-3, 30.0))
def test_weibull_inverse_property(shape, scale, target):
    hz = Weibull(shape=shape, scale=scale)
    assert_allclose(float(hz.cumulative(hz.inverse_cumulative(target))),
                    target, rtol=1e-10, atol=1e-12)


def test_generic_time_sums_per_target():
    hazards = (ExponentialRate(rate=1.0), Weibull(shape=2.0, scale=1.0))
    t = (0.5, 0.25)
    assert_allclose(generic_time(hazards, t), 0.5 + 0.0625, rtol=1e-14)


def test_generic_time_length_checked():
    with pytest.raises(LengthMismatch):
        generic_time((ExponentialRate(rate=1.0),), (0.5, 0.5))


def test_dict_unknown_tag_rejected():
    with pytest.raises(ParameterOutOfRange, match="^unknown hazard tag 'gompertz'; "
                       r"expected one of \['exponential', 'piecewise', 'weibull'\]$"):
        hazard_from_dict({"hazard": "gompertz", "params": {}})


def test_dict_round_trip():
    for hz in HAZARDS:
        again = hazard_from_dict(hazard_to_dict(hz))
        assert repr(again) == repr(hz)
        spec = hazard_to_dict(hz)
        spec["params"]["extra"] = [1.0]  # keys naming no field are ignored
        assert hazard_from_dict(spec) == hz
        missing = next(iter(spec["params"]))
        del spec["params"][missing]
        with pytest.raises(ParameterOutOfRange,
                           match=f"^hazard '{spec['hazard']}' is missing parameter '{missing}'$"):
            hazard_from_dict(spec)
        t = np.linspace(0.1, 3.0, 7)
        assert_allclose(np.asarray(again.cumulative(t)),
                        np.asarray(hz.cumulative(t)), rtol=1e-15)
