import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optoperceptron.config import load_config
from optoperceptron.errors import ConfigurationError
from optoperceptron.synapse import (
    CURVE_FAMILIES,
    ERASE,
    WRITE,
    apply_packet,
    fresh_site,
    response_curve,
    sample_sites,
)
from typed_configs import site_params

NOMINAL = site_params()


def apply_all(site, packets):
    for helicity, count in packets:
        site = apply_packet(site, helicity, count)
    return site

valid_params = st.builds(
    site_params,
    dead_zone_pulses=st.integers(0, 1000),
    saturation_pulses=st.integers(1001, 5000),
    curve=st.sampled_from(sorted(CURVE_FAMILIES)),
    site_spread=st.just(0.0),  # the default spread keeps a knee 5 % clear of the dead zone
)


def test_curve_zero_exposure():
    assert response_curve(0, NOMINAL) == 0.0


def test_curve_dead_zone_anchor():
    assert response_curve(250, NOMINAL) <= 0.02


def test_curve_saturation_anchor():
    assert response_curve(600, NOMINAL) >= 0.98


def test_curve_negative_clamped():
    assert response_curve(-1000, NOMINAL) == 0.0


@pytest.mark.parametrize("curve", sorted(CURVE_FAMILIES))
def test_curve_families_hit_endpoints(curve):
    params = site_params(curve=curve)
    assert response_curve(params.dead_zone_pulses, params) == 0.0
    assert response_curve(params.saturation_pulses, params) == 1.0
    mid = response_curve((params.dead_zone_pulses + params.saturation_pulses) // 2, params)
    assert 0.0 < mid < 1.0


@pytest.mark.parametrize("curve", sorted(CURVE_FAMILIES))
def test_each_curve_meets_its_endpoints_continuously(curve):
    # called directly: response_curve's branches answer t <= 0 and t >= 1
    # before any curve is asked, so only this reaches a curve's own ends
    f = CURVE_FAMILIES[curve]
    assert f(0.0) == 0.0
    assert f(1.0) == 1.0
    assert f(1e-9) < 1e-8
    assert 1.0 - f(1.0 - 1e-9) < 1e-8


def test_linear_curve_is_proportional():
    params = site_params(dead_zone_pulses=0, saturation_pulses=1000, curve="linear")
    for n in (0, 100, 250, 999, 1000):
        assert response_curve(n, params) == pytest.approx(n / 1000)


@given(valid_params, st.integers(-100, 6000), st.integers(0, 1000))
def test_curve_monotone(params, n, dn):
    assert response_curve(n + dn, params) >= response_curve(n, params)


def test_packet_inside_dead_zone():
    site = apply_packet(fresh_site(NOMINAL), WRITE, 50)
    assert site.accumulated_pulses == 50
    assert site.written_fraction == 0.0


def test_erase_returns_saturated_site_to_zero():
    site = apply_packet(fresh_site(NOMINAL), WRITE, 600)
    assert site.written_fraction == 1.0
    erased = apply_packet(site, ERASE, 600)
    assert erased.written_fraction == 0.0


def test_full_erase_after_overdrive():
    # 50 packets x 50 pulses, then the same erase budget, as on the bench
    site = fresh_site(NOMINAL)
    for _ in range(50):
        site = apply_packet(site, WRITE, 50)
    assert site.written_fraction == 1.0
    for _ in range(50):
        site = apply_packet(site, ERASE, 50)
    assert site.written_fraction == 0.0


def test_write_erase_write_reversibility():
    single = apply_packet(fresh_site(NOMINAL), WRITE, 600)
    cycled = apply_all(
        fresh_site(NOMINAL),
        [(WRITE, 600), (ERASE, 600), (WRITE, 600)],
    )
    assert abs(cycled.written_fraction - single.written_fraction) <= 0.02


@given(
    st.lists(
        st.tuples(st.sampled_from([WRITE, ERASE]), st.integers(1, 800)),
        max_size=20,
    ),
    st.integers(1, 600),
)
def test_write_then_erase_is_identity(prefix, k):
    site = apply_all(fresh_site(NOMINAL), prefix)
    cycled = apply_packet(apply_packet(site, WRITE, k), ERASE, k)
    assert cycled.written_fraction == site.written_fraction


@given(
    st.lists(
        st.tuples(st.sampled_from([WRITE, ERASE]), st.integers(0, 5000)),
        max_size=50,
    )
)
def test_written_fraction_stays_in_unit_interval(packets):
    site = fresh_site(NOMINAL)
    for helicity, count in packets:
        site = apply_packet(site, helicity, count)
        assert 0.0 <= site.written_fraction <= 1.0
        assert 0 <= site.accumulated_pulses <= site.params.exposure_ceiling


def test_sample_sites_zero_spread_is_nominal():
    sites = sample_sites(np.random.default_rng(1), 9, 0.0, NOMINAL)
    assert all(p == NOMINAL for p in sites)


def test_sample_sites_deterministic():
    def draw(seed):
        return sample_sites(np.random.default_rng(seed), 9, 0.1, NOMINAL)

    assert draw(42) == draw(42)
    assert draw(42) != draw(43)


def test_sample_sites_bounded():
    for params in sample_sites(np.random.default_rng(7), 9, 0.1, NOMINAL):
        assert 225 <= params.dead_zone_pulses <= 275
        assert 540 <= params.saturation_pulses <= 660
        assert 0.9 <= params.background_gain <= 1.1
        assert params.dead_zone_pulses < params.saturation_pulses


def test_sample_sites_excessive_spread_rejected():
    with pytest.raises(ConfigurationError, match="synapse.site_spread 0.6 lets a dead zone"):
        load_config(overrides={"synapse.site_spread": "0.6"}).check_rig()
    # 100 x 1.0476 < 110 x 0.9524 holds unrounded, yet the rounding of one
    # site's draw can meet at 105 / 105, which leaves no response span
    nominal = site_params(dead_zone_pulses=100, saturation_pulses=110, site_spread=0.0476)
    with pytest.raises(
        ConfigurationError,
        match=r"site index 2 rounds to dead zone 105 and saturation 105 pulses.*synapse.site_spread 0.0476",
    ):
        sample_sites(np.random.default_rng(37), 10, 0.0476, nominal)


def test_invalid_params_rejected():
    with pytest.raises(ConfigurationError, match="saturation_pulses must exceed"):
        site_params(dead_zone_pulses=700, saturation_pulses=600)
    with pytest.raises(ConfigurationError, match="synapse.curve: expected one of"):
        site_params(curve="quartic")


def test_exposure_ceiling_default_margin():
    assert NOMINAL.exposure_ceiling == 1200
    assert site_params(margin_pulses=0).exposure_ceiling == 600
