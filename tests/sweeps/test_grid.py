"""GridSpec validation and expansion: everything fails fast and listed."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.sweeps import GridSpec, load_grid

MINIMAL = {"topologies": ["cycle"], "sizes": [8], "noises": [0.0]}


def spec(**overrides) -> GridSpec:
    payload = {**MINIMAL, **overrides}
    return GridSpec.from_dict(payload)


class TestValidation:
    def test_minimal_flat_dict(self):
        grid = spec()
        assert grid.topologies == ("cycle",)
        assert grid.seeds == (0,)
        assert "backends" not in grid.to_dict()["grid"]

    def test_toml_shaped_dict(self):
        grid = GridSpec.from_dict(
            {"grid": MINIMAL, "params": {"cycle": {}}}
        )
        assert grid.sizes == (8,)

    def test_unknown_topology_lists_known(self):
        with pytest.raises(ConfigurationError) as excinfo:
            spec(topologies=["cycle", "quantum-foam"])
        message = str(excinfo.value)
        assert "unknown topology family 'quantum-foam'" in message
        assert "expander" in message and "\n" not in message

    def test_unknown_grid_key_lists_known(self):
        with pytest.raises(ConfigurationError) as excinfo:
            spec(sizs=[8])
        message = str(excinfo.value)
        assert "'sizs'" in message and "sizes" in message
        assert "\n" not in message

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigurationError) as excinfo:
            GridSpec.from_dict({"grid": MINIMAL, "grids": {}})
        assert "'grids'" in str(excinfo.value)

    def test_missing_required_keys_listed(self):
        with pytest.raises(ConfigurationError) as excinfo:
            GridSpec.from_dict({"topologies": ["cycle"]})
        message = str(excinfo.value)
        assert "'sizes'" in message and "'noises'" in message

    @pytest.mark.parametrize(
        "overrides",
        [
            {"sizes": [1]},
            {"sizes": [8.5]},
            {"sizes": [True]},
            {"sizes": []},
            {"sizes": 8},
            {"noises": [0.5]},
            {"noises": [-0.1]},
            {"noises": ["low"]},
            {"backends": ["quantum"]},
            {"seeds": [-1]},
            {"rounds": 0},
            {"gamma": 0},
            {"topologies": "cycle"},
            {"topologies": [7]},
        ],
    )
    def test_malformed_values_rejected_one_line(self, overrides):
        with pytest.raises(ConfigurationError) as excinfo:
            spec(**overrides)
        assert "\n" not in str(excinfo.value)

    def test_family_params_validated_eagerly(self):
        with pytest.raises(ConfigurationError) as excinfo:
            spec(
                topologies=["expander"],
                params={"expander": {"diameter": 2}},
            )
        assert "no parameter 'diameter'" in str(excinfo.value)

    def test_params_for_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError):
            spec(params={"quantum-foam": {"p": 1}})

    def test_int_noise_accepted_as_float(self):
        grid = spec(noises=[0])
        assert grid.noises == (0.0,)

    def test_infeasible_family_size_rejected_eagerly(self):
        # feasibility is part of construction — a campaign must never
        # fail (discarding completed points) halfway through execution
        for topologies, sizes in (
            (["cycle", "hypercube"], [12]),
            (["tree"], [16]),
            (["expander"], [9]),
        ):
            with pytest.raises(ConfigurationError) as excinfo:
                spec(topologies=topologies, sizes=sizes)
            message = str(excinfo.value)
            assert "grid infeasible" in message and "\n" not in message


class TestExpansion:
    def test_cartesian_product_order(self):
        grid = spec(
            topologies=["cycle", "path"],
            sizes=[8, 12],
            noises=[0.0, 0.1],
            seeds=[0, 1],
        )
        points = grid.expand()
        assert len(points) == 2 * 2 * 2 * 2
        # family-major, seed-minor order
        assert [p.family for p in points[:8]] == ["cycle"] * 8
        assert [p.seed for p in points[:2]] == [0, 1]

    def test_retired_backend_axis(self):
        # ["auto"], the only value that changed nothing, is still accepted
        assert spec(backends=["auto"]) == spec()
        assert spec(backends=["auto"]).expand() == spec().expand()
        for value in (["dense"], ["dense", "bitpacked"], ["quantum"]):
            with pytest.raises(ConfigurationError) as excinfo:
                spec(backends=value)
            message = str(excinfo.value)
            assert message.startswith("grid key 'backends' is retired: ")
            assert "\n" not in message

    def test_profile_scales_rounds(self):
        grid = spec(rounds=2)
        assert grid.expand(profile="quick")[0].rounds == 2
        assert grid.expand(profile="full")[0].rounds == 6  # default 3x
        assert grid.expand(profile="smoke")[0].rounds == 2

    def test_explicit_full_rounds(self):
        grid = spec(rounds=2, full_rounds=11)
        assert grid.expand(profile="full")[0].rounds == 11

    def test_points_carry_resolved_params(self):
        grid = spec(topologies=["expander"])
        [point] = grid.expand()
        assert dict(point.params)["degree"] == 3  # schema default

    def test_slug_is_filesystem_safe_and_distinct(self):
        grid = spec(
            topologies=["expander", "torus"],
            sizes=[12, 16],
            noises=[0.0, 0.05],
        )
        slugs = [point.slug() for point in grid.expand()]
        assert len(set(slugs)) == len(slugs)
        for slug in slugs:
            assert slug == slug.strip("-")
            assert all(c.isalnum() or c in "-_.=" for c in slug)

    def test_slug_keeps_full_float_precision(self):
        # %g-style truncation would collide distinct noise rates onto
        # one cache key and replay the wrong cached numbers
        a = spec(noises=[0.1234567]).expand()[0].slug()
        b = spec(noises=[0.1234568]).expand()[0].slug()
        assert a != b

    def test_params_label_matches_slug_rendering(self):
        [point] = spec(topologies=["expander"]).expand()
        assert point.params_label() == "degree=3"
        assert point.params_label() in point.slug()


class TestScenarioAxes:
    """The noise_models / churns axes: validation, expansion, identity."""

    def test_defaults_reproduce_legacy_grid(self):
        grid = spec()
        assert grid.noise_models == ("bernoulli",)
        assert grid.churns == (0.0,)
        [point] = grid.expand()
        assert point.noise_model == "bernoulli"
        assert point.churn == 0.0

    @pytest.mark.parametrize(
        "overrides",
        [
            {"noise_models": ["quantum"]},
            {"noise_models": ["zone:0"]},
            {"noise_models": ["zone:1.5"]},
            {"noise_models": [7]},
            {"noise_models": []},
            {"noise_models": "bernoulli"},
            {"churns": [1.0]},
            {"churns": [-0.1]},
            {"churns": ["high"]},
            {"churns": []},
        ],
    )
    def test_malformed_axes_rejected_one_line(self, overrides):
        with pytest.raises(ConfigurationError) as excinfo:
            spec(**overrides)
        assert "\n" not in str(excinfo.value)

    def test_unknown_noise_model_lists_known(self):
        with pytest.raises(ConfigurationError) as excinfo:
            spec(noise_models=["bernoulli", "quantum"])
        message = str(excinfo.value)
        assert "unknown noise model 'quantum'" in message
        assert "adversarial" in message and "zone:<frac>" in message

    def test_expansion_multiplies_axes(self):
        grid = spec(
            noise_models=["bernoulli", "adversarial", "zone:0.25"],
            churns=[0.0, 0.2],
            noises=[0.05],
        )
        points = grid.expand()
        assert len(points) == 3 * 2
        assert {p.noise_model for p in points} == {
            "bernoulli", "adversarial", "zone:0.25"
        }
        assert {p.churn for p in points} == {0.0, 0.2}

    def test_identity_and_slug_distinguish_axes(self):
        grid = spec(
            noise_models=["bernoulli", "adversarial"],
            churns=[0.0, 0.15],
            noises=[0.05],
        )
        points = grid.expand()
        assert len({p.identity() for p in points}) == len(points)
        assert len({p.slug() for p in points}) == len(points)
        for point in points:
            assert f"model={point.noise_model}" in point.identity()
            assert f"churn={point.churn!r}" in point.identity()

    def test_default_point_slug_is_unchanged(self):
        # cached results from schema-4 campaigns must replay: the default
        # bernoulli/zero-churn point's slug cannot grow new components
        [point] = spec(noises=[0.05]).expand()
        assert "bernoulli" not in point.slug()
        assert "churn" not in point.slug()

    def test_churn_float_precision_kept_distinct(self):
        a = spec(churns=[0.1234567]).expand()[0].slug()
        b = spec(churns=[0.1234568]).expand()[0].slug()
        assert a != b

    def test_to_dict_round_trips_axes(self):
        grid = spec(
            noise_models=["adversarial", "zone:0.5"],
            churns=[0.0, 0.3],
        )
        restored = GridSpec.from_dict(grid.to_dict())
        assert restored == grid
        assert restored.noise_models == ("adversarial", "zone:0.5")
        assert restored.churns == (0.0, 0.3)

    def test_from_toml_round_trips_axes(self, tmp_path):
        path = tmp_path / "grid.toml"
        path.write_text(
            "[grid]\n"
            'topologies = ["cycle"]\n'
            "sizes = [8]\n"
            "noises = [0.05]\n"
            'noise_models = ["bernoulli", "zone:0.25"]\n'
            "churns = [0.0, 0.15]\n"
        )
        grid = GridSpec.from_toml(path)
        assert grid.noise_models == ("bernoulli", "zone:0.25")
        assert grid.churns == (0.0, 0.15)
        assert GridSpec.from_dict(grid.to_dict()) == grid


class TestLoading:
    def test_from_toml_round_trip(self, tmp_path):
        path = tmp_path / "grid.toml"
        path.write_text(
            '[grid]\ntopologies = ["cycle"]\nsizes = [8]\nnoises = [0.0]\n'
            "[params.cycle]\n"
        )
        grid = GridSpec.from_toml(path)
        assert grid.topologies == ("cycle",)

    def test_invalid_toml_one_line(self, tmp_path):
        path = tmp_path / "grid.toml"
        path.write_text("[grid\n")
        with pytest.raises(ConfigurationError) as excinfo:
            GridSpec.from_toml(path)
        assert "invalid TOML" in str(excinfo.value)
        assert "\n" not in str(excinfo.value)

    def test_missing_file_one_line(self, tmp_path):
        with pytest.raises(ConfigurationError) as excinfo:
            GridSpec.from_toml(tmp_path / "nope.toml")
        assert "cannot read grid file" in str(excinfo.value)

    def test_load_grid_coercions(self, tmp_path):
        path = tmp_path / "grid.toml"
        path.write_text(
            '[grid]\ntopologies = ["cycle"]\nsizes = [8]\nnoises = [0.0]\n'
        )
        from_path = load_grid(path)
        from_str = load_grid(str(path))
        from_dict = load_grid(MINIMAL)
        assert from_path == from_str == from_dict
        assert load_grid(from_path) is from_path

    def test_load_grid_rejects_other_types(self):
        with pytest.raises(ConfigurationError):
            load_grid(42)

    def test_to_dict_round_trips(self):
        grid = spec(
            topologies=["expander"],
            sizes=[10],
            params={"expander": {"degree": 4}},
            full_rounds=9,
        )
        assert GridSpec.from_dict(grid.to_dict()) == grid
