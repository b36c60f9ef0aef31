import dataclasses
import json

import pytest

from exprec.config import ConfigError, ExperimentConfig, available_presets, load_preset
from exprec.solver import SolverConfig

BASE = {
    "seed": 7,
    "grid": {"p": 16, "q": 16, "t": 6, "dt_ms": 10.0},
    "phantom": {"kind": "regions_smoothed", "l": 1, "bandwidth": 2},
    "coils": {"count": 1},
    "mask": {"kind": "uniform_random", "fraction": 0.4},
    "filter": {"n1": 13, "n2": 13, "nt": 2},
    "solver": {"p": 0.6, "lam": 100.0, "outer_iters": 5},
}


class TestValidation:
    def test_valid_config(self):
        cfg = ExperimentConfig.from_doc(BASE)
        assert cfg.grid.shape == (16, 16, 6)
        assert cfg.filter_spec.nt == 2
        assert cfg.solver_config.lam == 100.0
        assert cfg.phantom_spec.kind == "regions_smoothed"

    def test_unknown_key_rejected_with_path(self):
        doc = json.loads(json.dumps(BASE))
        doc["solver"]["momentum"] = 0.9
        with pytest.raises(ConfigError, match="/solver"):
            ExperimentConfig.from_doc(doc)

    def test_unknown_top_level_key(self):
        doc = json.loads(json.dumps(BASE))
        doc["extra"] = 1
        with pytest.raises(ConfigError, match="extra"):
            ExperimentConfig.from_doc(doc)

    def test_zero_fraction_rejected(self):
        doc = json.loads(json.dumps(BASE))
        doc["mask"]["fraction"] = 0.0
        with pytest.raises(ConfigError, match="/mask"):
            ExperimentConfig.from_doc(doc)

    def test_missing_mask_parameter(self):
        doc = json.loads(json.dumps(BASE))
        del doc["mask"]["fraction"]
        with pytest.raises(ConfigError, match="fraction"):
            ExperimentConfig.from_doc(doc)

    def test_missing_section(self):
        doc = json.loads(json.dumps(BASE))
        del doc["grid"]
        with pytest.raises(ConfigError, match="grid"):
            ExperimentConfig.from_doc(doc)

    def test_seed_override(self):
        cfg = ExperimentConfig.from_doc(BASE, seed=99)
        assert cfg.seed == 99

    @pytest.mark.parametrize("path,value,pointer", [
        (("phantom", "amp_variation"), -0.1, "/phantom"),
        (("coils", "count"), 0, "/coils/count"),
        (("mask", "kind"), "radial", "/mask/kind"),
        (("mask", "center_block"), 0, "/mask/center_block"),
        (("mask", "static"), "no", "/mask/static"),
        (("noise", "sigma"), -1, "/noise/sigma"),
        (("noise", "relative"), 1, "/noise/relative"),
        (("ktlr", "mu_rel"), 0, "/ktlr/mu_rel"),
        (("ktlr", "iters"), 0, "/ktlr/iters"),
        (("seed",), -1, "/seed"),
        (("name",), 5, "/name"),
        (("grid",), [], "/grid"),
        (("grid", "dt_ms"), "10", "/grid/dt_ms"),
        (("coils", "count"), True, "/coils/count"),
    ])
    def test_each_value_is_checked(self, path, value, pointer):
        # each bound and type is checked once, by the spec that takes the
        # value or else by the config's own table
        doc = json.loads(json.dumps(BASE))
        node = doc
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
        with pytest.raises(ConfigError, match=pointer) as info:
            ExperimentConfig.from_doc(doc)
        assert path[-1] in str(info.value)

    def test_every_error_is_listed(self):
        doc = json.loads(json.dumps(BASE))
        doc["seed"], doc["coils"]["count"], doc["grid"]["p"] = -1, 0, 16.0
        del doc["filter"]["nt"]
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_doc(doc)
        for pointer in ("/seed", "/coils/count", "/grid/p", "/filter/nt"):
            assert pointer in str(info.value)


class TestHash:
    def test_hash_is_stable_and_key_order_independent(self):
        a = ExperimentConfig.from_doc(BASE)
        reordered = dict(reversed(list(json.loads(json.dumps(BASE)).items())))
        b = ExperimentConfig.from_doc(reordered)
        assert a.config_hash == b.config_hash
        assert len(a.config_hash) == 64

    def test_hash_changes_with_content(self):
        a = ExperimentConfig.from_doc(BASE)
        b = ExperimentConfig.from_doc(BASE, seed=8)
        assert a.config_hash != b.config_hash

    def test_omitted_solver_keys_enter_the_hash(self):
        # the hashed doc pins every solver value the run uses
        doc = json.loads(json.dumps(BASE))
        doc["solver"] = {}
        cfg = ExperimentConfig.from_doc(doc)
        defaults = dataclasses.asdict(SolverConfig())
        assert cfg.doc["solver"] == defaults
        doc["solver"] = defaults
        assert ExperimentConfig.from_doc(doc).config_hash == cfg.config_hash


class TestPresets:
    def test_available(self):
        names = available_presets()
        assert {"fig5_desk", "fig6_desk", "table1_desk"} <= set(names)

    def test_fig5_desk_contents(self):
        cfg = load_preset("fig5_desk")
        assert cfg.grid.shape == (64, 64, 12)
        assert cfg.doc["mask"]["fraction"] == 0.3
        assert cfg.coil_count == 1
        # filter keeps the published ratio 122/128 scaled to the desk grid
        assert (cfg.filter_spec.n1, cfg.filter_spec.n2, cfg.filter_spec.nt) == (58, 58, 2)
        assert cfg.solver_config.p == 0.6

    def test_fig6_desk_contents(self):
        cfg = load_preset("fig6_desk")
        assert cfg.mask_kind == "vd_cartesian"
        assert cfg.mask_param == 12.0
        assert cfg.coil_count == 4
        assert cfg.solver_config.p == 0.7
        assert cfg.filter_spec.nt == 10

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            load_preset("fig7_desk")
