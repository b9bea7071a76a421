"""scripts/check_reports.py records a space's definition and the reports of
the public check ops, and --compare prints every field that differs."""

import importlib.util
import json
import os

import numpy as np

_SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "check_reports.py")


def _load_script():
    spec = importlib.util.spec_from_file_location("check_reports", _SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_compare_prints_each_differing_field_with_its_move(tmp_path):
    mod = _load_script()
    report = {"ok": True, "slope": -0.2, "limit": [1.0, 0.0], "refusal": "InputError: no"}
    flat: dict = {}
    mod._flatten("cn_u1(1,1) damping_check", mod._plain(report), flat)
    moved = dict(flat)
    moved["cn_u1(1,1) damping_check.slope"] = float.fromhex("-0x1.999999999999bp-3")
    moved["cn_u1(1,1) damping_check.refusal"] = "InputError: yes"
    paths = []
    for name, record in (("base", flat), ("same", dict(flat)), ("head", moved)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(record))
    assert mod.compare(paths[0], paths[1]) == []
    lines = mod.compare(paths[0], paths[2])
    assert [line.splitlines()[0] for line in lines] == [
        "DIFFERS cn_u1(1,1) damping_check.refusal",
        "DIFFERS cn_u1(1,1) damping_check.slope",
    ]
    assert lines[1].endswith("(1 ulp)")
    assert "|move|" not in lines[0]


def test_definition_records_each_part_of_the_space():
    from symloc.hamspace import catalog

    mod = _load_script()
    flat: dict = {}
    definition = mod._definition(catalog("cn_u1", n=1, a=1.0))
    mod._flatten("cn_u1(1,1) definition", mod._plain(definition), flat)
    assert flat["cn_u1(1,1) definition.omega.(0, 1) (0,)"] == "Const(1.0)"
    assert flat["cn_u1(1,1) definition.action"] == [["Mul(Const(-1.0), Coord(1))", "Coord(0)"]]
    assert flat["cn_u1(1,1) definition.moment_star"] == [
        "Add(Mul(Const(0.5), Coord(0), Coord(0)), Mul(Const(0.5), Coord(1), Coord(1)), Const(-0.5))"]
    assert flat["cn_u1(1,1) definition.omega_matrix"] == [[0.0, 1.0], [-1.0, 0.0]]
    assert flat["cn_u1(1,1) definition.metric"] == [[1.0, 0.0], [0.0, 1.0]]
    assert flat["cn_u1(1,1) definition.radial.weights"] == [1]
    assert flat["cn_u1(1,1) definition.sample_box"] == [[-2 ** 0.5, 2 ** 0.5]] * 2
    assert len(flat["cn_u1(1,1) definition.sampler.image"]) == 8
    assert len(flat["cn_u1(1,1) definition.sampler.jacobian"]) == 2


def test_model_definition_records_values_at_the_sample_points():
    from symloc.hamspace import catalog

    mod = _load_script()
    flat: dict = {}
    space = catalog("standard_model", preset="su2_hopf", which="H")
    mod._flatten("m definition", mod._plain(mod._model_definition(space)), flat)
    n = space.ambient_dim
    # values, never a repr (a MatrixField node prints its address)
    assert not any(isinstance(v, str) for v in flat.values())
    omega = [v for k, v in flat.items() if k.startswith("m definition.omega.")]
    assert len(omega) == len(space.omega.indexed_terms)
    assert all(len(v) == 8 for v in omega)
    assert np.shape(flat["m definition.action"]) == (1, n, 8)
    assert np.shape(flat["m definition.moment_star"]) == (1, 8)
    assert np.shape(flat["m definition.omega_matrix"]) == (8, n, n)
    assert np.shape(flat["m definition.metric"]) == (8, n, n)
    assert np.shape(flat["m definition.sampler.image"]) == (8, n)
    assert np.shape(flat["m definition.sampler.jacobian"]) == (8, n, n)


def test_record_keeps_only_the_definition_of_each_model():
    mod = _load_script()
    out = mod.record(spaces=(), models=("standard_model(u1_beta,G)",))
    assert {k.split(".")[0] for k in out} == {"standard_model(u1_beta,G) definition"}
    assert out["standard_model(u1_beta,G) definition.moment_star"][0][0] != 0.0


def test_record_space_keeps_the_level_report_and_calls_only_ops_that_exist():
    mod = _load_script()
    out = mod.record_space("cn_u1(1,1)")
    assert sorted(k for k in out if k.startswith("zero_level")) == [
        "zero_level.connection_reproduces_generators",
        "zero_level.equivariance_residual",
        "zero_level.grid_shape",
        "zero_level.level_moment_residual",
        "zero_level.min_dmu_singular",
        "zero_level.n_nodes",
        "zero_level.phase_probe_residual",
        "zero_level.stratum_orders",
    ]
    # the circle's eta line: the node at angle 0 and 32 probe nodes
    assert out["zero_level.grid_shape"] == [1] and out["zero_level.n_nodes"] == 33
    # the space oracles of tests/space_checks.py are recorded with the ops
    assert out["check_moment_condition.accepted"] is True
    assert out["check_moment_condition(corrupted).accepted"] is False
    assert out["validate_space.ok"] is True
    # a refusal is recorded as its message; an op the package no longer
    # has would be recorded as an AttributeError
    assert [k for k, v in out.items() if str(v).startswith("AttributeError")] == []
