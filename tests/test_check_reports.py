"""scripts/check_reports.py --compare prints every field that differs."""

import importlib.util
import json
import os

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
