"""The field-by-field report of ``tools/golden_cli.py``."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "golden_cli.py"
_SPEC = importlib.util.spec_from_file_location("golden_cli", _PATH)
golden_cli = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden_cli)


def _dump(payload) -> bytes:
    return json.dumps(payload).encode()


def test_json_changes_name_each_field_by_its_path():
    old = {"d": 1, "runs": [{"n": 64, "outliers": {"0.001": 70}},
                            {"n": 128, "outliers": {"0.001": 69, "1": 0}}]}
    new = json.loads(json.dumps(old))
    new["runs"][1]["outliers"]["0.001"] = 68
    new["d"] = 2
    assert golden_cli.json_changes(_dump(old), _dump(new)) == [
        "d: 1 -> 2", "runs[1].outliers.0.001: 69 -> 68"]


def test_json_changes_report_a_changed_shape_once():
    old = {"runs": [1, 2], "p": {"a": 1}}
    new = {"runs": [1, 2, 3], "p": {"b": 1}}
    assert golden_cli.json_changes(_dump(old), _dump(new)) == [
        "runs: [1, 2] -> [1, 2, 3]", 'p: {"a": 1} -> {"b": 1}']


def test_json_changes_are_empty_unless_both_parse():
    assert golden_cli.json_changes(b"x,y\n1,2\n", b"x,y\n1,3\n") == []
    assert golden_cli.json_changes(b"[1]", b"") == []
    assert golden_cli.json_changes(_dump([1.5]), _dump([1.5])) == []


def test_largest_difference_is_absolute_and_relative_to_the_largest_number():
    old = b"c0,c1\n-4096,1e-17\n2,nan\n"
    new = b"c0,c1\n-4096.000000000001,0\n2,nan\n"
    gap, rel = golden_cli.largest_difference(old, new)
    assert gap == 4096.000000000001 - 4096
    assert rel == gap / 4096
    assert golden_cli.largest_difference(b"0,1", b"0,1") == (0.0, 0.0)
    assert golden_cli.largest_difference(b"0", b"1") == (1.0, float("inf"))
    assert golden_cli.largest_difference(b"1,2", b"1") is None


def test_one_process_run_gives_each_command_its_fresh_bytes(tmp_path):
    tree = _PATH.parent.parent
    argvs = [["bounds", "--p", "3", "--family", "polynomial", "--grid", "64"],
             ["bounds", "--p", "x", "--family", "polynomial"],
             ["cardinal", "--family", "hyperbolic", "--alpha", "100", "--p", "3"],
             ["cardinal", "--family", "hyperbolic", "--alpha", "2", "--p", "3",
              "--grid", "9"], ["-h"]]
    fresh = [golden_cli.run(tree, argv, str(tmp_path)) for argv in argvs]
    assert [code for _, _, code in fresh] == [0, 1, 2, 0, 0]
    assert golden_cli.run_in_one_process(tree, argvs + argvs[::-1],
                                         str(tmp_path)) == fresh + fresh[::-1]
