"""The shared ``BENCH_sim.json`` writer keeps sections it is not given."""

import json
import os

from _bench import merge_sections


def _read(path):
    with open(path) as handle:
        return json.load(handle)


def test_writing_section_b_keeps_section_a(tmp_path):
    path = str(tmp_path / "BENCH_sim.json")
    merge_sections({"a": {"x": 1}}, path)
    merge_sections({"b": {"y": 2}}, path)
    assert _read(path) == {"a": {"x": 1}, "b": {"y": 2}}


def test_rewriting_a_section_replaces_only_it(tmp_path):
    path = str(tmp_path / "BENCH_sim.json")
    merge_sections({"a": {"x": 1}, "b": {"y": 2}}, path)
    merge_sections({"a": {"z": 3}}, path)
    assert _read(path) == {"a": {"z": 3}, "b": {"y": 2}}
    # The atomic rewrite leaves no temp file behind.
    assert os.listdir(tmp_path) == ["BENCH_sim.json"]
