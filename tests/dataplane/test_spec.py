"""Tests for the declarative program spec round trip."""

import json

import pytest

from repro.dataplane.spec import (
    SpecError,
    program_from_dict,
    program_to_dict,
)
from repro.tdg.builder import build_tdg
from repro.tdg.analysis import annotate_metadata_sizes
from repro.workloads.sketches import sketch_programs
from repro.workloads.switchp4 import real_programs
from repro.workloads.synthetic import synthetic_programs


def roundtrip(program):
    return program_from_dict(
        json.loads(json.dumps(program_to_dict(program)))
    )


class TestRoundTrip:
    def test_simple_program(self, sketch_program):
        rebuilt = roundtrip(sketch_program)
        assert rebuilt.name == sketch_program.name
        assert [m.name for m in rebuilt] == [
            m.name for m in sketch_program
        ]

    @pytest.mark.parametrize(
        "program",
        real_programs(10) + sketch_programs(5) + synthetic_programs(3, 9),
        ids=lambda p: p.name,
    )
    def test_all_bundled_workloads(self, program):
        rebuilt = roundtrip(program)
        for original_mat, rebuilt_mat in zip(program, rebuilt):
            assert original_mat.signature() == rebuilt_mat.signature()
            assert original_mat.resource_demand == pytest.approx(
                rebuilt_mat.resource_demand
            )

    def test_tdg_identical_after_roundtrip(self, sketch_program):
        original = annotate_metadata_sizes(build_tdg(sketch_program))
        rebuilt = annotate_metadata_sizes(build_tdg(roundtrip(sketch_program)))
        assert sorted(original.node_names) == sorted(rebuilt.node_names)
        assert {
            (e.upstream, e.downstream, e.dep_type, e.metadata_bytes)
            for e in original.edges
        } == {
            (e.upstream, e.downstream, e.dep_type, e.metadata_bytes)
            for e in rebuilt.edges
        }

    def test_conditional_edges_survive(self):
        from repro.dataplane import Mat, Program, modify, no_op
        from repro.dataplane.fields import metadata_field

        gate_field = metadata_field("m.g", 8)
        program = Program(
            "p",
            [
                Mat("gate", actions=[modify(gate_field)]),
                Mat("gated", actions=[no_op()]),
            ],
            [("gate", "gated")],
        )
        rebuilt = roundtrip(program)
        assert rebuilt.is_conditional("gate", "gated")

    def test_rules_and_action_data_survive(self):
        from repro.dataplane import Mat, Program, modify
        from repro.dataplane.fields import header_field, metadata_field
        from repro.dataplane.rules import MatchKind, MatchSpec, Rule

        port = header_field("tcp.dst_port", 16)
        verdict = metadata_field("m.v", 8)
        mat = Mat(
            "acl",
            match_fields=[port],
            actions=[modify(verdict, name="set")],
            capacity=8,
            rules=[
                Rule(
                    matches=(
                        MatchSpec("tcp.dst_port", MatchKind.RANGE, 0, 1023),
                    ),
                    action_name="set",
                    priority=5,
                    action_data=(("m.v", 1),),
                )
            ],
        )
        rebuilt = roundtrip(Program("p", [mat]))
        rule = rebuilt.mat("acl").rules[0]
        assert rule.priority == 5
        assert rule.matches[0].kind is MatchKind.RANGE
        assert rule.matches[0].mask_or_prefix == 1023
        assert rule.action_value("m.v") == 1


class TestSpecValidation:
    def test_missing_name(self):
        with pytest.raises(SpecError, match="name"):
            program_from_dict({"fields": {}, "mats": []})

    def test_missing_field_width(self):
        with pytest.raises(SpecError, match="width"):
            program_from_dict(
                {"name": "p", "fields": {"f": {}}, "mats": []}
            )

    def test_unknown_field_kind(self):
        with pytest.raises(SpecError, match="kind"):
            program_from_dict(
                {
                    "name": "p",
                    "fields": {"f": {"width": 8, "kind": "quantum"}},
                    "mats": [],
                }
            )

    def test_undeclared_field_reference(self):
        with pytest.raises(SpecError, match="undeclared"):
            program_from_dict(
                {
                    "name": "p",
                    "fields": {},
                    "mats": [
                        {
                            "name": "t",
                            "match": ["ghost"],
                            "actions": [{"name": "a"}],
                        }
                    ],
                }
            )

    def test_unknown_primitive(self):
        with pytest.raises(SpecError, match="primitive"):
            program_from_dict(
                {
                    "name": "p",
                    "fields": {},
                    "mats": [
                        {
                            "name": "t",
                            "actions": [
                                {"name": "a", "primitive": "teleport"}
                            ],
                        }
                    ],
                }
            )

    def test_unknown_match_kind(self):
        with pytest.raises(SpecError, match="match kind"):
            program_from_dict(
                {
                    "name": "p",
                    "fields": {"f": {"width": 8}},
                    "mats": [
                        {
                            "name": "t",
                            "match": ["f"],
                            "actions": [{"name": "a"}],
                            "rules": [
                                {
                                    "matches": [
                                        {"field": "f", "kind": "fuzzy"}
                                    ],
                                    "action": "a",
                                }
                            ],
                        }
                    ],
                }
            )
