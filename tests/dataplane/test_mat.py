"""Unit tests for repro.dataplane.mat."""

import pytest

from repro.dataplane.actions import hash_compute, modify, no_op
from repro.dataplane.fields import header_field, metadata_field
from repro.dataplane.mat import (
    Mat,
    ResourceDemand,
    STAGE_ALUS,
    STAGE_SRAM_BITS,
)
from repro.dataplane.rules import MatchKind, MatchSpec, Rule


def simple_mat(name="t", demand=0.5, **kwargs):
    idx = metadata_field("m.idx", 32)
    defaults = dict(
        match_fields=[header_field("ipv4.src", 32)],
        actions=[hash_compute(idx, [header_field("ipv4.src", 32)])],
        capacity=64,
        resource_demand=demand,
    )
    defaults.update(kwargs)
    return Mat(name, **defaults)


class TestResourceDemand:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ResourceDemand(sram_bits=-1)

    def test_normalized_is_binding_resource(self):
        demand = ResourceDemand(
            sram_bits=STAGE_SRAM_BITS // 2, alus=STAGE_ALUS
        )
        assert demand.normalized() == pytest.approx(1.0)

    def test_addition(self):
        total = ResourceDemand(1, 2, 3) + ResourceDemand(10, 20, 30)
        assert (total.sram_bits, total.tcam_bits, total.alus) == (11, 22, 33)


class TestMatValidation:
    def test_rejects_empty_name(self):
        with pytest.raises(ValueError, match="non-empty"):
            simple_mat(name="")

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            simple_mat(capacity=0)

    def test_requires_actions(self):
        with pytest.raises(ValueError, match="at least one action"):
            Mat("t", actions=[])

    def test_rejects_duplicate_action_names(self):
        with pytest.raises(ValueError, match="duplicate action"):
            Mat("t", actions=[no_op("a"), no_op("a")])

    def test_rules_cannot_exceed_capacity(self):
        rule = Rule(action_name="no_op")
        with pytest.raises(ValueError, match="exceed"):
            Mat("t", actions=[no_op()], capacity=1, rules=[rule, rule])

    def test_rules_must_reference_known_action(self):
        with pytest.raises(ValueError, match="unknown action"):
            Mat("t", actions=[no_op()], rules=[Rule(action_name="ghost")])

    def test_rules_must_match_declared_fields(self):
        with pytest.raises(ValueError, match="undeclared"):
            Mat(
                "t",
                actions=[no_op()],
                rules=[
                    Rule(matches=(MatchSpec("ghost"),), action_name="no_op")
                ],
            )

    def test_zero_demand_gets_floor(self):
        mat = Mat("t", actions=[no_op()], resource_demand=0.0)
        assert mat.resource_demand > 0


class TestMatProperties:
    def test_modified_fields_union_of_action_writes(self):
        a = metadata_field("m.a", 8)
        b = metadata_field("m.b", 8)
        mat = Mat("t", actions=[modify(a), modify(b)])
        assert mat.modified_fields.names == frozenset({"m.a", "m.b"})

    def test_read_fields_include_match_key_and_action_reads(self):
        key = header_field("ipv4.dst", 32)
        src = header_field("ipv4.src", 32)
        out = metadata_field("m.o", 32)
        mat = Mat("t", match_fields=[key], actions=[hash_compute(out, [src])])
        assert mat.read_fields.names == frozenset({"ipv4.dst", "ipv4.src"})

    def test_derived_demand_scales_with_capacity(self):
        small = Mat("s", match_fields=[header_field("f", 32)],
                    actions=[no_op()], capacity=64)
        large = Mat("l", match_fields=[header_field("f", 32)],
                    actions=[no_op()], capacity=65536)
        assert large.resource_demand > small.resource_demand

    def test_tcam_detection_from_rules(self):
        field = header_field("ipv4.dst", 32)
        lpm_rule = Rule(
            matches=(MatchSpec("ipv4.dst", MatchKind.LPM, 0, 8),),
            action_name="no_op",
        )
        mat = Mat("t", match_fields=[field], actions=[no_op()],
                  rules=[lpm_rule])
        assert mat.uses_tcam()
        assert mat.detailed_demand.tcam_bits > 0

    def test_sram_by_default(self):
        mat = simple_mat()
        assert not mat.uses_tcam()
        assert mat.detailed_demand.sram_bits > 0

    def test_action_lookup(self):
        mat = Mat("t", actions=[no_op("a"), no_op("b")])
        assert mat.action("a").name == "a"
        with pytest.raises(KeyError):
            mat.action("ghost")


class TestRedundancy:
    def test_identical_mats_are_redundant(self):
        assert simple_mat("x").is_redundant_with(simple_mat("y"))

    def test_signature_ignores_name(self):
        assert simple_mat("x").signature() == simple_mat("y").signature()

    def test_different_capacity_not_redundant(self):
        assert not simple_mat(capacity=64).is_redundant_with(
            simple_mat(capacity=128)
        )

    def test_different_match_fields_not_redundant(self):
        other = simple_mat(match_fields=[header_field("ipv4.dst", 32)])
        assert not simple_mat().is_redundant_with(other)

    def test_equality_requires_same_name(self):
        assert simple_mat("x") != simple_mat("y")
        assert simple_mat("x") == simple_mat("x")
