"""Static analysis: MAC counting, footprint, energy proxy."""

import numpy as np
import pytest

from repro.analysis import (
    EnergyModel,
    count_graph,
    estimate_energy_mj,
    footprint,
)
from repro.ir.builder import GraphBuilder
from repro.models import zoo
from repro.passes import default_pipeline
from tests.conftest import tiny_classifier


class TestMacCounting:
    def test_conv_macs_formula(self):
        builder = GraphBuilder()
        x = builder.input("input", (1, 3, 8, 8))
        builder.output(builder.conv(x, 16, 3, pad=1))
        cost = count_graph(builder.finish())
        # 16 out-ch * 8*8 pixels * 3 in-ch * 9 taps
        assert cost.total_macs == 16 * 64 * 3 * 9

    def test_depthwise_macs(self):
        builder = GraphBuilder()
        x = builder.input("input", (1, 8, 4, 4))
        builder.output(builder.depthwise_conv(x))
        cost = count_graph(builder.finish())
        assert cost.total_macs == 8 * 16 * 9  # 1 input channel per group

    def test_gemm_macs(self):
        builder = GraphBuilder()
        x = builder.input("input", (2, 32))
        builder.output(builder.dense(x, 10))
        cost = count_graph(builder.finish())
        assert cost.total_macs == 2 * 10 * 32

    def test_activations_have_zero_macs(self):
        builder = GraphBuilder()
        x = builder.input("input", (1, 4))
        builder.output(builder.relu(x))
        assert count_graph(builder.finish()).total_macs == 0

    def test_flops_counts_elementwise(self):
        builder = GraphBuilder()
        x = builder.input("input", (1, 100))
        builder.output(builder.relu(x))
        cost = count_graph(builder.finish())
        assert cost.total_flops == 100  # 1 FLOP per element, no MACs

    def test_known_model_macs(self):
        """Zoo models match their published MAC counts (±5%)."""
        published = {
            "mobilenet-v1": 569e6,
            "resnet18": 1.82e9,
            "resnet50": 4.1e9,
        }
        for name, expected in published.items():
            cost = count_graph(zoo.build(name))
            assert cost.total_macs == pytest.approx(expected, rel=0.05), name

    def test_by_op_type_dominated_by_conv(self):
        cost = count_graph(zoo.build("wrn-40-2"))
        by_op = cost.by_op_type()
        assert next(iter(by_op)) == "Conv"

    def test_parameter_count_matches_graph(self, tiny_graph):
        cost = count_graph(tiny_graph)
        assert cost.parameters == tiny_graph.num_parameters()


class TestFootprint:
    def test_planned_less_than_unplanned(self):
        report = footprint(zoo.build("wrn-40-2", image_size=16))
        assert 0 < report.peak_live_bytes < report.activation_bytes_unplanned

    @pytest.mark.parametrize(
        "model", ["wrn-40-2", "mobilenet-v1", "resnet18", "resnet50"])
    def test_planner_saves_over_half(self, model):
        """Canonical resolution, after the pass pipeline (76-95 % here)."""
        report = footprint(default_pipeline().run(zoo.build(model)), model)
        assert report.peak_live_bytes < 0.5 * report.activation_bytes_unplanned

    def test_totals_include_weights(self, tiny_graph):
        report = footprint(tiny_graph)
        assert report.total_unplanned_bytes > report.weight_bytes > 0

    def test_summary_readable(self, tiny_graph):
        text = footprint(tiny_graph, "tiny").summary()
        assert "tiny" in text and "MiB" in text


class TestEnergy:
    def test_quantized_cheaper(self, tiny_graph):
        assert (estimate_energy_mj(tiny_graph, quantized=True)
                < estimate_energy_mj(tiny_graph))

    def test_bigger_model_costs_more(self):
        small = estimate_energy_mj(zoo.build("wrn-40-2", image_size=16))
        big = estimate_energy_mj(zoo.build("wrn-40-2", image_size=32))
        assert big > small

    def test_custom_coefficients(self, tiny_graph):
        expensive = EnergyModel(pj_per_mac_f32=100.0)
        assert (estimate_energy_mj(tiny_graph, model=expensive)
                > estimate_energy_mj(tiny_graph))

    def test_energy_positive(self, tiny_graph):
        assert estimate_energy_mj(tiny_graph) > 0
