"""Property-based tests for the viewer's filters, find and rendering."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ccview import CallingContextView
from repro.core.metrics import MetricFlavor, MetricSpec
from repro.viewer.format import format_cell, format_percent, format_value
from repro.viewer.navigation import NavigationState
from repro.viewer.table import TableOptions, render_table
from repro.viewer.tui import find, splice
from tests.props.strategies import cct_experiments


def _visible(view, roots, elide, threshold):
    out = []

    def visit(node):
        out.append(node)
        for child in splice(view, node.children, elide, threshold):
            visit(child)

    for row in roots:
        visit(row)
    return out


class TestFilterProps:
    @settings(max_examples=30, deadline=None)
    @given(data=cct_experiments(),
           pattern=st.sampled_from(["p0", "p1", "p2", "p3", "*"]))
    def test_elide_preserves_total_cost(self, data, pattern):
        """Eliding any set of scopes never changes the roots' total
        inclusive cost coverage."""
        cct, _model, metrics = data
        view = CallingContextView(cct, metrics)
        roots = splice(view, view.roots, [pattern], None)
        covered = sum(r.inclusive.get(0, 0.0) for r in roots)
        original = sum(r.inclusive.get(0, 0.0) for r in view.roots)
        # elided roots are replaced by their children, whose inclusive
        # totals can only drop by the elided scopes' own raw cost, so
        # coverage never exceeds the original and never goes negative
        assert 0.0 <= covered <= original + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(data=cct_experiments(),
           pattern=st.sampled_from(["p0", "p1", "p2", "p3"]))
    def test_elided_names_never_show(self, data, pattern):
        cct, _model, metrics = data
        view = CallingContextView(cct, metrics)
        visible = _visible(view, splice(view, view.roots, [pattern], None),
                           [pattern], None)
        assert all(n.name != pattern for n in visible)

    @settings(max_examples=30, deadline=None)
    @given(data=cct_experiments(),
           share=st.sampled_from([0.0, 0.01, 0.2, 0.5, 1.0]))
    def test_threshold_rows_meet_share(self, data, share):
        cct, _model, metrics = data
        view = CallingContextView(cct, metrics)
        spec = MetricSpec(0, MetricFlavor.INCLUSIVE)
        threshold = (spec, share)
        total = view.total(spec)
        visible = _visible(view, splice(view, view.roots, [], threshold),
                           [], threshold)
        assert all(view.value(n, spec) >= share * total for n in visible)

    @settings(max_examples=30, deadline=None)
    @given(data=cct_experiments())
    def test_empty_filterset_is_identity(self, data):
        cct, _model, metrics = data
        view = CallingContextView(cct, metrics)
        assert splice(view, view.roots, [], None) == view.roots


class TestSearchProps:
    @settings(max_examples=30, deadline=None)
    @given(data=cct_experiments())
    def test_search_star_finds_every_scope(self, data):
        cct, _model, metrics = data
        view = CallingContextView(cct, metrics)
        spec = MetricSpec(0, MetricFlavor.INCLUSIVE)
        hits = find(view, "*", spec, limit=100_000)
        walked = sum(1 for r in view.roots for _ in r.walk())
        assert len(hits) == walked

    @settings(max_examples=30, deadline=None)
    @given(data=cct_experiments())
    def test_hits_sorted_and_paths_valid(self, data):
        cct, _model, metrics = data
        view = CallingContextView(cct, metrics)
        spec = MetricSpec(0, MetricFlavor.INCLUSIVE)
        hits = find(view, "*", spec, limit=100_000)
        values = [value for _node, value, _share, _path in hits]
        assert values == sorted(values, reverse=True)
        for node, _value, _share, path in hits:
            assert path[-1] == node.name


class TestFormatProps:
    @settings(max_examples=200, deadline=None)
    @given(value=st.floats(allow_nan=False, allow_infinity=False,
                           min_value=-1e30, max_value=1e30))
    def test_blank_iff_zero(self, value):
        text = format_value(value)
        assert (text == "") == (value == 0.0)

    @settings(max_examples=200, deadline=None)
    @given(value=st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
           total=st.floats(min_value=1e-6, max_value=1e12, allow_nan=False))
    def test_percent_parses_back(self, value, total):
        text = format_percent(value, total)
        if text:
            assert text.endswith("%")
            float(text[:-1])  # must parse

    @settings(max_examples=100, deadline=None)
    @given(value=st.floats(min_value=0.0, max_value=1e9, allow_nan=False))
    def test_cell_composition(self, value):
        cell = format_cell(value, 1e9)
        if value == 0.0:
            assert cell == ""
        else:
            assert cell.startswith(format_value(value))


class TestRenderProps:
    @settings(max_examples=20, deadline=None)
    @given(data=cct_experiments())
    def test_render_row_count_bounded(self, data):
        cct, _model, metrics = data
        view = CallingContextView(cct, metrics)
        state = NavigationState(view)
        state.expand_to_depth(10)
        out = render_table(view, state, options=TableOptions(max_rows=7))
        body = out.splitlines()[2:]
        data_rows = [l for l in body if not l.startswith("...")]
        assert len(data_rows) <= 7
