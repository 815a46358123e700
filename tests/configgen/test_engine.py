"""Tests for the Django-style template engine (paper Figure 9)."""

import pytest

from repro.common.errors import TemplateError
from repro.configgen.engine import Template


def render(source, **context):
    return Template(source).render(context)


class TestVariables:
    def test_simple(self):
        assert render("hi {{ name }}", name="x") == "hi x"

    def test_dotted_dict(self):
        assert render("{{ a.b.c }}", a={"b": {"c": 7}}) == "7"

    def test_dotted_attribute(self):
        class Thing:
            value = "attr"

        assert render("{{ t.value }}", t=Thing()) == "attr"

    def test_list_index(self):
        assert render("{{ xs.1 }}", xs=["a", "b"]) == "b"

    def test_list_index_out_of_range(self):
        assert render("{{ xs.9 }}", xs=["a"]) == ""

    def test_missing_renders_empty(self):
        # Django semantics: missing variables never crash a render.
        assert render("[{{ nope }}]") == "[]"

    def test_missing_intermediate(self):
        assert render("[{{ a.b.c }}]", a={}) == "[]"

    def test_whitespace_tolerant(self):
        assert render("{{name}} {{  name  }}", name="x") == "x x"


class TestIf:
    def test_truthiness(self):
        source = "{% if x %}yes{% endif %}"
        assert render(source, x=1) == "yes"
        assert render(source, x=0) == ""
        assert render(source, x=[]) == ""
        assert render(source) == ""  # missing is falsey

    def test_else(self):
        source = "{% if x %}a{% else %}b{% endif %}"
        assert render(source, x=True) == "a"
        assert render(source, x=False) == "b"

    def test_elif_chain(self):
        source = "{% if n == 1 %}one{% elif n == 2 %}two{% else %}many{% endif %}"
        assert render(source, n=1) == "one"
        assert render(source, n=2) == "two"
        assert render(source, n=3) == "many"

    def test_not(self):
        assert render("{% if not x %}empty{% endif %}", x=[]) == "empty"

    def test_comparison_to_string_literal(self):
        source = "{% if kind == 'ebgp' %}external{% endif %}"
        assert render(source, kind="ebgp") == "external"
        assert render(source, kind="ibgp") == ""

    def test_not_equal(self):
        assert render("{% if x != 3 %}diff{% endif %}", x=4) == "diff"

    def test_nested(self):
        source = "{% if a %}{% if b %}both{% endif %}{% endif %}"
        assert render(source, a=1, b=1) == "both"
        assert render(source, a=1, b=0) == ""

    def test_unterminated(self):
        with pytest.raises(TemplateError, match="unexpected end"):
            Template("{% if x %}oops")

    @pytest.mark.parametrize(
        "source", ["a\n{% if x %}oops", "a\n{% for x in xs %}{% if x %}{% endif %}"]
    )
    def test_unterminated_names_the_opening_line(self, source):
        with pytest.raises(TemplateError, match="line 2: unexpected end"):
            Template(source)


class TestFor:
    def test_basic(self):
        assert render("{% for x in xs %}{{ x }};{% endfor %}", xs=[1, 2]) == "1;2;"

    def test_forloop_counters(self):
        source = "{% for x in xs %}{{ forloop.counter }}:{{ forloop.counter0 }} {% endfor %}"
        assert render(source, xs="ab") == "1:0 2:1 "

    def test_forloop_first_last(self):
        source = (
            "{% for x in xs %}{% if forloop.first %}[{% endif %}{{ x }}"
            "{% if forloop.last %}]{% else %},{% endif %}{% endfor %}"
        )
        assert render(source, xs=[1, 2, 3]) == "[1,2,3]"

    def test_nested_loops_with_parentloop(self):
        source = (
            "{% for row in grid %}{% for cell in row %}"
            "{{ forloop.parentloop.counter }}.{{ forloop.counter }} "
            "{% endfor %}{% endfor %}"
        )
        assert render(source, grid=[[0, 0], [0]]) == "1.1 1.2 2.1 "

    def test_loop_variable_scoped(self):
        source = "{% for x in xs %}{{ x }}{% endfor %}{{ x }}"
        assert render(source, xs=[1], x="outer") == "1outer"

    def test_missing_iterable_renders_nothing(self):
        assert render("{% for x in nope %}{{ x }}{% endfor %}") == ""

    def test_non_iterable_raises(self):
        with pytest.raises(TemplateError, match="not iterable"):
            render("{% for x in n %}{{ x }}{% endfor %}", n=5)

    def test_malformed_for(self):
        with pytest.raises(TemplateError, match="malformed for"):
            Template("{% for x y %}{% endfor %}")


class TestMisc:
    def test_comments_removed(self):
        assert render("a{# hidden {{ x }} #}b") == "ab"

    def test_unknown_tag(self):
        with pytest.raises(TemplateError, match="unknown tag"):
            Template("{% include 'x' %}")

    def test_error_carries_line_number(self):
        with pytest.raises(TemplateError, match="line 3"):
            Template("a\nb\n{% bogus %}")

    @pytest.mark.parametrize(
        ("source", "line"),
        [
            ("{{ }}", 1),
            ("a\n{% if .x %}y{% endif %}", 2),
            ("{% if a %}\n\n{% elif .x %}y{% endif %}", 3),
            ("\n{% for x in .y %}{% endfor %}", 2),
            ("a\nb\n\n{{ x|upper }}", 4),
        ],
    )
    def test_malformed_expression_refused_at_build(self, source, line):
        # Refused whatever the data, even in a branch no render would reach.
        with pytest.raises(TemplateError, match=f"line {line}: "):
            Template(source)

    def test_render_does_not_mutate_context(self):
        context = {"xs": [1]}
        Template("{% for x in xs %}{{ x }}{% endfor %}").render(context)
        assert context == {"xs": [1]}

    def test_paper_figure9_vendor1_shape(self):
        """The exact control-flow shape of the paper's left-hand template."""
        source = (
            "{% for agg in device.aggs %}interface {{agg.name}}\n"
            "{% if agg.v4_prefix %} ip addr {{agg.v4_prefix}}\n{% endif %}"
            "{% if agg.v6_prefix %} ipv6 addr {{agg.v6_prefix}}\n{% endif %}"
            "{% for pif in agg.pifs %}interface {{pif.name}}\n"
            " channel-group {{agg.name}}\n{% endfor %}{% endfor %}"
        )
        device = {
            "aggs": [
                {
                    "name": "ae0",
                    "v4_prefix": None,
                    "v6_prefix": "2401:db00::/127",
                    "pifs": [{"name": "et1/1"}, {"name": "et1/2"}],
                }
            ]
        }
        output = Template(source).render({"device": device})
        assert "interface ae0" in output
        assert "ip addr" not in output  # v4 absent
        assert "ipv6 addr 2401:db00::/127" in output
        assert output.count("channel-group ae0") == 2


class TestConditionsBothSidesVariables:
    def test_variable_to_variable_comparison(self):
        source = "{% if a.x == b.y %}same{% else %}diff{% endif %}"
        assert render(source, a={"x": 5}, b={"y": 5}) == "same"
        assert render(source, a={"x": 5}, b={"y": 6}) == "diff"
