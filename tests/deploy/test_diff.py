"""Tests for config diffing and the Figure 16 changed-line metric."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deploy.diff import count_changed_lines, is_comment, unified_diff


class TestUnifiedDiff:
    def test_shows_changes(self):
        diff = unified_diff("a\nb\n", "a\nc\n", "dev")
        assert "-b" in diff and "+c" in diff
        assert "dev.running" in diff and "dev.new" in diff

    def test_empty_for_identical(self):
        assert unified_diff("a\nb\n", "a\nb\n") == ""


class TestCountChangedLines:
    def test_identical_is_zero(self):
        assert count_changed_lines("a\nb\n", "a\nb\n") == 0

    def test_pure_addition(self):
        assert count_changed_lines("a\n", "a\nb\nc\n") == 2

    def test_pure_removal(self):
        assert count_changed_lines("a\nb\nc\n", "a\n") == 2

    def test_replacement_counts_once(self):
        # A changed line is one update, not one removal + one addition.
        assert count_changed_lines("a\nb\nc\n", "a\nB\nc\n") == 1

    def test_uneven_replacement_counts_max(self):
        assert count_changed_lines("a\nx\n", "a\ny\nz\n") == 2

    def test_counts_difflib_opcodes_not_a_minimum(self):
        # difflib aligns the old first line with the new second: an insert
        # plus a delete, where one replace would do.  Trimming the common
        # suffix first would count 1 here, so it is not a drop-in speed-up.
        assert count_changed_lines("x\nx\n", "y\nx\n") == 2

    def test_comments_excluded(self):
        old = "# generated header v1\nreal line\n"
        new = "# generated header v2\nreal line\n"
        assert count_changed_lines(old, new) == 0
        assert count_changed_lines(old, new, exclude_comments=False) == 1

    def test_indented_comments_excluded(self):
        assert count_changed_lines("    # a\nx\n", "    # b\nx\n") == 0

    def test_initial_provision_counts_all_lines(self):
        config = "line1\nline2\n# comment\nline3\n"
        assert count_changed_lines("", config) == 3

    def test_is_comment(self):
        assert is_comment("# x")
        assert is_comment("   # x")
        assert not is_comment("interface ae0")


class TestDiffProperties:
    lines = st.lists(
        st.text(
            alphabet=st.characters(whitelist_categories=("Ll", "Nd"), max_codepoint=127),
            min_size=1,
            max_size=8,
        ),
        max_size=30,
    )

    @settings(max_examples=60, deadline=None)
    @given(a=lines)
    def test_from_empty_counts_every_line(self, a):
        text = "\n".join(a)
        assert count_changed_lines("", text, exclude_comments=False) == len(
            text.splitlines()
        )

    @settings(max_examples=60, deadline=None)
    @given(a=lines)
    def test_self_diff_zero(self, a):
        text = "\n".join(a)
        assert count_changed_lines(text, text) == 0

    @settings(max_examples=60, deadline=None)
    @given(a=lines, b=lines)
    def test_bounded_by_total_lines(self, a, b):
        old, new = "\n".join(a), "\n".join(b)
        changed = count_changed_lines(old, new, exclude_comments=False)
        assert changed <= len(old.splitlines()) + len(new.splitlines())

    @settings(max_examples=60, deadline=None)
    @given(a=lines, b=lines)
    def test_zero_iff_equal_modulo_comments(self, a, b):
        old, new = "\n".join(a), "\n".join(b)
        changed = count_changed_lines(old, new, exclude_comments=False)
        assert (changed == 0) == (old.splitlines() == new.splitlines())
