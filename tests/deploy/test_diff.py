"""Tests for config diffing and the Figure 16 changed-line metric."""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deploy.diff import _changes, count_changed_lines, is_comment, unified_diff


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

    def test_counts_a_minimal_diff(self):
        # The first line changed, the second did not: one replace, where a
        # heuristic alignment of old line 1 with new line 2 would count two.
        assert count_changed_lines("x\nx\n", "y\nx\n") == 1

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


def lcs_length(a: list[str], b: list[str]) -> int:
    """The longest common subsequence, by the textbook dynamic program."""
    row = [0] * (len(b) + 1)
    for x in a:
        diagonal, row[0] = 0, 0
        for j, y in enumerate(b, 1):
            diagonal, row[j] = row[j], diagonal + 1 if x == y else max(row[j], row[j - 1])
    return row[-1]


def apply_unified(old: list[str], diff: str) -> list[str]:
    """Patch ``old`` with a unified diff, checking every context and removed
    line against it."""
    out, at, lines = [], 0, diff.splitlines(keepends=True)[2:]
    for line in lines:
        header = re.match(r"@@ -(\d+)(?:,(\d+))? ", line)
        if header:
            start = int(header[1]) - (header[2] != "0")
            out.extend(old[at:start])
            at = start
        elif line[0] == "+":
            out.append(line[1:])
        else:
            assert old[at] == line[1:], (old[at], line)
            at += 1
            if line[0] == " ":
                out.append(line[1:])
    return out + old[at:]


def rendered_changes(diff: str) -> list[tuple[int, int]]:
    """(removed, added) for each run of ``-``/``+`` lines between context
    lines or hunk headers: the changes a reviewer reads."""
    runs: list[list[int]] = []
    open_run = False
    for line in diff.splitlines()[2:]:
        if line[:1] in "-+":
            if not open_run:
                runs.append([0, 0])
                open_run = True
            runs[-1][line[0] == "+"] += 1
        else:
            open_run = False
    return [tuple(run) for run in runs]


class TestMinimalDiff:
    """The metric's definition: a shortest edit script, and the rendered diff
    is that same script."""

    lines = st.lists(st.sampled_from("abc"), max_size=10)

    @settings(max_examples=300, deadline=None)
    @given(a=lines, b=lines)
    def test_edit_script_is_minimal(self, a, b):
        edits = sum(i2 - i1 + j2 - j1 for i1, i2, j1, j2 in _changes(a, b))
        assert edits == len(a) + len(b) - 2 * lcs_length(a, b)

    @settings(max_examples=300, deadline=None)
    @given(a=lines, b=lines)
    def test_rendered_diff_applies(self, a, b):
        old = [line + "\n" for line in a]
        new = [line + "\n" for line in b]
        assert apply_unified(old, unified_diff("".join(old), "".join(new))) == new

    @settings(max_examples=300, deadline=None)
    @given(a=lines, b=lines)
    def test_count_is_the_rendered_changes(self, a, b):
        old, new = "".join(x + "\n" for x in a), "".join(x + "\n" for x in b)
        shown = sum(max(run) for run in rendered_changes(unified_diff(old, new)))
        assert count_changed_lines(old, new, exclude_comments=False) == shown
