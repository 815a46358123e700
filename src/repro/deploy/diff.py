"""Config diffing and the changed-line metric of the paper's Figure 16.

Figure 16 counts "total updated config lines (changed/added/removed,
excluding comments) on a device" — :func:`count_changed_lines` implements
exactly that metric; :func:`unified_diff` renders the human-reviewable
diff shown to users in dryrun mode (section 5.3.2).
"""

from __future__ import annotations

import difflib

__all__ = ["count_changed_lines", "is_comment", "unified_diff"]


def is_comment(line: str) -> bool:
    """Whether a config line is a comment (both vendor dialects use #)."""
    return line.lstrip().startswith("#")


def unified_diff(old: str, new: str, name: str = "config") -> str:
    """A unified diff between two config texts."""
    return "".join(
        difflib.unified_diff(
            old.splitlines(keepends=True),
            new.splitlines(keepends=True),
            fromfile=f"{name}.running",
            tofile=f"{name}.new",
        )
    )


def count_changed_lines(old: str, new: str, exclude_comments: bool = True) -> int:
    """Count updated lines between two configs (the Figure 16 metric).

    Sums the ``difflib`` opcodes: a replaced line counts once, an added or
    removed one once each.  That alignment is a heuristic, not a minimum
    (lines ``x x`` -> ``y x`` count 2, where one replace would do).  Comment
    lines are excluded by default, as in the paper.
    """

    def prepare(text: str) -> list[str]:
        lines = text.splitlines()
        if exclude_comments:
            lines = [line for line in lines if not is_comment(line)]
        return lines

    old_lines, new_lines = prepare(old), prepare(new)
    matcher = difflib.SequenceMatcher(a=old_lines, b=new_lines, autojunk=False)
    changed = 0
    for op, old_start, old_end, new_start, new_end in matcher.get_opcodes():
        if op == "equal":
            continue
        if op == "replace":
            changed += max(old_end - old_start, new_end - new_start)
        elif op == "delete":
            changed += old_end - old_start
        else:  # insert
            changed += new_end - new_start
    return changed
