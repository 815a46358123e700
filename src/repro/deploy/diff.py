"""Config diffing and the changed-line metric of the paper's Figure 16.

Figure 16 counts "total updated config lines (changed/added/removed,
excluding comments) on a device": here, over the changes of a *minimal*
line diff (common prefix and suffix trimmed, then Myers' O((N+M)D)
shortest edit script, 1986), max(removed, added) lines each.
:func:`unified_diff` renders those same changes as the dryrun diff
(section 5.3.2), so the count always matches the diff on screen.
"""

from __future__ import annotations

__all__ = ["count_changed_lines", "is_comment", "unified_diff"]

#: Lines of unchanged context around each rendered hunk.
CONTEXT = 3


def is_comment(line: str) -> bool:
    """Whether a config line is a comment (both vendor dialects use #)."""
    return line.lstrip().startswith("#")


def _changes(a: list[str], b: list[str]) -> list[tuple[int, int, int, int]]:
    """A shortest edit script from ``a`` to ``b``, as changes ``(i1, i2, j1,
    j2)``: ``a[i1:i2]`` becomes ``b[j1:j2]``, with equal runs between them."""
    lo, n, m = 0, len(a), len(b)
    while lo < n and lo < m and a[lo] == b[lo]:
        lo += 1
    while n > lo and m > lo and a[n - 1] == b[m - 1]:
        n, m = n - 1, m - 1
    if lo in (n, m):
        return [(lo, n, lo, m)] if n + m > 2 * lo else []
    # Myers: v[k] is the furthest x on diagonal k = x - y after d edits, and
    # the end (n, m) lies on diagonal n - m; trace keeps each round's v.
    v: dict[int, int] = {1: lo}
    trace = []
    while v.get(n - m, lo) < n:
        d = len(trace)
        trace.append(v.copy())
        for k in range(-d, d + 1, 2):
            # Down from diagonal k + 1 (an insert) or right from k - 1 (a delete).
            x = v[k + 1] if k == -d or (k != d and v[k - 1] < v[k + 1]) else v[k - 1] + 1
            y = x - k
            while x < n and y < m and a[x] == b[y]:
                x, y = x + 1, y + 1
            v[k] = x
    # Back from the end, one edit a round; adjacent edits join one change.
    changes: list[list[int]] = []
    x, y = n, m
    for d in range(len(trace) - 1, 0, -1):
        v, k = trace[d], x - y
        came = k + 1 if k == -d or (k != d and v[k - 1] < v[k + 1]) else k - 1
        x, y = v[came], v[came] - came
        ex, ey = (x, y + 1) if came > k else (x + 1, y)
        if changes and changes[-1][::2] == [ex, ey]:
            changes[-1][::2] = [x, y]
        else:
            changes.append([x, ex, y, ey])
    return [tuple(change) for change in reversed(changes)]  # type: ignore[misc]


def _span(start: int, stop: int) -> str:
    """A hunk header's ``start,length`` as ``diff -u`` writes it."""
    if stop - start == 1:
        return str(start + 1)
    return f"{start + (start < stop)},{stop - start}"


def unified_diff(
    old: str, new: str, name: str = "config", *, fromfile: str = "", tofile: str = ""
) -> str:
    """A unified diff between two texts, rendered from :func:`_changes`;
    changes at most ``2 * CONTEXT`` equal lines apart share a hunk."""
    a, b = old.splitlines(keepends=True), new.splitlines(keepends=True)
    hunks: list[list[tuple[int, int, int, int]]] = []
    for change in _changes(a, b):
        if hunks and change[0] - hunks[-1][-1][1] <= 2 * CONTEXT:
            hunks[-1].append(change)
        else:
            hunks.append([change])
    if not hunks:
        return ""
    out = [f"--- {fromfile or name + '.running'}\n", f"+++ {tofile or name + '.new'}\n"]
    for hunk in hunks:
        (i1, _, j1, _), (_, i2, _, j2) = hunk[0], hunk[-1]
        before, after = min(CONTEXT, i1), min(CONTEXT, len(a) - i2)
        out.append(
            f"@@ -{_span(i1 - before, i2 + after)} +{_span(j1 - before, j2 + after)} @@\n"
        )
        at = i1 - before
        for c1, c2, d1, d2 in hunk:
            out.extend(" " + line for line in a[at:c1])
            out.extend("-" + line for line in a[c1:c2])
            out.extend("+" + line for line in b[d1:d2])
            at = c2
        out.extend(" " + line for line in a[at : i2 + after])
    return "".join(out)


def count_changed_lines(old: str, new: str, exclude_comments: bool = True) -> int:
    """Count updated lines between two configs (the Figure 16 metric): a
    replaced line counts once, an added or removed one once each.  Comment
    lines are excluded by default, as in the paper."""

    def prepare(text: str) -> list[str]:
        lines = text.splitlines()
        if exclude_comments:
            lines = [line for line in lines if not is_comment(line)]
        return lines

    return sum(
        max(i2 - i1, j2 - j1)
        for i1, i2, j1, j2 in _changes(prepare(old), prepare(new))
    )
