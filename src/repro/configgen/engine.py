"""A Django-template-language engine for config templates (paper Figure 9).

The paper renders vendor templates with Django's template language:
dynamic variables in ``{{ }}``, control flow in ``{% %}``, and static
content as plain text.  This is a from-scratch implementation of the
subset the shipped templates use:

* variables with dotted lookups — ``{{ agg.v6_prefix }}`` — resolving
  dict keys, object attributes, and list indices; anything missing
  renders empty;
* string, integer and ``True`` / ``False`` / ``None`` literals;
* ``{% if %}`` / ``{% elif %}`` / ``{% else %}`` / ``{% endif %}`` with
  truthiness, comparisons (``==``, ``!=``), and ``not``;
* ``{% for x in seq %}`` / ``{% endfor %}`` with the ``forloop`` context
  (``counter``, ``counter0``, ``first``, ``last``, ``length``,
  ``parentloop``);
* ``{# comments #}``.

There are no filters and no other tags.  ``Template(source)`` compiles
the source once into nested closures — every dotted path split, every
literal coerced, every branch and loop body built — so a malformed
template is refused when it is built, never halfway through a render.
Rendering never mutates the context.  Errors raise
:class:`~repro.common.errors.TemplateError` with the line of the tag.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterator
from typing import Any

from repro.common.errors import TemplateError

__all__ = ["Template"]

_TOKEN_RE = re.compile(r"({{.*?}}|{%.*?%}|{#.*?#})", re.DOTALL)
_LITERAL_RE = re.compile(
    r"""^(?P<str>'[^']*'|"[^"]*")$|^(?P<int>-?\d+)$|^(?P<bool>True|False|None)$"""
)
_CONSTANTS = {"True": True, "False": False, "None": None}
_CMP_RE = re.compile(r"^(.*?)\s*(==|!=)\s*(.*)$")
_FOR_RE = re.compile(r"^(\w+)\s+in\s+(.+)$")

#: A compiled expression: its value in a context.
_Value = Callable[[dict[str, Any]], Any]
#: A compiled piece of template: appends its output for a context to ``out``.
_Emit = Callable[[dict[str, Any], list[str]], None]
#: The tokens still to compile: (kind, content, line).
_Tokens = Iterator[tuple[str, str, int]]


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    line = 1
    for chunk in _TOKEN_RE.split(source):
        if not chunk:
            continue
        if chunk.startswith("{{") and chunk.endswith("}}"):
            tokens.append(("var", chunk[2:-2].strip(), line))
        elif chunk.startswith("{%") and chunk.endswith("%}"):
            tokens.append(("tag", chunk[2:-2].strip(), line))
        elif not (chunk.startswith("{#") and chunk.endswith("#}")):
            tokens.append(("text", chunk, line))  # comments disappear entirely
        line += chunk.count("\n")
    return tokens


def _value(text: str, line: int) -> _Value:
    """Compile a literal or a dotted path.  As in Django, a missing step
    resolves to None, so it renders empty rather than failing a render."""
    text = text.strip()
    if "|" in text:
        raise TemplateError(f"filters are not supported: {text!r}", line=line)
    literal = _LITERAL_RE.match(text)
    if literal is not None:
        if literal["str"] is not None:
            constant: Any = literal["str"][1:-1]
        else:
            constant = _CONSTANTS[text] if literal["bool"] else int(text)
        return lambda context: constant
    head, *rest = text.split(".")
    if not head:
        raise TemplateError(f"empty variable name in {text!r}", line=line)
    if not rest:
        return lambda context: context.get(head)
    steps = tuple((part, int(part) if part.isdecimal() else None) for part in rest)

    def lookup(context: dict[str, Any]) -> Any:
        current = context.get(head)
        for part, index in steps:
            if current is None:
                return None
            if isinstance(current, dict):
                current = current.get(part)
            elif index is not None and isinstance(current, (list, tuple)):
                current = current[index] if index < len(current) else None
            else:
                current = getattr(current, part, None)
        return current

    return lookup


def _test(text: str, line: int) -> _Value:
    """Compile the condition of an ``{% if %}`` / ``{% elif %}`` tag."""
    text = text.strip()
    negated = text.startswith("not ")
    if negated:
        text = text[4:].strip()
    match = _CMP_RE.match(text)
    if match is None:
        test = _value(text, line)
    else:
        left, right = _value(match[1], line), _value(match[3], line)
        if match[2] == "==":
            test = lambda context: left(context) == right(context)  # noqa: E731
        else:
            test = lambda context: left(context) != right(context)  # noqa: E731
    if negated:
        return lambda context: not test(context)
    return test


def _block(
    tokens: _Tokens, ends: tuple[str, ...] = (), opened: int | None = None
) -> tuple[_Emit, str, int]:
    """Compile tokens up to one of the ``ends`` tags (or the end of a
    top-level template); returns the body, the ending tag and its line.

    ``opened`` is the line of the tag whose block this is, named when the
    template ends before the block does.
    """
    parts: list[_Emit] = []
    for kind, content, line in tokens:
        if kind == "text":
            parts.append(lambda context, out, text=content: out.append(text))
        elif kind == "var":
            parts.append(_var(_value(content, line)))
        else:
            keyword = content.split(None, 1)[0] if content else ""
            if keyword in ends:
                return _sequence(parts), content, line
            if keyword == "if":
                parts.append(_if(tokens, content[2:], line))
            elif keyword == "for":
                parts.append(_for(tokens, content[3:].strip(), line))
            else:
                raise TemplateError(f"unknown tag {{% {content} %}}", line=line)
    if ends:
        raise TemplateError(
            f"unexpected end of template; expected one of {list(ends)}", line=opened
        )
    return _sequence(parts), "", 0


def _sequence(parts: list[_Emit]) -> _Emit:
    if len(parts) == 1:
        return parts[0]

    def emit(context: dict[str, Any], out: list[str]) -> None:
        for part in parts:
            part(context, out)

    return emit


def _var(value: _Value) -> _Emit:
    def emit(context: dict[str, Any], out: list[str]) -> None:
        result = value(context)
        out.append("" if result is None else str(result))

    return emit


def _if(tokens: _Tokens, condition: str, line: int) -> _Emit:
    #: (test, body) pairs in order; a None test is the else branch.
    branches: list[tuple[_Value | None, _Emit]] = []
    test: _Value | None = _test(condition, line)
    opened, ends = line, ("elif", "else", "endif")
    while ends:
        body, tag, line = _block(tokens, ends, opened)
        branches.append((test, body))
        keyword = tag.split(None, 1)[0]
        if keyword == "elif":
            test = _test(tag[4:], line)
        elif keyword == "else":
            test, ends = None, ("endif",)
        else:
            ends = ()

    def emit(context: dict[str, Any], out: list[str]) -> None:
        for branch_test, branch_body in branches:
            if branch_test is None or branch_test(context):
                branch_body(context, out)
                return

    return emit


def _for(tokens: _Tokens, spec: str, line: int) -> _Emit:
    match = _FOR_RE.match(spec)
    if match is None:
        raise TemplateError(f"malformed for tag: {spec!r}", line=line)
    name, source = match[1], match[2].strip()
    iterable = _value(source, line)
    body, _tag, _line = _block(tokens, ("endfor",), line)

    def emit(context: dict[str, Any], out: list[str]) -> None:
        raw = iterable(context)
        if raw is None:
            return
        try:
            items = list(raw)
        except TypeError:
            raise TemplateError(f"{source!r} is not iterable", line=line) from None
        total = len(items)
        parent = context.get("forloop")
        inner = dict(context)
        for index, item in enumerate(items):
            inner[name] = item
            inner["forloop"] = {
                "counter": index + 1,
                "counter0": index,
                "first": index == 0,
                "last": index == total - 1,
                "length": total,
                "parentloop": parent,
            }
            body(inner, out)

    return emit


class Template:
    """A compiled config template.

    >>> Template("hello {{ who }}").render({"who": "world"})
    'hello world'
    """

    def __init__(self, source: str, name: str = "<template>"):
        self.source = source
        self.name = name
        try:
            self._emit, _tag, _line = _block(iter(_tokenize(source)))
        except TemplateError as exc:
            raise TemplateError(f"{name}: {exc}") from None

    def render(self, context: dict[str, Any] | None = None) -> str:
        out: list[str] = []
        self._emit(dict(context or {}), out)
        return "".join(out)
