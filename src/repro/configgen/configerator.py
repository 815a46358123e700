"""A source-controlled template/schema repository with peer review.

Robotron "stores config data schemas and templates in Configerator, a
source control repository, so that all schema and template changes are
peer-reviewed and unit-tested" (paper section 5.2, citing [37]).  This is
an in-process equivalent: every path carries a linear version history;
changes are *proposed* by an author and only land when *approved* by a
different reviewer; the full history and per-change diffs are retained.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

from repro.common.errors import ConfigGenerationError
from repro.configgen.engine import Template

__all__ = ["Configerator", "PendingChange", "TemplateVersion"]

#: Where the built-in vendor template set lives on disk.
BUILTIN_TEMPLATE_DIR = Path(__file__).parent / "templates"


@dataclass(frozen=True)
class TemplateVersion:
    """One landed version of a repository path."""

    version: int
    content: str
    author: str
    reviewer: str
    note: str = ""


@dataclass
class PendingChange:
    """A proposed change awaiting review."""

    change_id: int
    path: str
    content: str
    author: str
    note: str = ""
    rejected: bool = False


class Configerator:
    """The template/schema repository.

    >>> repo = Configerator()
    >>> change = repo.propose("vendor1/banner.tmpl", "banner motd x", author="alice")
    >>> repo.approve(change.change_id, reviewer="bob")
    >>> repo.get("vendor1/banner.tmpl")
    'banner motd x'
    """

    def __init__(self, seed_builtin: bool = True):
        self._history: dict[str, list[TemplateVersion]] = {}
        self._pending: dict[int, PendingChange] = {}
        self._change_ids = itertools.count(1)
        if seed_builtin:
            self._seed_builtin_templates()

    def _seed_builtin_templates(self) -> None:
        """Import the shipped vendor template set as version 1 of each path."""
        for template_path in sorted(BUILTIN_TEMPLATE_DIR.rglob("*.tmpl")):
            repo_path = str(template_path.relative_to(BUILTIN_TEMPLATE_DIR))
            self._land(
                repo_path.replace("\\", "/"),
                template_path.read_text(),
                author="robotron",
                reviewer="initial-import",
                note="built-in template set",
            )

    # ------------------------------------------------------------------
    # Review workflow
    # ------------------------------------------------------------------

    def propose(self, path: str, content: str, author: str, note: str = "") -> PendingChange:
        """Propose new content for ``path``; returns the pending change."""
        if not author:
            raise ConfigGenerationError("template changes require an author")
        change = PendingChange(
            change_id=next(self._change_ids),
            path=path,
            content=content,
            author=author,
            note=note,
        )
        self._pending[change.change_id] = change
        return change

    def approve(self, change_id: int, reviewer: str) -> TemplateVersion:
        """Land a pending change.  The reviewer must differ from the author,
        and a template (a ``*.tmpl`` path) must compile: a template that
        cannot would fail every generation that reads it until fixed.
        Either refusal leaves the change pending."""
        change = self._pending.get(change_id)
        if change is None or change.rejected:
            raise ConfigGenerationError(f"no pending change {change_id}")
        if reviewer == change.author:
            raise ConfigGenerationError(
                f"change {change_id}: author {change.author!r} cannot review "
                "their own change"
            )
        if change.path.endswith(".tmpl"):
            Template(change.content, name=change.path)
        del self._pending[change_id]
        return self._land(
            change.path, change.content, change.author, reviewer, change.note
        )

    def reject(self, change_id: int, reviewer: str) -> None:
        """Reject a pending change; it never lands."""
        change = self._pending.get(change_id)
        if change is None:
            raise ConfigGenerationError(f"no pending change {change_id}")
        change.rejected = True
        del self._pending[change_id]

    def _land(
        self, path: str, content: str, author: str, reviewer: str, note: str
    ) -> TemplateVersion:
        history = self._history.setdefault(path, [])
        version = TemplateVersion(
            version=len(history) + 1,
            content=content,
            author=author,
            reviewer=reviewer,
            note=note,
        )
        history.append(version)
        return version

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def get(self, path: str, version: int | None = None) -> str:
        """Latest (or a specific) content of ``path``."""
        history = self._history.get(path)
        if not history:
            raise ConfigGenerationError(f"no template at {path!r}")
        if version is None:
            return history[-1].content
        if not 1 <= version <= len(history):
            raise ConfigGenerationError(f"{path}: no version {version}")
        return history[version - 1].content

    def exists(self, path: str) -> bool:
        return path in self._history

    def current_version(self, path: str) -> int:
        history = self._history.get(path)
        if not history:
            raise ConfigGenerationError(f"no template at {path!r}")
        return history[-1].version

    def history(self, path: str) -> list[TemplateVersion]:
        return list(self._history.get(path, []))

    def paths(self) -> list[str]:
        return sorted(self._history)

    def pending(self) -> list[PendingChange]:
        return list(self._pending.values())

    def diff(self, path: str, old_version: int, new_version: int) -> str:
        """Unified diff between two versions of ``path``."""
        from repro.deploy.diff import unified_diff

        return unified_diff(
            self.get(path, old_version),
            self.get(path, new_version),
            fromfile=f"{path}@{old_version}",
            tofile=f"{path}@{new_version}",
        )
