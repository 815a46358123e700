"""Tests for the Configerator template repository and review workflow."""

import pytest

from repro.common.errors import ConfigGenerationError, TemplateError
from repro.configgen.configerator import Configerator


@pytest.fixture
def repo():
    return Configerator()


class TestBuiltinSeed:
    def test_vendor_templates_present(self, repo):
        for vendor in ("vendor1", "vendor2"):
            for section in ("system", "interfaces", "bgp", "mpls"):
                assert repo.exists(f"{vendor}/{section}.tmpl")

    def test_seed_is_version_one(self, repo):
        assert repo.current_version("vendor1/system.tmpl") == 1

    def test_unseeded_repo_is_empty(self):
        assert Configerator(seed_builtin=False).paths() == []


class TestReviewWorkflow:
    def test_propose_does_not_land(self, repo):
        repo.propose("vendor1/system.tmpl", "x", author="alice")
        assert repo.get("vendor1/system.tmpl") != "x"
        assert len(repo.pending()) == 1

    def test_approve_lands(self, repo):
        change = repo.propose("vendor1/system.tmpl", "new content", author="alice")
        version = repo.approve(change.change_id, reviewer="bob")
        assert version.version == 2
        assert repo.get("vendor1/system.tmpl") == "new content"
        assert repo.pending() == []

    def test_self_review_rejected(self, repo):
        change = repo.propose("vendor1/system.tmpl", "x", author="alice")
        with pytest.raises(ConfigGenerationError, match="cannot review"):
            repo.approve(change.change_id, reviewer="alice")

    def test_reject_discards(self, repo):
        change = repo.propose("vendor1/system.tmpl", "x", author="alice")
        repo.reject(change.change_id, reviewer="bob")
        with pytest.raises(ConfigGenerationError, match="no pending"):
            repo.approve(change.change_id, reviewer="bob")
        assert repo.current_version("vendor1/system.tmpl") == 1

    def test_template_that_cannot_compile_does_not_land(self, repo):
        path = "vendor1/system.tmpl"
        change = repo.propose(path, repo.get(path) + "{% if x %}", author="alice")
        with pytest.raises(TemplateError, match="unexpected end"):
            repo.approve(change.change_id, reviewer="bob")
        assert repo.current_version(path) == 1
        assert repo.pending() == [change]

    def test_author_required(self, repo):
        with pytest.raises(ConfigGenerationError, match="author"):
            repo.propose("p", "c", author="")

    def test_new_path_via_review(self, repo):
        change = repo.propose("vendor1/firewall.tmpl", "acl {{ n }}", author="a")
        repo.approve(change.change_id, reviewer="b")
        assert repo.get("vendor1/firewall.tmpl") == "acl {{ n }}"


class TestHistory:
    def test_versions_retained(self, repo):
        for index in range(3):
            change = repo.propose("p.tmpl", f"v{index}", author="a")
            repo.approve(change.change_id, reviewer="b")
        assert repo.get("p.tmpl", version=1) == "v0"
        assert repo.get("p.tmpl", version=3) == "v2"
        assert repo.get("p.tmpl") == "v2"
        assert len(repo.history("p.tmpl")) == 3

    def test_bad_version(self, repo):
        with pytest.raises(ConfigGenerationError, match="no version"):
            repo.get("vendor1/system.tmpl", version=99)

    def test_missing_path(self, repo):
        with pytest.raises(ConfigGenerationError, match="no template"):
            repo.get("ghost.tmpl")

    def test_diff_between_versions(self, repo):
        change = repo.propose("p.tmpl", "line1\nline2\n", author="a")
        repo.approve(change.change_id, reviewer="b")
        change = repo.propose("p.tmpl", "line1\nline2 changed\n", author="a")
        repo.approve(change.change_id, reviewer="b")
        diff = repo.diff("p.tmpl", 1, 2)
        assert "-line2" in diff and "+line2 changed" in diff

    def test_history_records_identities(self, repo):
        change = repo.propose("p.tmpl", "x", author="alice", note="why")
        repo.approve(change.change_id, reviewer="bob")
        version = repo.history("p.tmpl")[-1]
        assert (version.author, version.reviewer, version.note) == (
            "alice", "bob", "why",
        )
