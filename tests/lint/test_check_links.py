"""Coverage for the markdown link gate (:mod:`tools.lint.links`).

Broken links, anchor stripping, external/code-fence skipping, directory
expansion, and the gate's clean and failure summary lines.
"""

from __future__ import annotations

from pathlib import Path

from tools.lint.links import broken_links, links_gate

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_broken_relative_link_is_reported(tmp_path):
    md = tmp_path / "doc.md"
    md.write_text("see [missing](nope/gone.md) for details\n[y](also/gone.md)\n")
    findings = broken_links(md)
    assert [finding.render() for finding in findings] == [
        f"{md}: broken link -> nope/gone.md",
        f"{md}: broken link -> also/gone.md",
    ]


def test_existing_relative_link_and_directory_resolve(tmp_path):
    (tmp_path / "other.md").write_text("hi\n")
    (tmp_path / "sub").mkdir()
    md = tmp_path / "doc.md"
    md.write_text("[a](other.md) and [d](sub) and ![img](other.md)\n")
    assert broken_links(md) == []


def test_anchor_is_stripped_before_resolution(tmp_path):
    (tmp_path / "other.md").write_text("# Section\n")
    md = tmp_path / "doc.md"
    md.write_text(
        "[ok](other.md#section) [self](#local) [bad](gone.md#x)\n"
    )
    findings = broken_links(md)
    # pure-anchor links are skipped; anchors never hide a broken target
    assert [f.message for f in findings] == ["broken link -> gone.md#x"]


def test_external_targets_and_code_fences_are_skipped(tmp_path):
    md = tmp_path / "doc.md"
    md.write_text(
        "[x](https://example.com/a) [m](mailto:a@b.c)\n"
        "```\n[fake](not/a/file.md)\n```\n"
    )
    assert broken_links(md) == []


def test_unreadable_file_is_one_finding(tmp_path):
    findings = broken_links(tmp_path / "absent.md")
    assert len(findings) == 1
    assert "unreadable" in findings[0].message


def test_gate_expands_directories_recursively(tmp_path):
    nested = tmp_path / "docs" / "deep"
    nested.mkdir(parents=True)
    (nested / "page.md").write_text("[bad](missing.md)\n")
    result = links_gate([tmp_path / "docs"])
    assert not result.ok
    assert result.failure_summary == "1 broken link(s)"


def test_repo_readme_and_docs_are_clean():
    result = links_gate([REPO_ROOT / "README.md", REPO_ROOT / "docs"])
    assert result.ok, "\n".join(finding.render() for finding in result.findings)
    assert result.clean_message == "link check: 2 markdown file(s) clean"
