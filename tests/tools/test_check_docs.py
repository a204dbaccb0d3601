"""Unit tests for the docs link checker (``tools/check_docs.py``)."""

from __future__ import annotations

from pathlib import Path

import pytest

from tool_loader import load_tool

check_docs = load_tool("check_docs")


@pytest.fixture
def doc_tree(tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> Path:
    """A minimal repo skeleton the checker is pointed at."""
    (tmp_path / "docs").mkdir()
    (tmp_path / "src" / "repro" / "rr").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("", encoding="utf-8")
    (tmp_path / "src" / "repro" / "io.py").write_text(
        "def dump_canonical_json(document):\n    return document\n", encoding="utf-8"
    )
    (tmp_path / "src" / "repro" / "rr" / "__init__.py").write_text("", encoding="utf-8")
    (tmp_path / "src" / "repro" / "rr" / "matrix.py").write_text("", encoding="utf-8")
    (tmp_path / "README.md").write_text("# Readme\n", encoding="utf-8")
    monkeypatch.setattr(check_docs, "ROOT", tmp_path)
    return tmp_path


def _doc(doc_tree: Path, name: str, text: str) -> Path:
    path = doc_tree / "docs" / name
    path.write_text(text, encoding="utf-8")
    return path


def test_clean_tree_passes(doc_tree: Path) -> None:
    _doc(doc_tree, "guide.md", "See [the readme](../README.md) and `repro.io`.\n")
    assert check_docs.main() == 0


def test_broken_relative_link_fails(doc_tree: Path) -> None:
    path = _doc(doc_tree, "guide.md", "See [missing](no_such.md).\n")
    problems = check_docs.check_file(path)
    assert len(problems) == 1
    assert "broken link -> no_such.md" in problems[0]
    assert check_docs.main() == 1


def test_http_links_and_anchors_are_skipped(doc_tree: Path) -> None:
    path = _doc(
        doc_tree,
        "guide.md",
        "[ext](https://example.org/x) [plain](http://example.org) "
        "[mail](mailto:a@b.c) [anchor](#section)\n",
    )
    assert check_docs.check_file(path) == []


def test_link_anchor_suffix_is_stripped(doc_tree: Path) -> None:
    _doc(doc_tree, "other.md", "target\n")
    path = _doc(doc_tree, "guide.md", "[jump](other.md#part-two)\n")
    assert check_docs.check_file(path) == []


def test_missing_backticked_file_reference_fails(doc_tree: Path) -> None:
    path = _doc(doc_tree, "guide.md", "Run `tools/does_not_exist.py` first.\n")
    problems = check_docs.check_file(path)
    assert len(problems) == 1
    assert "missing file reference -> tools/does_not_exist.py" in problems[0]


def test_existing_backticked_file_reference_passes(doc_tree: Path) -> None:
    path = _doc(doc_tree, "guide.md", "See `src/repro/rr/matrix.py`.\n")
    assert check_docs.check_file(path) == []


def test_unknown_module_reference_fails(doc_tree: Path) -> None:
    path = _doc(doc_tree, "guide.md", "Import `repro.nonexistent_module`.\n")
    problems = check_docs.check_file(path)
    assert len(problems) == 1
    assert "unknown module -> repro.nonexistent_module" in problems[0]


def test_module_reference_with_attribute_tail_resolves(doc_tree: Path) -> None:
    # `repro.io.dump_canonical_json`-style: the module prefix resolves, the
    # tail names an attribute.
    path = _doc(doc_tree, "guide.md", "Call `repro.io.dump_canonical_json`.\n")
    assert check_docs.check_file(path) == []


def test_oracle_module_references_resolve_at_the_root(doc_tree: Path) -> None:
    (doc_tree / "oracles").mkdir()
    (doc_tree / "oracles" / "__init__.py").write_text("", encoding="utf-8")
    (doc_tree / "oracles" / "rr.py").write_text("def evaluate_scalar():\n", encoding="utf-8")
    good = _doc(doc_tree, "good.md", "Compare with `oracles.rr.evaluate_scalar`.\n")
    assert check_docs.check_file(good) == []
    bad = _doc(doc_tree, "bad.md", "Compare with `oracles.missing` in `oracles/missing.py`.\n")
    problems = check_docs.check_file(bad)
    assert len(problems) == 2
    assert "missing file reference -> oracles/missing.py" in problems[0]
    assert "unknown module -> oracles.missing" in problems[1]


def test_paper_map_source_references(doc_tree: Path) -> None:
    good = _doc(doc_tree, "paper_map.md", "| Thm 2 | `rr/matrix.py` |\n")
    assert check_docs.check_file(good) == []
    bad = _doc(doc_tree, "paper_map.md", "| Thm 2 | `rr/vanished.py` |\n")
    problems = check_docs.check_file(bad)
    assert len(problems) == 1
    assert "missing source reference -> rr/vanished.py" in problems[0]


def test_paper_map_rules_only_apply_to_paper_map(doc_tree: Path) -> None:
    # The same bare source path in another doc is not resolved against
    # src/repro/ — it is simply not a checked reference shape there.
    path = _doc(doc_tree, "guide.md", "| Thm 2 | `rr/vanished.py` |\n")
    assert check_docs.check_file(path) == []


def test_main_reports_problem_count(doc_tree: Path, capsys: pytest.CaptureFixture[str]) -> None:
    _doc(doc_tree, "a.md", "[x](gone.md)\n")
    _doc(doc_tree, "b.md", "`repro.vanished`\n")
    assert check_docs.main() == 1
    output = capsys.readouterr().out
    assert "2 documentation problem(s)" in output


def test_real_docs_tree_is_clean() -> None:
    # The repository's own documentation must pass its own checker.
    # (monkeypatch restored ROOT when the fixture-based tests finished.)
    assert check_docs.ROOT == Path(__file__).resolve().parents[2]
    assert check_docs.main() == 0
