#!/usr/bin/env python
"""Link and file-reference checker for the documentation suite.

Validates ``README.md`` and every ``docs/*.md`` file:

* **Markdown links** — every relative ``[text](target)`` must point at an
  existing file (anchors are stripped; external ``http(s)://`` links are
  skipped, since CI must not depend on the network).
* **File references** — every backticked path that looks like a repo file
  (``docs/pipeline.md``, ``benchmarks/bench_pipeline.py``,
  ``examples/quickstart.py``, ``src/repro/...``) must exist.  Paths in
  ``docs/paper_map.md`` are additionally resolved against ``src/repro/``
  (its table convention).
* **Module references** — every backticked dotted ``repro.*`` module name
  must be importable as a file under ``src/``, and every ``oracles.*`` name
  as a file of the repository root's ``oracles`` package.

Exit code 0 when everything resolves, 1 with a per-problem report otherwise.
Run from the repository root::

    python tools/check_docs.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Markdown inline link: [text](target)
LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Backticked repo-file reference: `docs/x.md`, `examples/y.py`, ...
FILE_REFERENCE_PATTERN = re.compile(
    r"`((?:docs|examples|benchmarks|oracles|tests|tools|src)/"
    r"[A-Za-z0-9_./-]+?\.(?:md|py|toml|yml))`"
)

#: Backticked module reference: `repro.pipeline`, `oracles.rr`, ...
MODULE_REFERENCE_PATTERN = re.compile(r"`((?:repro|oracles)(?:\.[a-z_]+)+)`")

#: Backticked paper-map style source path: `rr/matrix.py`, `cli.py`, ...
SOURCE_PATH_PATTERN = re.compile(r"`([a-z_]+(?:/[a-z_]+)*\.py)`")


def _exists_as_module(dotted: str) -> bool:
    # Accept `repro.io.dump_canonical_json`-style references: the longest
    # resolvable dotted prefix names a module file, and the first tail
    # component must then appear in that module's source (a definition or
    # re-export) — otherwise any `repro.typo` would slip through on the
    # strength of the package prefix alone.
    parts = dotted.split(".")
    base = ROOT / "src" if parts[0] == "repro" else ROOT
    for length in range(len(parts), 0, -1):
        relative = Path(*parts[:length])
        module_file = (base / relative).with_suffix(".py")
        package_init = base / relative / "__init__.py"
        if module_file.is_file():
            source = module_file
        elif package_init.is_file():
            source = package_init
        else:
            continue
        tail = parts[length:]
        if not tail:
            return True
        pattern = rf"\b{re.escape(tail[0])}\b"
        return re.search(pattern, source.read_text(encoding="utf-8")) is not None
    return False


def check_file(path: Path) -> list[str]:
    problems: list[str] = []
    text = path.read_text(encoding="utf-8")
    base = path.parent

    for match in LINK_PATTERN.finditer(text):
        target = match.group(1).split("#", 1)[0]
        if not target or target.startswith(("http://", "https://", "mailto:")):
            continue
        if not (base / target).exists() and not (ROOT / target).exists():
            problems.append(f"{path.relative_to(ROOT)}: broken link -> {target}")

    for match in FILE_REFERENCE_PATTERN.finditer(text):
        target = match.group(1)
        if not (ROOT / target).exists():
            problems.append(f"{path.relative_to(ROOT)}: missing file reference -> {target}")

    for match in MODULE_REFERENCE_PATTERN.finditer(text):
        dotted = match.group(1)
        if not _exists_as_module(dotted):
            problems.append(f"{path.relative_to(ROOT)}: unknown module -> {dotted}")

    if path.name == "paper_map.md":
        # Its tables reference implementation files relative to src/repro/;
        # bare names (`front.py` in an `analysis/` row) may live anywhere
        # under the package.
        for match in SOURCE_PATH_PATTERN.finditer(text):
            target = match.group(1)
            if (
                not (ROOT / "src" / "repro" / target).is_file()
                and not (ROOT / target).is_file()
                and not any((ROOT / "src" / "repro").rglob(target))
            ):
                problems.append(
                    f"{path.relative_to(ROOT)}: missing source reference -> {target}"
                )

    return problems


def main() -> int:
    documents = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
    problems: list[str] = []
    for document in documents:
        problems.extend(check_file(document))
    if problems:
        print(f"{len(problems)} documentation problem(s):")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(f"checked {len(documents)} document(s): all links and references resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
