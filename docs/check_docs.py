#!/usr/bin/env python3
"""Documentation checks behind `cmake --build build --target docs`.

Fails (non-zero exit, one line per problem) when:

  * a required doc file is missing or trivially short;
  * a relative markdown link in README.md or docs/*.md points at nothing;
  * a public API header on the documented list lacks its file-level
    comment, or declares a public class/struct/enum without a doc
    comment immediately above it.

Runs everywhere (no dependencies beyond Python 3); when Doxygen is
installed the docs target *additionally* renders the API reference from
the same headers with warnings-as-errors. Keeping this checker in the
loop means a toolchain without Doxygen still cannot merge undocumented
public API.
"""

import argparse
import re
import sys
from pathlib import Path

REQUIRED_DOCS = ["docs/ARCHITECTURE.md", "docs/engines.md", "README.md"]

# The public API surface whose doc comments are part of the contract
# (ISSUE 4): the anytime optimizer API and the serving layer.
DOCUMENTED_HEADERS = [
    "src/cluster/include/quest/cluster/health.hpp",
    "src/cluster/include/quest/cluster/registration_journal.hpp",
    "src/cluster/include/quest/cluster/replica_router.hpp",
    "src/opt/include/quest/opt/optimizer.hpp",
    "src/opt/include/quest/opt/registry.hpp",
    "src/opt/include/quest/opt/search_control.hpp",
    "src/opt/include/quest/opt/stop_token.hpp",
    "src/serve/include/quest/serve/instance_store.hpp",
    "src/serve/include/quest/serve/line_framer.hpp",
    "src/serve/include/quest/serve/plan_cache.hpp",
    "src/serve/include/quest/serve/protocol.hpp",
    "src/serve/include/quest/serve/server.hpp",
    "src/store/include/quest/store/jsonl.hpp",
    "src/store/include/quest/store/shard_map.hpp",
    "src/store/include/quest/store/snapshot.hpp",
    "src/store/include/quest/store/snapshot_writer.hpp",
]

MARKDOWN_LINK = re.compile(r"\]\(([^)#\s]+)(#[^)\s]*)?\)")
DECLARATION = re.compile(r"^(?:class|struct|enum class)\s+[A-Z_]\w*")


def check_markdown_links(root, problems):
    for path in [root / "README.md"] + sorted((root / "docs").glob("*.md")):
        text = path.read_text(encoding="utf-8")
        for match in MARKDOWN_LINK.finditer(text):
            target = match.group(1)
            if "://" in target or target.startswith("mailto:"):
                continue
            resolved = (path.parent / target).resolve()
            if not resolved.exists():
                problems.append(
                    f"{path.relative_to(root)}: broken link -> {target}"
                )


def check_header(root, relative, problems):
    path = root / relative
    if not path.exists():
        problems.append(f"{relative}: documented header does not exist")
        return
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("//"):
        problems.append(f"{relative}: missing the file-level comment block")
    for index, line in enumerate(lines):
        if not DECLARATION.match(line):
            continue
        stripped = line.strip()
        if stripped.endswith(";"):  # forward declaration
            continue
        previous = lines[index - 1].strip() if index > 0 else ""
        if not previous.startswith("//"):
            name = stripped.split("{")[0].strip()
            problems.append(
                f"{relative}:{index + 1}: public '{name}' has no doc "
                "comment above it"
            )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path, required=True,
                        help="repository root")
    root = parser.parse_args().root.resolve()

    problems = []
    for relative in REQUIRED_DOCS:
        path = root / relative
        if not path.exists():
            problems.append(f"{relative}: missing")
        elif len(path.read_text(encoding="utf-8")) < 500:
            problems.append(f"{relative}: suspiciously short")
    check_markdown_links(root, problems)
    for relative in DOCUMENTED_HEADERS:
        check_header(root, relative, problems)

    if problems:
        for problem in problems:
            print(f"check_docs: {problem}", file=sys.stderr)
        return 1
    print(
        f"check_docs: ok ({len(REQUIRED_DOCS)} docs, "
        f"{len(DOCUMENTED_HEADERS)} API headers)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
