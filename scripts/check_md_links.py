#!/usr/bin/env python3
"""Check relative markdown links, heading anchors and source pointers.

Scans README.md and docs/*.md for inline links `[text](target)` and
source pointers `dir/file.ext:line` (also `:first-last`, and
comma-separated lists of either), optionally naming the symbol they
point at as `dir/file.ext:line:symbol`, and verifies that

  - relative file/directory targets exist in the repository,
  - `#fragment` anchors (same-file or on a linked .md file) match a
    heading in the target file, using GitHub's slugification rules, and
  - each pointer's file exists (paths are relative to the repository
    root) and every line range in it is ascending and fits within the
    file's length, and
  - a pointer that names a symbol finds it, as a whole word, in every
    line range it lists, so a pointer whose code moved fails instead of
    silently pointing at a neighbour.

External links (http/https/mailto) are not fetched. Links and pointers
inside fenced code blocks are ignored. Exits non-zero listing every
broken link or pointer as `file:line: message`; otherwise prints how
many pointers it checked and how many of them name a symbol.

Usage: python3 scripts/check_md_links.py [repo-root]
"""

import re
import sys
from pathlib import Path

LINK_RE = re.compile(r"\[[^\]^\[]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
FENCE_RE = re.compile(r"^\s*(```|~~~)")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
EXTERNAL_RE = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")
# A repo-relative path with at least one directory and an extension,
# then `:N`, `:N-M`, or a comma list of those, then an optional
# `:symbol`.
POINTER_RE = re.compile(
    r"(?<![\w/.-])((?:[\w.-]+/)+[\w.-]+\.[A-Za-z]\w*)"
    r":(\d+(?:-\d+)?(?:,\d+(?:-\d+)?)*)"
    r"(?::([A-Za-z_]\w*))?"
)


def github_slug(heading, seen):
    """GitHub's anchor id for a heading text, deduplicated via `seen`."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)           # strip code spans
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # links -> text
    text = re.sub(r"[*_~]", "", text)                     # emphasis markers
    slug = re.sub(r"[^\w\s-]", "", text.lower(), flags=re.UNICODE)
    slug = re.sub(r"\s", "-", slug)
    if slug in seen:
        seen[slug] += 1
        return f"{slug}-{seen[slug]}"
    seen[slug] = 0
    return slug


def anchors_of(path, cache):
    if path not in cache:
        seen = {}
        anchors = set()
        in_fence = False
        for line in path.read_text(encoding="utf-8").splitlines():
            if FENCE_RE.match(line):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            m = HEADING_RE.match(line)
            if m:
                anchors.add(github_slug(m.group(2), seen))
        cache[path] = anchors
    return cache[path]


def iter_lines(path):
    """(lineno, line) outside fenced code blocks."""
    in_fence = False
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if not in_fence:
            yield lineno, line


def source_lines(path, cache):
    if path not in cache:
        cache[path] = path.read_text(encoding="utf-8").splitlines()
    return cache[path]


def check_pointer(file_ref, ranges, symbol, root, sources):
    """The problem with one `file:ranges[:symbol]` pointer, or None."""
    dest = (root / file_ref).resolve()
    try:
        dest.relative_to(root)
    except ValueError:
        return "pointer escapes the repo"
    if not dest.is_file():
        return "pointer to a missing file"
    lines = source_lines(dest, sources)
    word = re.compile(rf"(?<!\w){re.escape(symbol)}(?!\w)") if symbol else None
    for span in ranges.split(","):
        first, _, last = span.partition("-")
        first = int(first)
        last = int(last) if last else first
        if first < 1 or last < first:
            return f"bad line range {span}"
        if last > len(lines):
            return (f"line range {span} runs past the end "
                    f"({len(lines)} lines)")
        if word and not any(word.search(l) for l in lines[first - 1:last]):
            found = [n for n, l in enumerate(lines, 1) if word.search(l)]
            where = (f"; it is on line {found[0]}" if len(found) == 1
                     else "")
            return f"'{symbol}' is not on line {span}{where}"
    return None


def check_link(path, root, anchors, target):
    """The problem with one link target, or None."""
    if EXTERNAL_RE.match(target):
        return None  # http(s):, mailto:, etc.
    ref, _, fragment = target.partition("#")
    if ref:
        dest = (path.parent / ref).resolve()
        try:
            dest.relative_to(root)
        except ValueError:
            return f"link escapes the repo: {target}"
        if not dest.exists():
            return f"broken link: {target}"
    else:
        dest = path  # pure '#fragment' self-reference
    if fragment:
        if dest.is_dir() or dest.suffix != ".md":
            return f"anchor on a non-markdown target: {target}"
        if fragment not in anchors_of(dest, anchors):
            return f"missing anchor: {target}"
    return None


def check_file(path, root, anchors, sources):
    """(errors, pointers checked, pointers naming a symbol) for one
    markdown file."""
    errors = []
    pointers = symbols = 0
    for lineno, line in iter_lines(path):
        for m in POINTER_RE.finditer(line):
            pointers += 1
            symbols += m.group(3) is not None
            problem = check_pointer(m.group(1), m.group(2), m.group(3),
                                    root, sources)
            if problem:
                errors.append((lineno, f"{problem}: {m.group(0)}"))
        for m in LINK_RE.finditer(line):
            problem = check_link(path, root, anchors, m.group(1))
            if problem:
                errors.append((lineno, problem))
    return errors, pointers, symbols


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    files = sorted([root / "README.md", *(root / "docs").glob("*.md")])
    anchors, sources = {}, {}
    failures = 0
    checked = 0
    pointers = symbols = 0
    for path in files:
        if not path.exists():
            print(f"error: {path} does not exist", file=sys.stderr)
            return 2
        checked += 1
        errors, count, named = check_file(path, root, anchors, sources)
        pointers += count
        symbols += named
        for lineno, message in errors:
            rel = path.relative_to(root)
            print(f"{rel}:{lineno}: {message}", file=sys.stderr)
            failures += 1
    if failures:
        print(f"check_md_links: {failures} broken link(s) or pointer(s)",
              file=sys.stderr)
        return 1
    print(f"check_md_links: {checked} files, {pointers} pointers "
          f"({symbols} naming a symbol) OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
