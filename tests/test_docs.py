"""Documentation health checks: link integrity and CLI/doc drift.

The CI ``docs`` job runs this module (via ``make docs-check``) so README.md
and everything under ``docs/`` stay honest:

* every relative markdown link and every backtick-quoted repository path
  must point at a file that exists;
* ``docs/GUIDE.md`` must document every ``repro`` subcommand and every
  global CLI flag (the drift this PR was born to fix: the CLI had grown to
  nine subcommands with no user guide);
* every ``--flag`` README.md or ``docs/GUIDE.md`` names must exist on the
  ``repro`` parser or one of its subcommands, so a removed flag cannot
  linger in the docs;
* every backtick-quoted dotted ``repro.…`` name must import, so a deleted
  module or class cannot linger in the docs either.

External (``http(s)://``) links are deliberately not fetched — the test
suite runs offline.
"""

from __future__ import annotations

import argparse
import importlib
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Markdown files whose links are checked.
DOC_FILES = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")])

_LINK = re.compile(r"\[[^\]]*\]\(([^)#\s]+)[^)]*\)")
#: Backtick-quoted repo-relative paths (e.g. ``docs/ARCHITECTURE.md``,
#: `benchmarks/bench_backend.py`) — README prose references files this way.
_PATH_REF = re.compile(r"`([A-Za-z0-9_./-]+\.(?:md|py|json|yml|toml))`")


def _targets(text: str):
    for match in _LINK.finditer(text):
        yield match.group(1)
    for match in _PATH_REF.finditer(text):
        yield match.group(1)


def _repo_files():
    """All tracked-ish repo files as repo-relative POSIX paths."""
    files = []
    for path in REPO_ROOT.rglob("*"):
        if path.is_file() and ".git" not in path.parts \
                and "__pycache__" not in path.parts:
            files.append(path.relative_to(REPO_ROOT).as_posix())
    return files


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_markdown_links_resolve(doc):
    text = doc.read_text(encoding="utf-8")
    repo_files = _repo_files()
    basenames = {path.rsplit("/", 1)[-1] for path in repo_files}
    missing = []
    for target in _targets(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        # Markdown links and pathed references resolve relative to the doc,
        # the repo root, or as a path suffix anywhere in the tree (docs say
        # `backend/lowering.py` for src/repro/backend/lowering.py).
        if (doc.parent / target).exists() or (REPO_ROOT / target).exists():
            continue
        if "/" in target:
            if any(path.endswith("/" + target) for path in repo_files):
                continue
        elif target in basenames:
            # Bare module names (`lexer.py`) are package-relative prose; any
            # file of that name anywhere in the repo satisfies them.
            continue
        missing.append(target)
    assert not missing, f"{doc.name}: dead references {missing}"


def test_guide_covers_every_cli_subcommand():
    from repro.cli import build_parser

    guide = (REPO_ROOT / "docs" / "GUIDE.md").read_text(encoding="utf-8")
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if hasattr(a, "choices") and a.choices)
    for subcommand in subparsers.choices:
        assert f"repro {subcommand}" in guide, \
            f"docs/GUIDE.md does not document `repro {subcommand}`"


def test_guide_covers_every_global_flag():
    from repro.cli import build_parser

    guide = (REPO_ROOT / "docs" / "GUIDE.md").read_text(encoding="utf-8")
    parser = build_parser()
    for action in parser._actions:
        for option in action.option_strings:
            if option.startswith("--"):
                assert option in guide, \
                    f"docs/GUIDE.md does not document the global {option} flag"


#: A ``--flag`` token in prose or a code block.
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def _parser_options(parser: argparse.ArgumentParser) -> set:
    """Every option string of ``parser`` and of its subcommands."""
    options = set()
    for action in parser._actions:
        options.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for subparser in action.choices.values():
                options |= _parser_options(subparser)
    return options


@pytest.mark.parametrize("doc", ["README.md", "docs/GUIDE.md"])
def test_documented_flags_exist(doc):
    from repro.cli import build_parser

    options = _parser_options(build_parser())
    text = (REPO_ROOT / doc).read_text(encoding="utf-8")
    unknown = sorted(set(_FLAG.findall(text)) - options)
    assert not unknown, f"{doc} names flags `repro` does not have: {unknown}"


#: A backtick-quoted dotted name under the package: a module or a member.
_DOTTED_NAME = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)`")


def _resolve(dotted: str):
    """Import the longest module prefix of ``dotted``, then get each
    remaining attribute; raises ImportError or AttributeError when the name
    does not resolve."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[cut:]:
            target = getattr(target, attribute)
        return target
    raise ModuleNotFoundError(f"no module in {dotted}")


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_documented_repro_names_resolve(doc):
    text = doc.read_text(encoding="utf-8")
    unresolved = []
    for name in sorted(set(_DOTTED_NAME.findall(text))):
        try:
            _resolve(name)
        except (ImportError, AttributeError):
            unresolved.append(name)
    assert not unresolved, f"{doc.name} names what does not exist: {unresolved}"


def test_readme_links_to_guide():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "docs/GUIDE.md" in readme
