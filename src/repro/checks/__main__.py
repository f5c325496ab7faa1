"""CLI for the invariant checker: ``python -m repro.checks``.

Exit codes: 0 clean, 1 findings, 2 usage or internal error — the same
contract as the bench ratchet, so CI wiring is one line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.checks import (CheckConfig, all_rules, rule_by_name,
                          run_checks, update_snapshot)


def _find_root(start: Path) -> Path:
    """Nearest ancestor holding the repo's src/repro tree."""
    for candidate in [start, *start.parents]:
        if (candidate / "src" / "repro").is_dir():
            return candidate
    return start


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.checks",
        description="AST-based invariant linter for this repo "
                    "(determinism, tracer purity, frozen key "
                    "schemas).")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to check "
                             "(default: src/ benchmarks/ tests/)")
    parser.add_argument("--list", action="store_true",
                        help="list rules and exit")
    parser.add_argument("--rule", action="append", default=None,
                        metavar="NAME",
                        help="run only this rule (repeatable)")
    parser.add_argument("--format", default="text",
                        choices=("text", "github", "json"),
                        help="finding output format (github emits "
                             "::error workflow annotations)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: auto-detected)")
    parser.add_argument("--update-schema", action="store_true",
                        help="regenerate the frozen-key-schema "
                             "snapshot (requires an ARTIFACT_SCHEMA "
                             "bump when key material changed)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    root = (Path(args.root) if args.root
            else _find_root(Path.cwd()))
    config = CheckConfig()

    if args.list:
        for rule in all_rules():
            print(f"{rule.name}: {rule.description}")
        return 0

    if args.update_schema:
        ok, message = update_snapshot(root, config)
        print(message)
        return 0 if ok else 2

    rules = None
    if args.rule:
        try:
            rules = [rule_by_name(name) for name in args.rule]
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2

    findings = run_checks(root, config=config, rules=rules,
                          paths=args.paths or None)
    if args.format == "json":
        print(json.dumps([f.to_json() for f in findings], indent=2))
    else:
        for finding in findings:
            print(finding.github() if args.format == "github"
                  else finding.text())
        if findings:
            print(f"{len(findings)} finding(s). Suppress inline with "
                  f"'# repro: ignore[rule] -- reason' or fix the "
                  f"source.", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
