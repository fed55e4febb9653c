#!/usr/bin/env python3
"""Compare two `qb verify --out` reports entry by entry.

Entries are matched by identity id and params, in the report section and in
the counterexample section apart.  For each identity whose entries differ,
it prints how many entries went, were added or changed (a matched entry
whose printed bytes differ), then each changed entry with its old and new
fields.  Exit status 0 when the two reports have the same entries and
counterexamples, 1 otherwise.

Usage:
    python3 scripts/report_diff.py OLD.json NEW.json
"""

import argparse
import json
from collections import defaultdict


def _by_key(entries: list[dict]) -> dict:
    """(identity_id, sorted params) -> the entries with that key, in report order."""
    groups = defaultdict(list)
    for e in entries:
        groups[e["identity_id"], tuple(sorted(e["params"].items()))].append(e)
    return groups


def diff_section(old: list[dict], new: list[dict]) -> tuple[dict, list]:
    """Per identity, the counts {"went", "added", "changed", "kept"}; and the
    (old, new) pairs of changed entries."""
    counts = defaultdict(lambda: {"went": 0, "added": 0, "changed": 0, "kept": 0})
    changed = []
    old_groups, new_groups = _by_key(old), _by_key(new)
    for key in sorted(old_groups.keys() | new_groups.keys()):
        olds, news = old_groups.get(key, []), new_groups.get(key, [])
        tally = counts[key[0]]
        for a, b in zip(olds, news):
            if json.dumps(a) == json.dumps(b):
                tally["kept"] += 1
            else:
                tally["changed"] += 1
                changed.append((a, b))
        tally["went"] += max(len(olds) - len(news), 0)
        tally["added"] += max(len(news) - len(olds), 0)
    return dict(counts), changed


def _params(e: dict) -> str:
    return "{" + ", ".join(f"{k}={v}" for k, v in e["params"].items()) + "}"


def report_section(name: str, old: list[dict], new: list[dict]) -> tuple[list[str], bool]:
    """The printed lines for one section, and whether any entry went, was added or changed."""
    counts, changed = diff_section(old, new)
    lines = [f"{name}: {len(old)} -> {len(new)}"]
    moved = {i: c for i, c in counts.items() if c["went"] or c["added"] or c["changed"]}
    for identity, c in moved.items():
        lines.append(
            f"  {identity:<44} went {c['went']:>4}  added {c['added']:>4}"
            f"  changed {c['changed']:>4}  kept {c['kept']:>4}"
        )
    kept = sum(c["kept"] for c in counts.values())
    lines.append(f"  unchanged: {len(counts) - len(moved)} identities; {kept} entries kept byte-identical")
    for a, b in changed:
        fields = [
            f"{field} {json.dumps(a[field])} -> {json.dumps(b[field])}"
            for field in ("params", "lhs", "rhs", "verdict")
            if json.dumps(a[field]) != json.dumps(b[field])
        ]
        lines.append(f"  changed {a['identity_id']} {_params(a)}: " + "; ".join(fields))
    return lines, bool(moved)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="the earlier report (JSON)")
    parser.add_argument("new", help="the later report (JSON)")
    args = parser.parse_args(argv)
    with open(args.old) as f:
        old = json.load(f)
    with open(args.new) as f:
        new = json.load(f)
    differs = False
    for section in ("entries", "counterexamples"):
        lines, moved = report_section(section, old[section], new[section])
        print("\n".join(lines))
        differs = differs or moved
    return 1 if differs else 0


if __name__ == "__main__":
    raise SystemExit(main())
