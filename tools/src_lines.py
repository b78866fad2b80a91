"""Count the lines of psqm's source by kind: code, docstring, comment, blank.

    python3 tools/src_lines.py [DIR]

DIR defaults to src/psqm.  A line is docstring when it lies in a string
literal that stands alone as a statement (module, class and function
docstrings, blank lines inside them included), blank when it holds only
white space, comment when it holds only a comment, and code otherwise.
Prints one row per file and the totals.  Standard library only.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def count(path: Path) -> dict:
    text = path.read_text()
    doc = set()
    for node in ast.walk(ast.parse(text, filename=str(path))):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            doc.update(range(node.lineno, node.end_lineno + 1))
    out = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if number in doc:
            out["docstring"] += 1
        elif not stripped:
            out["blank"] += 1
        elif stripped.startswith("#"):
            out["comment"] += 1
        else:
            out["code"] += 1
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "psqm"
    total = dict.fromkeys(KINDS, 0)
    print(f"{'file':<16}" + "".join(f"{k:>10}" for k in KINDS) + f"{'total':>10}")
    for path in sorted(root.glob("*.py")):
        row = count(path)
        for k in KINDS:
            total[k] += row[k]
        print(f"{path.name:<16}" + "".join(f"{row[k]:>10,}" for k in KINDS)
              + f"{sum(row.values()):>10,}")
    print(f"{'total':<16}" + "".join(f"{total[k]:>10,}" for k in KINDS)
          + f"{sum(total.values()):>10,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
