"""Count the lines and the code lines of Python modules.

    python tools/code_lines.py [FILE ...]     (default: src/supfix/*.py)

Prints, per module and in total, `wc -l`'s count (newline characters)
and the count of code lines.  The code-line rule, on the module's tokens
(`tokenize`):

- a logical line is the tokens up to a NEWLINE token; COMMENT, NL,
  INDENT, DEDENT, ENCODING and ENDMARKER tokens are not its tokens;
- a logical line made of STRING tokens alone is a docstring (or another
  bare string statement) and counts for nothing;
- every other logical line counts each physical line one of its tokens
  spans, so a multi-line string inside code counts in full, and a blank
  or comment-only line inside brackets does not count.

Blank lines, comment lines and docstrings are therefore not code lines.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of code lines of the module at path (module docstring)."""
    rows: set[int] = set()
    logical: list[tokenize.TokenInfo] = []
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in _SKIP:
                continue
            if tok.type != tokenize.NEWLINE:
                logical.append(tok)
                continue
            if any(t.type != tokenize.STRING for t in logical):
                for t in logical:
                    rows.update(range(t.start[0], t.end[0] + 1))
            logical = []
    return len(rows)


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parents[1]
    paths = [Path(a) for a in argv] or sorted((root / "src" / "supfix").glob("*.py"))
    total_wc = total_code = 0
    for path in paths:
        wc, code = path.read_bytes().count(b"\n"), code_lines(path)
        total_wc, total_code = total_wc + wc, total_code + code
        print(f"{wc:6d} {code:6d}  {path.name}")
    print(f"{total_wc:6d} {total_code:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
