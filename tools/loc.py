"""Split the lines of the ``.py`` files under each directory given.

    python3 tools/loc.py src/tropdiv

For each directory, prints one line: its number of lines of code, of
docstrings, of comments and blank, and their total.  A docstring is the
string that opens a module, class or function, and each line from its
first to its last counts as docstring, blank lines inside it included.
Of the other lines, one that holds part of a token other than a comment
is code (every line of a multi-line string or expression is), one that
holds only a comment is a comment line, and the rest are blank.  Files
are found recursively and read as UTF-8.  Stdlib only, with no options.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that hold no code of their own
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


def split(source: str) -> dict[str, int]:
    """The lines of ``source``, a module's text, as counts of "code",
    "docstring", "comment" and "blank"."""
    doc: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node, False) is not None:
            s = node.body[0]
            doc.update(range(s.lineno, s.end_lineno + 1))
    code: set[int] = set()
    comment: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= doc
    comment -= doc | code
    n = len(source.splitlines())
    return {"code": len(code), "docstring": len(doc), "comment": len(comment),
            "blank": n - len(code) - len(doc) - len(comment)}


def main(argv: list[str]) -> int:
    for d in argv:
        total = dict.fromkeys(("code", "docstring", "comment", "blank"), 0)
        for path in sorted(Path(d).rglob("*.py")):
            for k, v in split(path.read_text(encoding="utf-8")).items():
                total[k] += v
        print(f"{d}: " + ", ".join(f"{v} {k}" for k, v in total.items())
              + f", {sum(total.values())} in all")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
