"""Code, docstring and comment lines of each module of src/jjcavity.

    python3 tools/codelines.py

Each line of a module that holds a token counts once, as one of:

    docstring  a line of the string that opens a module, class or function
    code       any other line with a token of a statement (a decorator line
               included), so a line of code with a trailing comment too
    comment    a line that holds a comment and nothing else

Blank lines count nowhere.  At commit b233fd8 the total is 1257 code, 485
docstring and 65 comment lines.  Run it in two checkouts (copy this file
into the older one) and compare the tables; it reads only its own
checkout's src/jjcavity.
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "jjcavity"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}


def counts(source: str) -> tuple[int, int, int]:
    """(code, docstring, comment) lines of one module's source."""
    doc = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                doc.update(range(first.lineno, first.end_lineno + 1))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - doc), len(doc), len(comment - code)


def main() -> None:
    total = [0, 0, 0]
    print(f"{'module':<14}{'code':>6}{'docstring':>11}{'comment':>9}")
    for path in sorted(SRC.glob("*.py")):
        row = counts(path.read_text())
        total = [t + x for t, x in zip(total, row)]
        print(f"{path.name:<14}{row[0]:>6}{row[1]:>11}{row[2]:>9}")
    print(f"{'total':<14}{total[0]:>6}{total[1]:>11}{total[2]:>9}")


if __name__ == "__main__":
    main()
