#!/usr/bin/env python3
"""Print the size of the package: the lines under ``src/``, its code lines
and the public names ``ellipcenters/__init__.py`` exports, then one line per
module with its lines and code lines.

    python tools/src_size.py [ROOT]

ROOT is a checkout, by default the one this script is in.  A code line is a
line that is not blank, not only a comment (found with ``tokenize``) and not
part of a docstring (found with ``ast``).  An export is a name that the
package's ``__init__.py`` binds at its top level without a leading
underscore.
"""

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            doc = node.body[0] if node.body else None
            if (isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant)
                    and isinstance(doc.value.value, str)):
                lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def exports(init: Path) -> list[str]:
    """The public names bound at the top level of ``init``."""
    names = []
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def main(root: Path) -> None:
    modules = []
    for path in sorted((root / "src").rglob("*.py")):
        source = path.read_text()
        modules.append((path.relative_to(root / "src").as_posix(),
                        len(source.splitlines()), code_lines(source)))
    names = exports(root / "src" / "ellipcenters" / "__init__.py")
    try:
        print(f"src lines  {sum(lines for _, lines, _ in modules):,}")
        print(f"code lines {sum(code for _, _, code in modules):,}")
        print(f"exports    {len(names)}: {', '.join(names)}")
        for name, lines, code in modules:
            print(f"{name:<30} lines {lines:>5,}  code {code:>5,}")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early, as ``| head -1`` does; stdout goes to
        # devnull so that the interpreter's flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent)
