#!/usr/bin/env python3
"""Line counts of the package source, split into code, docstring, comment
and blank lines, per module under src/papr_lab and in total.

Docstrings are the module, class and function docstring statements (ast);
comments are the lines that hold a comment and no other token (tokenize);
blank lines hold nothing but white space; every other line is code.

With --against REV, each module's syntax tree with its docstrings removed
(ast.dump, so comments, layout and line numbers do not count) is compared
with the module's at the git revision REV, read with `git show`.  Each
module reads "same code" or "code differs" (also one that REV lacks), and
the exit code is 1 when any module differs.  An unknown REV is refused with
one error line and exit code 1.

    python scripts/src_lines.py
    python scripts/src_lines.py --against HEAD~1
"""
import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "papr_lab"
KINDS = ("code", "docstring", "comment", "blank")
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstrings(tree: ast.AST) -> list[ast.Expr]:
    """The docstring statements of tree's module, classes and functions."""
    return [node.body[0] for node in ast.walk(tree)
            if isinstance(node, _SCOPES) and node.body
            and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)]


def split_lines(source: str) -> dict[str, int]:
    """The count of source's code, docstring, comment and blank lines."""
    lines = source.splitlines()
    kind = ["blank" if not line.strip() else "code" for line in lines]
    for doc in _docstrings(ast.parse(source)):
        for i in range(doc.lineno - 1, doc.end_lineno):
            kind[i] = "docstring"
    other = set()  # lines that hold a token other than a comment
    comments = set()
    skip = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
            tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in skip:
            other.update(range(tok.start[0], tok.end[0] + 1))
    for n in comments - other:
        kind[n - 1] = "comment"
    return {k: kind.count(k) for k in KINDS}


def code_dump(source: str) -> str:
    """ast.dump of source's tree with its docstring statements removed."""
    tree = ast.parse(source)
    docs = set(map(id, _docstrings(tree)))
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES):
            node.body = [s for s in node.body if id(s) not in docs]
    return ast.dump(tree)


def _modules() -> list[Path]:
    return sorted(SRC.rglob("*.py"))


def _at_revision(rev: str, path: Path) -> str | None:
    """path's text at git revision rev, None where it does not exist."""
    done = subprocess.run(
        ["git", "show", f"{rev}:{path.relative_to(ROOT).as_posix()}"],
        cwd=ROOT, capture_output=True, text=True)
    return done.stdout if done.returncode == 0 else None


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--against", metavar="REV",
                    help="compare each module's code with git revision REV")
    args = ap.parse_args()
    if args.against and subprocess.run(
            ["git", "rev-parse", "--verify", "--quiet",
             f"{args.against}^{{commit}}"],
            cwd=ROOT, capture_output=True).returncode:
        print(f"{ap.prog}: error: --against: unknown revision "
              f"{args.against!r}", file=sys.stderr)
        return 1
    width = max(len(str(p.relative_to(SRC))) for p in _modules())
    print(f"{'module':<{width}} " + " ".join(f"{k:>9}" for k in KINDS)
          + f" {'total':>6}" + ("  against " + args.against
                                if args.against else ""))
    totals = dict.fromkeys(KINDS, 0)
    differs = False
    for path in _modules():
        source = path.read_text()
        counts = split_lines(source)
        for k in KINDS:
            totals[k] += counts[k]
        line = (f"{str(path.relative_to(SRC)):<{width}} "
                + " ".join(f"{counts[k]:>9}" for k in KINDS)
                + f" {sum(counts.values()):>6}")
        if args.against:
            old = _at_revision(args.against, path)
            same = old is not None and code_dump(old) == code_dump(source)
            differs |= not same
            line += "  " + ("same code" if same else "code differs")
        print(line)
    print(f"{'total':<{width}} " + " ".join(f"{totals[k]:>9}" for k in KINDS)
          + f" {sum(totals.values()):>6}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
