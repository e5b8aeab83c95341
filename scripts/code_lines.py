"""Count code lines: every line but blank, comment and docstring lines.

``python scripts/code_lines.py [ROOT]`` (ROOT defaults to src/repro)
prints one count per ``.py`` file under ROOT, then the ROADMAP's
orchestration and compute groups and the total.
"""
import ast
import io
import sys
import tokenize
from pathlib import Path

GROUPS = {"orchestration": ("pipeline/", "service/", "__main__.py",
                            "eval/harness.py"),
          "compute": ("core/", "spatial/", "capstan/", "backends/")}
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, DOCUMENTED)
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


root = Path(sys.argv[1] if sys.argv[1:] else Path(__file__).resolve().parents[1] / "src/repro")
counts = {p.relative_to(root).as_posix(): code_lines(p.read_text())
          for p in sorted(root.rglob("*.py"))}
for group, prefixes in GROUPS.items():
    counts[group] = sum(n for f, n in counts.items() if f.startswith(prefixes))
counts["total"] = sum(n for f, n in counts.items() if f.endswith(".py"))
print("\n".join(f"{n:6d}  {name}" for name, n in counts.items()))
