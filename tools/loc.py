"""Code-line counter for the package: physical lines that hold Python code,
not counting blank lines, comments or docstrings (Python ``tokenize``).

A docstring is a string-literal expression statement: a logical line that
is one STRING token and nothing else. Lines it spans count as docstring
lines unless another code token shares them.

Usage, from the repository root:
    python tools/loc.py [module ...]

With no argument it prints every module of ``ai_knowledgegraph_extractor_ray/``
and the total; a module is named by its path under the package
(``pipelines/kg.py``) or as a dotted name (``pipelines.kg``). The total
covers the modules printed.
"""
from __future__ import annotations

import argparse
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = (Path(__file__).resolve().parent.parent
           / "ai_knowledgegraph_extractor_ray")
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Physical lines of ``source`` holding a code token."""
    lines: set[int] = set()
    logical: list[tokenize.TokenInfo] = []

    def flush() -> None:
        if len(logical) == 1 and logical[0].type == tokenize.STRING:
            return                                  # docstring statement
        for tok in logical:
            lines.update(range(tok.start[0], tok.end[0] + 1))

    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NEWLINE:
            flush()
            logical = []
        elif tok.type not in _SKIP:
            logical.append(tok)
    flush()
    return len(lines)


def _module_path(name: str) -> Path:
    if not name.endswith(".py"):
        name = name.replace(".", "/") + ".py"
    return PACKAGE / name


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("module", nargs="*",
                    help="pipelines/kg.py or pipelines.kg (default: all)")
    args = ap.parse_args(argv)
    paths = ([_module_path(m) for m in args.module] if args.module
             else sorted(PACKAGE.rglob("*.py")))
    for p in paths:
        if not p.is_file():
            ap.error(f"no module {p.relative_to(PACKAGE)} in the package")
    total = 0
    for p in paths:
        n = code_lines(p.read_text())
        total += n
        print(f"{n:6d}  {p.relative_to(PACKAGE)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
