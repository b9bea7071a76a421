"""List the settable options of symloc's public API, or how they changed.

An option is a parameter with a default of a public function or method
(``__init__`` included), or a public field with a default of a public
dataclass.  Names that start with an underscore are private, and so is
everything defined inside a function body.  The sources are read with
``ast``; nothing is imported.

    python scripts/public_options.py             # this checkout's src/symloc
    python scripts/public_options.py --diff REV  # options added or removed since REV

One option per line, ``module:qualname param=default``, sorted.  A changed
default shows as one removed and one added line.  The diff only reports;
it exits 0 either way.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PACKAGE = "src/symloc"


def _public(name: str) -> bool:
    return not name.startswith("_") or name == "__init__"


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _function_options(fn, qualname):
    args = fn.args
    positional = args.posonlyargs + args.args
    pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    for arg, default in pairs:
        yield f"{qualname} {arg.arg}={ast.unparse(default)}"


def _body_options(body, prefix, in_dataclass=False):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _public(node.name):
            yield from _function_options(node, prefix + node.name)
        elif isinstance(node, ast.ClassDef) and _public(node.name):
            yield from _body_options(node.body, f"{prefix}{node.name}.", _is_dataclass(node))
        elif (in_dataclass and isinstance(node, ast.AnnAssign) and node.value is not None
              and isinstance(node.target, ast.Name) and _public(node.target.id)):
            yield f"{prefix.rstrip('.')} {node.target.id}={ast.unparse(node.value)}"


def options(sources: dict) -> list:
    """Every option of the modules ``sources`` ({module name: source text})."""
    out = []
    for module, text in sorted(sources.items()):
        out += [f"{module}:{line}" for line in _body_options(ast.parse(text).body, "")]
    return sorted(out)


def _checkout_sources() -> dict:
    pkg = os.path.join(ROOT, PACKAGE)
    out = {}
    for name in os.listdir(pkg):
        if name.endswith(".py") and _public(name[:-3]):
            with open(os.path.join(pkg, name)) as f:
                out[name[:-3]] = f.read()
    return out


def _revision_sources(rev: str) -> dict:
    def git(*args):
        return subprocess.run(["git", "-C", ROOT, *args], check=True,
                              capture_output=True, text=True).stdout

    out = {}
    for path in git("ls-tree", "--name-only", f"{rev}:{PACKAGE}").split():
        if path.endswith(".py") and _public(path[:-3]):
            out[path[:-3]] = git("show", f"{rev}:{PACKAGE}/{path}")
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--diff", metavar="REV", help="print the options added or removed since REV")
    args = p.parse_args(argv)
    head = options(_checkout_sources())
    if args.diff is None:
        print("\n".join(head))
        return
    base = options(_revision_sources(args.diff))
    removed = sorted(set(base) - set(head))
    added = sorted(set(head) - set(base))
    lines = [f"- {o}" for o in removed] + [f"+ {o}" for o in added]
    print("\n".join(lines) if lines else "no option added or removed")
    print(f"{len(base)} options at {args.diff}, {len(head)} in this checkout", file=sys.stderr)


if __name__ == "__main__":
    main()
