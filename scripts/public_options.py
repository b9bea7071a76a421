"""List the public names and settable options of symloc's public API, or
how they changed.

A public name is one a module lists in ``__all__``.  An option is a
parameter with a default of a public function or method (``__init__``
included), or a public field with a default of a public dataclass.  Names
that start with an underscore are private, and so is everything defined
inside a function body.  The sources are read with ``ast``; nothing is
imported.

    python scripts/public_options.py             # this checkout's src/symloc
    python scripts/public_options.py --diff REV  # names and options added or removed since REV
    python scripts/public_options.py --test-only # public names no src/perfbench/scripts file uses

One line each, sorted: ``module:__all__ name`` for a public name and
``module:qualname param=default`` for an option.  A changed default shows
as one removed and one added line.  ``--test-only`` prints ``module:name``
for each ``__all__`` name that no file under src/, perfbench/ or scripts/
spells as a name or an attribute (matched by name alone, so a name that
any module uses counts as used), which leaves the names only tests call.
Every mode only reports; it exits 0.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PACKAGE = "src/symloc"
CALLERS = ("src", "perfbench", "scripts")


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


def _exported(body):
    """The names a module body assigns to ``__all__``."""
    for node in body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            yield from ast.literal_eval(node.value)


def options(sources: dict) -> list:
    """Every public name and option of the modules ``sources`` ({module
    name: source text})."""
    out = []
    for module, text in sorted(sources.items()):
        body = ast.parse(text).body
        exported = (f"__all__ {name}" for name in _exported(body))
        out += [f"{module}:{line}" for line in (*exported, *_body_options(body, ""))]
    return sorted(out)


def test_only(sources: dict, callers) -> list:
    """``module:name`` for each ``__all__`` name of ``sources`` ({module
    name: source text}) that none of the source texts ``callers`` uses as
    a name or an attribute."""
    used = set()
    for text in callers:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(f"{module}:{name}" for module, text in sources.items()
                  for name in _exported(ast.parse(text).body) if name not in used)


def _checkout_sources() -> dict:
    pkg = os.path.join(ROOT, PACKAGE)
    out = {}
    for name in os.listdir(pkg):
        if name.endswith(".py") and _public(name[:-3]):
            with open(os.path.join(pkg, name)) as f:
                out[name[:-3]] = f.read()
    return out


def _caller_sources() -> list:
    """The text of every .py file under CALLERS."""
    out = []
    for top in CALLERS:
        for folder, _, names in os.walk(os.path.join(ROOT, top)):
            for name in sorted(names):
                if name.endswith(".py"):
                    with open(os.path.join(folder, name)) as f:
                        out.append(f.read())
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
    p.add_argument("--diff", metavar="REV",
                   help="print the names and options added or removed since REV")
    p.add_argument("--test-only", action="store_true",
                   help="print the public names that no src/, perfbench/ or scripts/ file uses")
    args = p.parse_args(argv)
    if args.test_only:
        names = test_only(_checkout_sources(), _caller_sources())
        print("\n".join(names) if names else "every public name has a caller")
        return
    head = options(_checkout_sources())
    if args.diff is None:
        print("\n".join(head))
        return
    base = options(_revision_sources(args.diff))
    removed = sorted(set(base) - set(head))
    added = sorted(set(head) - set(base))
    lines = [f"- {o}" for o in removed] + [f"+ {o}" for o in added]
    print("\n".join(lines) if lines else "no name or option added or removed")
    print(f"{len(base)} names and options at {args.diff}, {len(head)} in this checkout",
          file=sys.stderr)


if __name__ == "__main__":
    main()
