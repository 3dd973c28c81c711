#!/usr/bin/env python
"""Hot-path import lint: no function-body imports in hot modules.

A ``from x import y`` inside a function runs the import machinery's
lock + sys.modules probe on *every call* — measurable on mediation
paths that run millions of times (this is how ``dac_check`` cost a
dict probe per DAC-checked mediation before the dcache PR hoisted
it).  This tool AST-walks the modules listed in ``HOT_MODULES`` and
fails (exit 1) on any ``import``/``from-import`` statement nested
inside a function or method body.

Deliberately lazy imports (circular-import breaks, optional heavy
deps) are exempted by a pragma on the import line::

    from repro.firewall.pftables import pftables  # hot-import: ok

Run from the repository root::

    PYTHONPATH=src python tools/check_hot_imports.py

Wired into CI next to the docstring check, and into the test suite as
``tests/test_hot_imports.py`` so a regression fails locally before it
fails in CI.
"""

from __future__ import annotations

import ast
import os
import sys

#: Modules on the mediation hot path: every syscall runs through these,
#: so a per-call import is a per-mediation tax.
HOT_MODULES = [
    "repro/kernel.py",
    "repro/syscalls/api.py",
    "repro/vfs/namei.py",
    "repro/vfs/filesystem.py",
    "repro/vfs/dcache.py",
    "repro/vfs/inode.py",
    "repro/vfs/file.py",
    "repro/firewall/engine.py",
    "repro/firewall/procstate.py",
    "repro/security/dac.py",
    "repro/security/lsm.py",
    "repro/security/selinux.py",
]

#: Pragma marking an import as deliberately lazy.
PRAGMA = "hot-import: ok"


def _function_body_imports(source, filename):
    """Yield ``(lineno, text)`` for each import nested in a function."""
    tree = ast.parse(source, filename=filename)
    lines = source.splitlines()
    offenders = []

    class Visitor(ast.NodeVisitor):
        def __init__(self):
            self.depth = 0

        def _visit_func(self, node):
            self.depth += 1
            self.generic_visit(node)
            self.depth -= 1

        visit_FunctionDef = _visit_func
        visit_AsyncFunctionDef = _visit_func

        def _visit_import(self, node):
            if self.depth > 0:
                text = lines[node.lineno - 1]
                if PRAGMA not in text:
                    offenders.append((node.lineno, text.strip()))
            self.generic_visit(node)

        visit_Import = _visit_import
        visit_ImportFrom = _visit_import

    Visitor().visit(tree)
    return offenders


def main(src_root=None):
    """Check every hot module; return a process exit status."""
    root = src_root or os.path.join(os.path.dirname(__file__), os.pardir, "src")
    root = os.path.abspath(root)
    failures = 0
    for rel in HOT_MODULES:
        path = os.path.join(root, rel)
        if not os.path.exists(path):
            print("check_hot_imports: missing module {}".format(rel))
            failures += 1
            continue
        with open(path) as fh:
            source = fh.read()
        for lineno, text in _function_body_imports(source, rel):
            print("{}:{}: function-body import on a hot path: {}".format(
                rel, lineno, text))
            failures += 1
    if failures:
        print("check_hot_imports: {} offender(s); hoist to module top or "
              "mark '# {}'".format(failures, PRAGMA))
        return 1
    print("check_hot_imports: {} hot modules clean".format(len(HOT_MODULES)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
