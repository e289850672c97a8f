#!/usr/bin/env python3
"""Stdlib-only lint for environments where ``ruff`` cannot be installed.

CI runs ``ruff check`` / ``ruff format --check`` / ``mypy``; a sandbox without
network access has none of them.  This script is the part of those checks that
needs nothing but the standard library, over the same files — the path list is
read from the ``ruff check`` step of ``.github/workflows/ci.yml``, so the two
cannot drift apart:

* every file compiles (``compileall``: syntax errors, bad escapes);
* no line is longer than ``[tool.ruff] line-length`` (100), a trailing
  ``# type: ignore`` / ``# noqa`` pragma not counted;
* no module-level import is unused (ruff F401, at ``ast`` level: a name counts
  as used when it is read anywhere in the module, listed in ``__all__`` or
  appears inside a string annotation);
* every name in ``__all__`` is bound at module level (ruff F822).

Run without arguments (as CI does), it also checks that the library's public
surface is what something calls: every module-level ``def`` and ``class`` in
``src/repro`` outside ``src/repro/reference`` must be read (an ``ast.Name``
load or an ``ast.Attribute`` of that name, outside its own definition)
somewhere in ``src/repro``, ``bench``, ``benchmarks``, ``examples`` or
``scripts``.  A re-export or an ``__all__`` entry is not a read, and neither
is a test.  ``UNCALLED_KEEP`` names the exceptions, each with its reason.
Methods are not checked (their names collide too often to be told apart by
name); an uncalled method is a review finding.

Run without arguments, it also runs every ``git grep`` guard step of CI's lint
job, read from ``.github/workflows/ci.yml`` like the path list, with ``bash``
from the repository root; a step that exits non-zero is a finding that names
the step and carries its output.

Usage::

    python scripts/lint_local.py            # CI's ruff-check path list, uncalled
                                            # definitions and CI's git grep guards
    python scripts/lint_local.py src tests  # explicit files or directories

Exit status 1 when anything was found, each finding as ``path:line: message``.
"""

from __future__ import annotations

import ast
import compileall
import re
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
CI_WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"
MAX_LINE_LENGTH = 100

LIBRARY = REPO_ROOT / "src" / "repro"
#: Where a read makes a library definition part of the public surface.
CALLERS = ("src/repro", "bench", "benchmarks", "examples", "scripts")
#: Module-level definitions that only tests read, and why each stays.
UNCALLED_KEEP = {
    "build_trajectory": "test-fixture builder: most test modules build their trajectories with it",
    "uniform_transitions": "test-fixture builder of the HMM tests' transition tables",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# A trailing checker pragma cannot be wrapped, so it does not count as length.
_PRAGMA_TAIL = re.compile(r"\s+# (type: ignore|noqa).*$")


def ci_ruff_paths() -> List[Path]:
    """The paths CI's ``ruff check`` step lints."""
    match = re.search(r"^\s*run: ruff check (.+)$", CI_WORKFLOW.read_text("utf-8"), re.MULTILINE)
    if match is None:
        raise SystemExit(f"no 'run: ruff check ...' step found in {CI_WORKFLOW}")
    return [REPO_ROOT / part for part in match.group(1).split()]


def ci_guard_steps() -> List[Tuple[str, str]]:
    """``(name, script)`` of every step of CI's lint job whose script runs ``git grep``."""
    steps: List[Tuple[str, str]] = []
    job = name = ""
    lines = CI_WORKFLOW.read_text("utf-8").splitlines()
    for number, line in enumerate(lines):
        job_match = re.match(r"^  ([\w-]+):\s*$", line)
        if job_match:
            job = job_match.group(1)
            continue
        step = re.match(r"^\s*- name: (.+)$", line)
        if step:
            name = step.group(1).strip()
            continue
        run = re.match(r"^(\s*)run: (.*)$", line)
        if run is None or job != "lint":
            continue
        indent, command = len(run.group(1)), run.group(2).strip()
        if command == "|":
            block = []
            for following in lines[number + 1 :]:
                if following.strip() and len(following) - len(following.lstrip()) <= indent:
                    break
                block.append(following)
            command = "\n".join(block)
        if "git grep" in command:
            steps.append((name, command))
    return steps


def failing_guard_steps() -> List[str]:
    """A finding per CI guard step that exits non-zero here, with its output."""
    findings = []
    for name, script in ci_guard_steps():
        run = subprocess.run(
            ["bash", "-c", script], cwd=REPO_ROOT, capture_output=True, text=True
        )
        if run.returncode != 0:
            output = (run.stdout + run.stderr).strip().replace("\n", "\n    ")
            workflow = CI_WORKFLOW.relative_to(REPO_ROOT)
            findings.append(f"{workflow}: CI step {name!r} fails\n    {output}")
    return findings


def python_files(paths: Iterable[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def _module_bindings(body: Iterable[ast.stmt]) -> Iterator[str]:
    """Names bound by module-level statements, conditional blocks included."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id
        elif isinstance(node, (ast.If, ast.Try, ast.With, ast.For, ast.While)):
            for field in ("body", "orelse", "finalbody"):
                yield from _module_bindings(getattr(node, field, []))
            for handler in getattr(node, "handlers", []):
                yield from _module_bindings(handler.body)


def _exported(tree: ast.Module) -> List[ast.Constant]:
    """The string constants of a literal module-level ``__all__``."""
    names: List[ast.Constant] = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                names.extend(
                    constant
                    for constant in ast.walk(node.value)
                    if isinstance(constant, ast.Constant) and isinstance(constant.value, str)
                )
    return names


def _used_names(tree: ast.Module) -> Set[str]:
    """Every name the module reads, string annotations and ``__all__`` included."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            used.update(_IDENTIFIER.findall(node.value))
    return used


def check_file(path: Path) -> List[str]:
    text = path.read_text("utf-8")
    lines = text.splitlines()
    shown = path.relative_to(REPO_ROOT) if path.is_relative_to(REPO_ROOT) else path
    findings = [
        f"{shown}:{number}: line too long ({len(line)} > {MAX_LINE_LENGTH})"
        for number, line in enumerate(lines, 1)
        if len(_PRAGMA_TAIL.sub("", line)) > MAX_LINE_LENGTH
    ]
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as error:
        return findings + [f"{shown}:{error.lineno}: syntax error: {error.msg}"]

    used = _used_names(tree)
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "noqa" in lines[node.lineno - 1] or "noqa" in lines[(node.end_lineno or 1) - 1]:
            continue
        for alias in node.names:
            bound = (alias.asname or alias.name).split(".")[0]
            if alias.name != "*" and bound not in used:
                findings.append(f"{shown}:{node.lineno}: '{alias.name}' imported but unused")

    bound_names = set(_module_bindings(tree.body))
    for constant in _exported(tree):
        if constant.value not in bound_names:
            findings.append(
                f"{shown}:{constant.lineno}: undefined name '{constant.value}' in __all__"
            )
    return findings


def uncalled_definitions() -> List[str]:
    """Module-level library definitions nothing outside ``tests/`` reads."""
    trees: Dict[Path, ast.Module] = {}
    reads: Dict[str, List[Tuple[Path, int]]] = {}
    for path in python_files(REPO_ROOT / caller for caller in CALLERS):
        try:
            tree = trees[path] = ast.parse(path.read_text("utf-8"), filename=str(path))
        except SyntaxError:
            continue  # reported by check_file
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, []).append((path, node.lineno))
    findings: List[str] = []
    for path, tree in trees.items():
        if not path.is_relative_to(LIBRARY) or path.is_relative_to(LIBRARY / "reference"):
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name in UNCALLED_KEEP:
                continue
            first, last = node.lineno, node.end_lineno or node.lineno
            if not any(
                where != path or not first <= line <= last
                for where, line in reads.get(node.name, ())
            ):
                findings.append(
                    f"{path.relative_to(REPO_ROOT)}:{first}: '{node.name}' is defined but "
                    "nothing outside tests/ reads it"
                )
    return findings


def main(argv: List[str]) -> int:
    paths = [Path(arg).resolve() for arg in argv] or ci_ruff_paths()
    files = list(python_files(paths))
    findings: List[str] = []
    for path in files:
        if not compileall.compile_file(str(path), quiet=2):
            findings.append(f"{path}: does not compile")
        findings.extend(check_file(path))
    if not argv:
        findings.extend(uncalled_definitions())
        findings.extend(failing_guard_steps())
    for finding in findings:
        print(finding)
    print(f"lint_local: {len(files)} files, {len(findings)} findings")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
